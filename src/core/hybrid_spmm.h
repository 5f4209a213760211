// HC-SpMM: the paper's primary contribution. Row windows are classified by
// the logistic-regression selector and dispatched to the optimized CUDA
// kernel (Algorithm 3) or the optimized Tensor kernel (Algorithm 4); both
// core types write disjoint window results, so no merge step is needed
// (SS IV-A combination strategy).
#pragma once

#include <optional>

#include "core/preprocess.h"
#include "kernels/cuda_optimized.h"
#include "kernels/spmm_kernel.h"
#include "kernels/tensor_optimized.h"

namespace hcspmm {

class HcSpmm : public SpmmKernel {
 public:
  /// Uses the encoded per-architecture default selector for the device the
  /// kernel runs on.
  HcSpmm() = default;
  /// Uses a caller-provided (e.g. freshly trained) selector on all devices.
  explicit HcSpmm(const SelectorModel& selector) : custom_selector_(selector) {}

  std::string name() const override { return "hcspmm"; }

  /// One-shot entry point: preprocesses internally, then runs. The
  /// preprocessing cost is *not* folded into `profile` (the paper reports
  /// kernel time and preprocessing separately); call Preprocess() yourself
  /// to meter it.
  Status Run(const CsrMatrix& a, const DenseMatrix& x, const DeviceSpec& dev,
             const KernelOptions& opts, DenseMatrix* z,
             KernelProfile* profile) const override;

  /// Amortized entry point for GNN training: reuse a prebuilt plan.
  ///
  /// Precondition: `a` is content-identical to the matrix the plan was built
  /// from (the same object, a copy, or a PlanCache fingerprint match).
  /// Validation is structural — window tiling, per-window nnz and max row
  /// degree — so it rejects accidental cross-matrix reuse cheaply but cannot
  /// detect a matrix that differs only in column indices or values; such
  /// misuse computes with a stale window classification.
  ///
  /// `z` is handled as in Run (internal::PrepareOutput). A validation
  /// failure leaves it untouched; a cancellation (KernelOptions::cancel)
  /// leaves it empty.
  Status RunWithPlan(const HybridPlan& plan, const CsrMatrix& a, const DenseMatrix& x,
                     const DeviceSpec& dev, const KernelOptions& opts, DenseMatrix* z,
                     KernelProfile* profile) const;

  /// Selector effective on `dev`: the custom one if provided, else the
  /// encoded model for that architecture.
  SelectorModel SelectorFor(const DeviceSpec& dev) const {
    return custom_selector_ ? *custom_selector_ : DefaultSelectorModelFor(dev.name);
  }

 private:
  std::optional<SelectorModel> custom_selector_;
  CudaOptimizedSpmm cuda_path_;
  TensorOptimizedSpmm tensor_path_;
};

}  // namespace hcspmm
