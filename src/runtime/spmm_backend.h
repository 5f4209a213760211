// SpmmBackend: "multiply by this graph", the one interface the GNN models, the
// trainer and the serving pool use. Session (one plan) and ShardedSession (K
// row-disjoint Sessions) implement it, so only the code that opens a graph
// knows whether it is sharded; fp32 results are bit-identical either way.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/profile.h"
#include "runtime/future.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "stream/delta.h"
#include "util/fault.h"
#include "util/status.h"

namespace hcspmm {

/// \brief A bound sparse operator Abar that multiplies dense feature matrices.
class SpmmBackend {
 public:
  virtual ~SpmmBackend() = default;

  /// Block until preprocessing finished; returns its outcome (the first
  /// shard's error when sharded).
  virtual Status WaitReady() const = 0;

  /// z = Abar * x, synchronously. Appends to `profile` if non-null. A `z`
  /// that already is a rows x x.cols() fp32 matrix is overwritten in place;
  /// any other `z` is replaced; `z` may be `&x`. A failure never leaves a
  /// partial product in `z` (see Session::Multiply for the full contract).
  virtual Status Multiply(const DenseMatrix& x, DenseMatrix* z, KernelProfile* profile,
                          const ExecControls& ctl = {}) const = 0;

  /// Submit z = Abar * x to `stream`; the future resolves to z or the error.
  /// A non-null `profile` accumulates the metered cost before the future
  /// resolves and must outlive it.
  virtual Future<DenseMatrix> MultiplyAsync(DenseMatrix x,
                                            KernelProfile* profile = nullptr,
                                            int stream = 0, ExecControls ctl = {}) = 0;

  /// Async batch over owned inputs: each item is computed exactly like a
  /// direct Multiply on it; results and `profile` follow batch order; first
  /// item error wins; an empty batch resolves without dispatching anything.
  virtual Future<std::vector<DenseMatrix>> MultiplyBatchAsync(
      std::vector<DenseMatrix> xs, KernelProfile* profile = nullptr, int stream = 0,
      ExecControls ctl = {}) = 0;

  /// Patch the bound operator with an edge-delta batch ("hcspmm" only).
  /// In-flight multiplies finish on the snapshot they pinned. On success a
  /// non-null `patched_csr` receives the full patched matrix, so a caller
  /// that stores the graph does not merge the batch a second time. On error
  /// nothing changes, `*patched_csr` included.
  virtual Status ApplyDeltas(const DeltaBatch& batch, DeltaApplyStats* stats = nullptr,
                             std::shared_ptr<const CsrMatrix>* patched_csr = nullptr) = 0;

  /// Simulated one-time preprocessing time in ns (0 on a PlanCache hit;
  /// summed over shards). Waits for preprocessing.
  virtual double PreprocessNs() const = 0;

  /// True when the plan (every shard's plan) came out of the PlanCache.
  virtual bool plan_from_cache() const = 0;

  /// Framework-specific auxiliary memory, Table XII (summed over shards).
  virtual int64_t AuxMemoryBytes() const = 0;

  virtual const DeviceSpec& device() const = 0;
  virtual DataType dtype() const = 0;
};

}  // namespace hcspmm
