// Common interface implemented by every SpMM kernel in the library —
// the paper's four kernels (Algorithms 1-4), the HC-SpMM hybrid dispatcher,
// and the five baseline re-implementations.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/row_window.h"
#include "gpusim/device.h"
#include "gpusim/profile.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "util/status.h"

namespace hcspmm {

class CancelToken;  // util/fault.h

/// Per-run options shared by all kernels.
struct KernelOptions {
  /// Storage/compute type of the Tensor-core path. kFp32 disables rounding
  /// (useful for bit-exact correctness tests); the paper's default is TF32.
  DataType dtype = DataType::kTf32;
  /// Host threads for the functional execution loops. <= 0 selects the
  /// hardware concurrency; 1 runs serially. Row partitions are disjoint and
  /// per-element accumulation order is fixed, so fp32 results are
  /// bit-identical for every setting (simulated costs are metered
  /// serially and never depend on it).
  int num_threads = 0;
  /// Optional cooperative cancellation, polled at window-batch granularity
  /// in the dispatch loop (never inside the SIMD kernels). On expiry the run
  /// returns kDeadlineExceeded and leaves the output empty (0 x 0), never
  /// partially written.
  const CancelToken* cancel = nullptr;
};

/// \brief Abstract SpMM kernel: computes Z = A * X functionally on the host
/// while metering its simulated GPU cost into a KernelProfile.
class SpmmKernel {
 public:
  virtual ~SpmmKernel() = default;

  /// Stable kernel identifier (used by the registry and bench output).
  virtual std::string name() const = 0;

  /// Compute z = a * x. `z` is overwritten in place when it is already an
  /// a.rows() x x.cols() fp32 matrix and replaced otherwise; it must not be
  /// `&x` (see internal::PrepareOutput). `profile` receives the simulated
  /// cost; pass nullptr to skip metering details (time still not returned
  /// then — callers normally want the profile).
  virtual Status Run(const CsrMatrix& a, const DenseMatrix& x, const DeviceSpec& dev,
                     const KernelOptions& opts, DenseMatrix* z,
                     KernelProfile* profile) const = 0;
};

class PackedCsr;

namespace internal {

/// Validates the operands of z = a * x and readies `z` as the a.rows() x
/// x.cols() fp32 output. A `z` already of that shape and precision keeps its
/// buffer, whose contents the kernel then overwrites; any other `z` is
/// replaced by DenseMatrix::Uninitialized, so no serial zero fill runs either
/// way and the kernel must write every row of `z`. Returns InvalidArgument,
/// leaving `z` untouched, when A.cols != X.rows or when `z` is `&x` (the
/// kernel would overwrite X while still reading it).
Status PrepareOutput(const CsrMatrix& a, const DenseMatrix& x, DenseMatrix* z);

/// Functional CSR SpMM over a row range with operand rounding emulating the
/// requested data type (accumulation stays FP32, as on real WMMA hardware).
/// Writes rows [row_begin, row_end) of `z`, which must already have the
/// output shape (PrepareOutput): each row is zeroed and accumulated by the
/// task that produces it, so prior contents are irrelevant and the first
/// touch of a fresh buffer is spread across the pool. `num_threads`
/// partitions the rows across the global ThreadPool (<= 0 => hardware
/// concurrency); each row is produced by exactly one thread with an
/// unchanged accumulation order, so results match the serial loop
/// bit-for-bit. TF32 with fp32 X runs on the SIMD table
/// (simd::SimdKernels::spmm_rows_tf32); fp16/bf16 rounding and reduced X
/// with a rounding dtype run the scalar reference loop.
///
/// When `packed` is non-null (a PackedCsr built from `a`), the fp32 path
/// decodes column indices from the packed stream instead of a.col_ind() —
/// same axpy order, bit-identical result, fewer index bytes streamed. X may
/// be in reduced (fp16/bf16) storage: values widen to fp32 on load and
/// accumulation stays fp32 (deterministic, but not bit-identical to fp32
/// storage).
void SpmmRowsRounded(const CsrMatrix& a, const DenseMatrix& x, int32_t row_begin,
                     int32_t row_end, DataType dtype, DenseMatrix* z,
                     int num_threads = 1, const PackedCsr* packed = nullptr);

}  // namespace internal

/// Look up a kernel by name. Known names: "cuda_basic", "cuda_opt",
/// "tensor_basic", "tensor_opt", "hcspmm", "hybrid_fine", "cusparse",
/// "sputnik", "gespmm", "tcgnn", "dtcspmm". Returns nullptr for unknown
/// names; callers that need a diagnostic should list RegisteredKernelNames().
std::unique_ptr<SpmmKernel> MakeKernel(const std::string& name);

/// Every name MakeKernel accepts, in a stable order; use it to iterate the
/// kernels or to build "unknown kernel" error messages.
const std::vector<std::string>& RegisteredKernelNames();

}  // namespace hcspmm
