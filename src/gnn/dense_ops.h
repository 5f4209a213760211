// Metered dense operations for the GNN Update phase and activations.
// GEMMs are costed as cuBLAS-style Tensor-core kernels (Equation 2/3);
// elementwise ops are bandwidth-bound.
//
// Every op that produces a matrix writes it into a caller-supplied output,
// the idiom of SpmmKernel::Run: an output already of the result's shape
// (fp32) keeps its buffer and is overwritten, any other is replaced by an
// uninitialised one, and each parallel task zeroes or writes its own rows, so
// a fresh buffer is first touched across the pool and no serial zero fill
// runs. That lets a model reuse its activations and gradients across epochs.
// The value-returning forms wrap the output forms.
#pragma once

#include <vector>

#include "gpusim/device.h"
#include "gpusim/profile.h"
#include "sparse/dense.h"

namespace hcspmm {

/// Readies `out` as a rows x cols fp32 output: kept when it already has that
/// shape and storage, replaced by DenseMatrix::Uninitialized otherwise. A
/// moved-from matrix keeps its shape but not its storage, so it is replaced.
void PrepareDenseOutput(int32_t rows, int32_t cols, DenseMatrix* out);

/// C = A * B, metered as one kernel launch on `dev`. `c` must not be `&a`
/// or `&b`.
void MeteredGemm(const DenseMatrix& a, const DenseMatrix& b, const DeviceSpec& dev,
                 DataType dtype, KernelProfile* profile, DenseMatrix* c);
DenseMatrix MeteredGemm(const DenseMatrix& a, const DenseMatrix& b,
                        const DeviceSpec& dev, DataType dtype, KernelProfile* profile);

/// C = A^T * B (the W' = Z^T X' gradient GEMM of Equation 3).
void MeteredGemmTransA(const DenseMatrix& a, const DenseMatrix& b,
                       const DeviceSpec& dev, DataType dtype, KernelProfile* profile,
                       DenseMatrix* c);

/// C = A * B^T (the Z' = X' W^T gradient GEMM of Equation 3).
void MeteredGemmTransB(const DenseMatrix& a, const DenseMatrix& b,
                       const DeviceSpec& dev, DataType dtype, KernelProfile* profile,
                       DenseMatrix* c);

/// out = ReLU(in) in one pass, metered as a bandwidth-bound kernel. `out`
/// may be `&in`.
void MeteredRelu(const DenseMatrix& in, DenseMatrix* out, const DeviceSpec& dev,
                 KernelProfile* profile);
/// In-place ReLU: MeteredRelu(*m, m, ...).
void MeteredReluInPlace(DenseMatrix* m, const DeviceSpec& dev, KernelProfile* profile);

/// grad_in = grad_out * (pre_act > 0), metered. `grad_in` may be
/// `&grad_out` (elementwise, so in place is exact) but not `&pre_act`.
void MeteredReluGrad(const DenseMatrix& grad_out, const DenseMatrix& pre_act,
                     const DeviceSpec& dev, KernelProfile* profile,
                     DenseMatrix* grad_in);
DenseMatrix MeteredReluGrad(const DenseMatrix& grad_out, const DenseMatrix& pre_act,
                            const DeviceSpec& dev, KernelProfile* profile);

/// Row-wise softmax (host side; used for reporting predictions).
DenseMatrix SoftmaxRows(const DenseMatrix& logits);

/// Mean softmax cross-entropy over all rows; writes d(loss)/d(logits) into
/// `grad_logits` when non-null (reused when already logits-shaped). Returns
/// the loss. Needs one label per row, each in [0, logits.cols()).
double SoftmaxCrossEntropy(const DenseMatrix& logits,
                           const std::vector<int32_t>& labels,
                           DenseMatrix* grad_logits);

/// Fraction of rows whose argmax matches the label. Needs one label per
/// row, each in [0, logits.cols()).
double PredictionAccuracy(const DenseMatrix& logits,
                          const std::vector<int32_t>& labels);

/// w -= lr * grad (plain SGD).
void SgdStep(DenseMatrix* w, const DenseMatrix& grad, double lr);

}  // namespace hcspmm
