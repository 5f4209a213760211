#include "gnn/dense_ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "exec/thread_pool.h"
#include "gpusim/cost_model.h"
#include "gpusim/scheduler.h"
#include "sparse/reference.h"
#include "util/logging.h"
#include "util/simd.h"

namespace hcspmm {

namespace {

/// Elementwise ops split into at-least-this-many-element chunks; smaller
/// tensors are not worth a pool round-trip.
constexpr int64_t kElementwiseGrain = 1 << 14;

/// Row chunk grain for the per-row softmax/cross-entropy/argmax loops: keep
/// roughly kElementwiseGrain elements per chunk.
int64_t RowGrain(int32_t cols) {
  return std::max<int64_t>(1, kElementwiseGrain / std::max<int32_t>(1, cols));
}

/// Minimum flops per GEMM chunk; below this a pool round-trip costs more
/// than the arithmetic (the small weight GEMMs in GNN layers stay serial).
constexpr int64_t kGemmGrainFlops = 1 << 17;

/// Output rows per chunk for a GEMM whose rows cost `flops_per_row` each.
int64_t GemmRowGrain(int64_t flops_per_row) {
  return std::max<int64_t>(1, kGemmGrainFlops / std::max<int64_t>(1, flops_per_row));
}

// Row-parallel GEMMs over the shared sparse/reference.cc row-range kernels:
// one copy of each loop, so the parallel results are bit-identical to the
// serial reference for every thread count (each output row is zeroed and
// written by exactly one task, per-element accumulation order fixed).

/// Zeroes rows [r0, r1) of `c`, which the row kernels then accumulate into.
void ZeroRows(int64_t r0, int64_t r1, DenseMatrix* c) {
  std::fill(c->mutable_data().begin() + r0 * c->cols(),
            c->mutable_data().begin() + r1 * c->cols(), 0.0f);
}

void ParallelGemm(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c) {
  HCSPMM_CHECK(a.cols() == b.rows()) << "GEMM shape mismatch";
  HCSPMM_CHECK(c != &a && c != &b) << "GEMM output must not alias an input";
  PrepareDenseOutput(a.rows(), b.cols(), c);
  ParallelFor(
      0, a.rows(), /*num_threads=*/0,
      [&](int64_t r0, int64_t r1) {
        ZeroRows(r0, r1, c);
        internal::GemmRows(a, b, static_cast<int32_t>(r0), static_cast<int32_t>(r1),
                           c);
      },
      GemmRowGrain(2ll * a.cols() * b.cols()));
}

void ParallelGemmTransA(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c) {
  HCSPMM_CHECK(a.rows() == b.rows()) << "GEMM^T shape mismatch";
  HCSPMM_CHECK(c != &a && c != &b) << "GEMM output must not alias an input";
  PrepareDenseOutput(a.cols(), b.cols(), c);
  // Every chunk streams all of A and B whatever rows of C it owns, so at
  // most one chunk per thread: more chunks only re-read the inputs.
  const int64_t threads = ResolveNumThreads(0);
  ParallelFor(
      0, a.cols(), /*num_threads=*/0,
      [&](int64_t i0, int64_t i1) {
        ZeroRows(i0, i1, c);
        internal::GemmTransARows(a, b, static_cast<int32_t>(i0),
                                 static_cast<int32_t>(i1), c);
      },
      std::max(GemmRowGrain(2ll * a.rows() * b.cols()),
               (a.cols() + threads - 1) / threads));
}

void ParallelGemmTransB(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c) {
  HCSPMM_CHECK(a.cols() == b.cols()) << "GEMM B^T shape mismatch";
  HCSPMM_CHECK(c != &a && c != &b) << "GEMM output must not alias an input";
  PrepareDenseOutput(a.rows(), b.rows(), c);
  // This kernel stores each element (a dot product), so no zeroing.
  ParallelFor(
      0, a.rows(), /*num_threads=*/0,
      [&](int64_t r0, int64_t r1) {
        internal::GemmTransBRows(a, b, static_cast<int32_t>(r0),
                                 static_cast<int32_t>(r1), c);
      },
      GemmRowGrain(2ll * a.cols() * b.rows()));
}

/// Bytes of an fp32 matrix of `m`'s shape: what MemoryBytes() reads for a
/// freshly built one, independent of the capacity a reused buffer kept.
int64_t Fp32Bytes(const DenseMatrix& m) {
  return static_cast<int64_t>(m.rows()) * m.cols() * static_cast<int64_t>(sizeof(float));
}

/// Writes e[j] = exp(row[j] - max(row)) and returns their sum, accumulated
/// in double in j order. std::exp of a float returns a float, so e[j] holds
/// exactly the bits a second evaluation would give: each exp runs once.
double RowExps(const float* row, int32_t cols, float* e) {
  float mx = row[0];
  for (int32_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
  double sum = 0.0;
  for (int32_t j = 0; j < cols; ++j) {
    e[j] = std::exp(row[j] - mx);
    sum += e[j];
  }
  return sum;
}

/// Aborts unless `y` is a valid class index for a `cols`-class row `r`.
void CheckLabel(int32_t y, int32_t r, int32_t cols) {
  HCSPMM_CHECK(y >= 0 && y < cols)
      << "label " << y << " of row " << r << " is outside [0, " << cols << ")";
}

// Meter a GEMM of logical shape m x k x n as one cuBLAS-style launch.
void MeterGemm(const char* name, int32_t m, int32_t k, int32_t n,
               const DeviceSpec& dev, DataType dtype, KernelProfile* profile) {
  if (profile == nullptr) return;
  KernelCostAccumulator acc(name, dev);
  int64_t blocks = 0;
  const WindowCost cost = DenseGemmCost(m, k, n, dev, dtype, &blocks);
  acc.AddGemm(cost, blocks);
  KernelProfile p;
  acc.Finalize(&p, /*launches=*/1);
  p.kernel_name = name;
  profile->Accumulate(p);
}

// Bandwidth-bound elementwise op touching `bytes` of global memory.
void MeterElementwise(const char* name, int64_t bytes, const DeviceSpec& dev,
                      KernelProfile* profile) {
  if (profile == nullptr) return;
  KernelProfile p;
  p.kernel_name = name;
  const double cycles = static_cast<double>(bytes) / dev.BytesPerCyclePerSm();
  p.cuda_memory_cycles = cycles;
  p.time_ns = dev.CyclesToNs(cycles / dev.sm_count) + dev.kernel_ramp_ns;
  p.gmem_bytes = bytes;
  p.launches = 1;
  p.launch_ns = dev.kernel_launch_ns;
  profile->Accumulate(p);
}

}  // namespace

void PrepareDenseOutput(int32_t rows, int32_t cols, DenseMatrix* out) {
  if (out->rows() != rows || out->cols() != cols || out->reduced_storage() ||
      out->data().size() != static_cast<size_t>(rows) * cols) {
    *out = DenseMatrix::Uninitialized(rows, cols);
  }
}

void MeteredGemm(const DenseMatrix& a, const DenseMatrix& b, const DeviceSpec& dev,
                 DataType dtype, KernelProfile* profile, DenseMatrix* c) {
  MeterGemm("gemm", a.rows(), a.cols(), b.cols(), dev, dtype, profile);
  ParallelGemm(a, b, c);
}

DenseMatrix MeteredGemm(const DenseMatrix& a, const DenseMatrix& b,
                        const DeviceSpec& dev, DataType dtype,
                        KernelProfile* profile) {
  DenseMatrix c;
  MeteredGemm(a, b, dev, dtype, profile, &c);
  return c;
}

void MeteredGemmTransA(const DenseMatrix& a, const DenseMatrix& b,
                       const DeviceSpec& dev, DataType dtype, KernelProfile* profile,
                       DenseMatrix* c) {
  MeterGemm("gemm_ta", a.cols(), a.rows(), b.cols(), dev, dtype, profile);
  ParallelGemmTransA(a, b, c);
}

void MeteredGemmTransB(const DenseMatrix& a, const DenseMatrix& b,
                       const DeviceSpec& dev, DataType dtype, KernelProfile* profile,
                       DenseMatrix* c) {
  MeterGemm("gemm_tb", a.rows(), a.cols(), b.rows(), dev, dtype, profile);
  ParallelGemmTransB(a, b, c);
}

void MeteredReluInPlace(DenseMatrix* m, const DeviceSpec& dev,
                        KernelProfile* profile) {
  MeteredRelu(*m, m, dev, profile);
}

void MeteredRelu(const DenseMatrix& in, DenseMatrix* out, const DeviceSpec& dev,
                 KernelProfile* profile) {
  if (out != &in) PrepareDenseOutput(in.rows(), in.cols(), out);
  const float* src = in.data().data();
  float* dst = out->mutable_data().data();
  ParallelFor(
      0, static_cast<int64_t>(in.data().size()), /*num_threads=*/0,
      [&](int64_t b, int64_t e) {
        if (dst != src) std::copy(src + b, src + e, dst + b);
        simd::Active().relu(dst + b, e - b);
      },
      kElementwiseGrain);
  MeterElementwise("relu", Fp32Bytes(*out) * 2, dev, profile);
}

void MeteredReluGrad(const DenseMatrix& grad_out, const DenseMatrix& pre_act,
                     const DeviceSpec& dev, KernelProfile* profile,
                     DenseMatrix* grad_in) {
  HCSPMM_CHECK(grad_out.rows() == pre_act.rows() && grad_out.cols() == pre_act.cols());
  HCSPMM_CHECK(grad_in != &pre_act) << "ReLU grad output must not alias pre_act";
  if (grad_in != &grad_out) PrepareDenseOutput(grad_out.rows(), grad_out.cols(), grad_in);
  float* dst = grad_in->mutable_data().data();
  const float* go = grad_out.data().data();
  const float* pa = pre_act.data().data();
  ParallelFor(
      0, static_cast<int64_t>(grad_out.data().size()), /*num_threads=*/0,
      [&](int64_t b, int64_t e) {
        simd::Active().relu_grad(go + b, pa + b, dst + b, e - b);
      },
      kElementwiseGrain);
  MeterElementwise("relu_grad", Fp32Bytes(*grad_in) * 3, dev, profile);
}

DenseMatrix MeteredReluGrad(const DenseMatrix& grad_out, const DenseMatrix& pre_act,
                            const DeviceSpec& dev, KernelProfile* profile) {
  DenseMatrix grad_in;
  MeteredReluGrad(grad_out, pre_act, dev, profile, &grad_in);
  return grad_in;
}

// Rows are independent and written disjointly, so the row partitions below
// are bit-deterministic for any thread count (like the GEMM row kernels);
// the in-row max/sum reductions stay scalar to preserve their exact order.

DenseMatrix SoftmaxRows(const DenseMatrix& logits) {
  DenseMatrix out = DenseMatrix::Uninitialized(logits.rows(), logits.cols());
  ParallelFor(
      0, logits.rows(), /*num_threads=*/0,
      [&](int64_t rb, int64_t re) {
        for (int32_t r = static_cast<int32_t>(rb); r < re; ++r) {
          float* o = out.MutableRowData(r);
          const double sum = RowExps(logits.RowData(r), logits.cols(), o);
          for (int32_t j = 0; j < logits.cols(); ++j) {
            o[j] = static_cast<float>(o[j] / sum);
          }
        }
      },
      RowGrain(logits.cols()));
  return out;
}

double SoftmaxCrossEntropy(const DenseMatrix& logits,
                           const std::vector<int32_t>& labels,
                           DenseMatrix* grad_logits) {
  const int32_t cols = logits.cols();
  HCSPMM_CHECK(labels.size() == static_cast<size_t>(logits.rows()))
      << "need one label per logits row";
  const double inv_n = 1.0 / logits.rows();
  if (grad_logits != nullptr) PrepareDenseOutput(logits.rows(), cols, grad_logits);
  // Per-row losses land in a buffer and are folded serially in row order
  // below, so the total matches the historical sequential loop bit-for-bit
  // no matter how ParallelFor chunks the rows.
  std::vector<double> row_loss(static_cast<size_t>(logits.rows()), 0.0);
  ParallelFor(
      0, logits.rows(), /*num_threads=*/0,
      [&](int64_t rb, int64_t re) {
        std::vector<float> e(static_cast<size_t>(cols));
        for (int32_t r = static_cast<int32_t>(rb); r < re; ++r) {
          const int32_t y = labels[r];
          CheckLabel(y, r, cols);
          // The whole row is read into `e` before the gradient row is
          // written, so `grad_logits` may even be `&logits`.
          const double sum = RowExps(logits.RowData(r), cols, e.data());
          row_loss[r] = std::log(
              std::max(1e-12, static_cast<double>(static_cast<float>(e[y] / sum))));
          if (grad_logits != nullptr) {
            float* g = grad_logits->MutableRowData(r);
            for (int32_t j = 0; j < cols; ++j) {
              const float p = static_cast<float>(e[j] / sum);
              g[j] = static_cast<float>((p - (j == y ? 1.0f : 0.0f)) * inv_n);
            }
          }
        }
      },
      RowGrain(cols));
  double loss = 0.0;
  for (int32_t r = 0; r < logits.rows(); ++r) loss -= row_loss[r];
  return loss * inv_n;
}

double PredictionAccuracy(const DenseMatrix& logits,
                          const std::vector<int32_t>& labels) {
  HCSPMM_CHECK(labels.size() == static_cast<size_t>(logits.rows()))
      << "need one label per logits row";
  std::atomic<int64_t> correct{0};
  ParallelFor(
      0, logits.rows(), /*num_threads=*/0,
      [&](int64_t rb, int64_t re) {
        int64_t local = 0;
        for (int32_t r = static_cast<int32_t>(rb); r < re; ++r) {
          CheckLabel(labels[r], r, logits.cols());
          const float* row = logits.RowData(r);
          int32_t best = 0;
          for (int32_t j = 1; j < logits.cols(); ++j) {
            if (row[j] > row[best]) best = j;
          }
          if (best == labels[r]) ++local;
        }
        correct.fetch_add(local, std::memory_order_relaxed);
      },
      RowGrain(logits.cols()));
  return logits.rows() > 0
             ? static_cast<double>(correct.load(std::memory_order_relaxed)) /
                   logits.rows()
             : 0.0;
}

void SgdStep(DenseMatrix* w, const DenseMatrix& grad, double lr) {
  HCSPMM_CHECK(w->rows() == grad.rows() && w->cols() == grad.cols());
  float* wd = w->mutable_data().data();
  const float* gd = grad.data().data();
  ParallelFor(
      0, static_cast<int64_t>(w->data().size()), /*num_threads=*/0,
      [&](int64_t b, int64_t e) { simd::Active().sgd(wd + b, gd + b, e - b, lr); },
      kElementwiseGrain);
}

}  // namespace hcspmm
