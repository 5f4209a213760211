#include "gnn/gcn.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/thread_pool.h"
#include "gnn/dense_ops.h"
#include "gnn/fused.h"
#include "util/logging.h"

namespace hcspmm {

DenseMatrix GlorotInit(int32_t in_dim, int32_t out_dim, Pcg32* rng) {
  DenseMatrix w(in_dim, out_dim);
  const double scale = std::sqrt(2.0 / (in_dim + out_dim));
  for (float& v : w.mutable_data()) {
    v = static_cast<float>(scale * rng->NextGaussian());
  }
  return w;
}

namespace {

/// x^T, built in parallel (DenseMatrix::Transposed() is serial, and this one
/// runs inside the first epoch): each task transposes 64-row tiles of its
/// row range, so it first-touches its columns of every row of the result.
DenseMatrix ParallelTransposed(const DenseMatrix& x) {
  constexpr int64_t kTile = 64;
  DenseMatrix t = DenseMatrix::Uninitialized(x.cols(), x.rows());
  ParallelFor(
      0, x.rows(), /*num_threads=*/0,
      [&](int64_t r0, int64_t r1) {
        for (int64_t tb = r0; tb < r1; tb += kTile) {
          const int32_t te = static_cast<int32_t>(std::min(r1, tb + kTile));
          for (int32_t i = 0; i < x.cols(); ++i) {
            float* dst = t.MutableRowData(i);
            for (int32_t r = static_cast<int32_t>(tb); r < te; ++r) dst[r] = x.At(r, i);
          }
        }
      },
      /*grain=*/16 * kTile);
  return t;
}

}  // namespace

GcnModel::GcnModel(const Graph* graph, const GnnConfig& config, SpmmBackend* backend)
    : graph_(graph), config_(config), backend_(backend) {
  HCSPMM_CHECK(config_.num_layers >= 1);
  Pcg32 rng(config_.seed);
  int32_t in_dim = graph_->feature_dim;
  for (int32_t l = 0; l < config_.num_layers; ++l) {
    const int32_t out_dim =
        (l == config_.num_layers - 1) ? graph_->num_classes : config_.hidden_dim;
    weights_.push_back(GlorotInit(in_dim, out_dim, &rng));
    in_dim = out_dim;
  }
  OptimizerConfig opt_cfg;
  opt_cfg.kind = config_.optimizer;
  opt_cfg.learning_rate = config_.learning_rate;
  optimizer_ = std::make_unique<Optimizer>(opt_cfg);
  for (DenseMatrix& w : weights_) optimizer_->AddParameter(&w);
  const size_t hidden_layers = static_cast<size_t>(config_.num_layers - 1);
  u_.resize(weights_.size());
  z_.resize(hidden_layers);
  act_.resize(hidden_layers);
  dropout_mask_.resize(hidden_layers);
  weight_grads_.resize(weights_.size());
}

void GcnModel::Forward(PhaseBreakdown* times, DenseMatrix* logits) {
  const DeviceSpec& dev = backend_->device();
  const DataType dtype = backend_->dtype();
  const int32_t last = config_.num_layers - 1;
  const DenseMatrix* x = &graph_->features;
  // The backend reuses any logits-shaped output, so a moved-from `logits`
  // (shaped, no storage) is replaced here first.
  PrepareDenseOutput(x->rows(), weights_[last].cols(), logits);
  for (int32_t l = 0; l <= last; ++l) {
    // Update phase: U = X W (Equation 2, cuBLAS GEMM).
    KernelProfile gemm_prof;
    MeteredGemm(*x, weights_[l], dev, dtype, &gemm_prof, &u_[l]);
    if (times != nullptr) FoldProfile(gemm_prof, &times->update_ns, &times->launch_ns);

    // Aggregation phase: Z = Abar U (Equation 1, SpMM). The forward chain is
    // strict (each layer consumes the previous aggregation immediately), so
    // it runs synchronously; pipelining lives in Backward. The output
    // layer's Z is the logits, which Backward does not read.
    KernelProfile agg_prof;
    DenseMatrix* z = l == last ? logits : &z_[l];
    HCSPMM_CHECK_OK(backend_->Multiply(u_[l], z, &agg_prof));
    if (times != nullptr) FoldProfile(agg_prof, &times->agg_ns, &times->launch_ns);

    if (l < last) {
      // X_{l+1} = ReLU(Z) next to Z itself, which the ReLU gradient reads.
      KernelProfile relu_prof;
      MeteredRelu(z_[l], &act_[l], dev, &relu_prof);
      if (times != nullptr) {
        FoldProfile(relu_prof, &times->elementwise_ns, &times->launch_ns);
      }
      if (config_.dropout > 0.0) {
        DropoutForward(&act_[l], config_.dropout, &dropout_rng_, &dropout_mask_[l]);
      }
      x = &act_[l];
    }
  }
  has_forward_ = true;
}

DenseMatrix GcnModel::Forward(PhaseBreakdown* times) {
  DenseMatrix logits;
  Forward(times, &logits);
  return logits;
}

void GcnModel::Backward(const DenseMatrix& grad_logits, PhaseBreakdown* times) {
  HCSPMM_CHECK(has_forward_) << "run Forward first";
  const DeviceSpec& dev = backend_->device();
  const DataType dtype = backend_->dtype();
  const int32_t last = config_.num_layers - 1;
  if (features_t_.rows() == 0) features_t_ = ParallelTransposed(graph_->features);

  // Software pipeline: the aggregation for layer l-1 is submitted as soon as
  // its input dZ exists, so it overlaps the *deferred* dW GEMM of layer l on
  // this thread — the async-pipelining overlap the paper's amortization
  // story motivates. The output layer's aggregation has nothing to overlap,
  // so it always runs synchronously. Indexed profiles (not locals) because
  // the one a MultiplyAsync call fills must stay addressable until its
  // future resolves.
  std::vector<KernelProfile> agg_profs(config_.num_layers);
  Future<DenseMatrix> pending;
  HCSPMM_CHECK_OK(backend_->Multiply(grad_logits, &u_[last], &agg_profs[last]));
  for (int32_t l = last; l >= 0; --l) {
    // Aggregation backward: dU = Abar^T dZ = Abar dZ (Abar symmetric).
    if (l < last && config_.async_pipeline) {
      HCSPMM_CHECK_OK(pending.status());
      // dU_l replaces U_l, whose same-shaped buffer becomes the next dX.
      d_x_ = std::exchange(u_[l], pending.Take());
    }
    const DenseMatrix& d_u = u_[l];

    // Critical path first: dX = dU W^T feeds the next layer's aggregation,
    // which is submitted before the off-path dW GEMM below.
    KernelProfile dx_prof, relu_prof;
    int32_t fusible_launches = 1;  // the dW GEMM fuses into the SpMM launch
    if (l > 0) {
      MeteredGemmTransB(d_u, weights_[l], dev, dtype, &dx_prof, &d_x_);
      fusible_launches = 2;  // ... and so does the dX GEMM
      if (config_.dropout > 0.0) {
        DropoutBackward(&d_x_, dropout_mask_[l - 1], config_.dropout);
      }
      MeteredReluGrad(d_x_, z_[l - 1], dev, &relu_prof, &d_x_);  // dZ_{l-1}
      if (config_.async_pipeline) {
        pending = backend_->MultiplyAsync(std::move(d_x_), &agg_profs[l - 1]);
      } else {
        HCSPMM_CHECK_OK(backend_->Multiply(d_x_, &u_[l - 1], &agg_profs[l - 1]));
      }
    }
    // Update backward (Equation 3): dW = X^T dU — deferred off the critical
    // path, overlapping the in-flight aggregation.
    KernelProfile dw_prof;
    if (l == 0) {
      // A row-parallel GEMM over the cached X^T: bitwise equal to the TransA
      // GEMM over X (row i adds the rows k of dU in k-ascending order and
      // skips X(k, i) == 0 in both) and metered at the same m x k x n, but
      // no task re-reads all of X.
      MeteredGemm(features_t_, d_u, dev, dtype, &dw_prof, &weight_grads_[0]);
    } else {
      MeteredGemmTransA(act_[l - 1], d_u, dev, dtype, &dw_prof, &weight_grads_[l]);
    }

    if (times != nullptr) {
      // Fold in the exact order of the serial path (fp addition is not
      // associative): aggregation, then the dW GEMM accumulated before the
      // dX GEMM, fusion adjustment, ReLU grad.
      FoldProfile(agg_profs[l], &times->agg_ns, &times->launch_ns);
      KernelProfile gemm_prof = dw_prof;
      gemm_prof.Accumulate(dx_prof);
      FoldProfile(gemm_prof, &times->update_ns, &times->launch_ns);
      if (config_.fuse_kernels) {
        // SS V-A: Update follows Aggregation in GCN backward, so the
        // intermediate dU never round-trips through global memory and the
        // follow-on GEMM launches disappear.
        times->launch_ns -= fusible_launches * dev.kernel_launch_ns;
        const double traffic_ns =
            FusionSavingsNs(d_u.rows(), d_u.cols(), 0, dev, dtype);
        times->agg_ns = std::max(0.0, times->agg_ns - traffic_ns);
      }
      if (l > 0) {
        FoldProfile(relu_prof, &times->elementwise_ns, &times->launch_ns);
      }
    }
  }
  std::vector<const DenseMatrix*> grad_ptrs;
  grad_ptrs.reserve(weight_grads_.size());
  for (const DenseMatrix& g : weight_grads_) grad_ptrs.push_back(&g);
  optimizer_->Step(grad_ptrs);
}

EpochResult GcnModel::TrainEpoch() {
  EpochResult result;
  Forward(&result.forward, &logits_);
  result.loss = SoftmaxCrossEntropy(logits_, graph_->labels, &grad_logits_);
  result.accuracy = PredictionAccuracy(logits_, graph_->labels);
  Backward(grad_logits_, &result.backward);
  return result;
}

int64_t GcnModel::ActivationBytes() const {
  if (!has_forward_) return 0;
  // X_l (X_0 being the features) and Z_l of each layer.
  const int64_t row_bytes = static_cast<int64_t>(graph_->features.rows()) * sizeof(float);
  int64_t bytes = 0;
  for (const DenseMatrix& w : weights_) bytes += row_bytes * (w.rows() + w.cols());
  return bytes;
}

int64_t GcnModel::ParameterBytes() const {
  int64_t bytes = 0;
  // Weights plus same-shaped gradient buffers.
  for (const DenseMatrix& w : weights_) bytes += 2 * w.MemoryBytes();
  return bytes;
}

}  // namespace hcspmm
