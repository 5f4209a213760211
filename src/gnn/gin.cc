#include "gnn/gin.h"

#include <algorithm>
#include <utility>

#include "gnn/dense_ops.h"
#include "gnn/fused.h"
#include "util/logging.h"

namespace hcspmm {

GinModel::GinModel(const Graph* graph, const GnnConfig& config, SpmmBackend* backend)
    : graph_(graph), config_(config), backend_(backend) {
  HCSPMM_CHECK(config_.num_layers >= 1);
  Pcg32 rng(config_.seed);
  int32_t in_dim = graph_->feature_dim;
  for (int32_t l = 0; l < config_.num_layers; ++l) {
    const int32_t out_dim =
        (l == config_.num_layers - 1) ? graph_->num_classes : config_.hidden_dim;
    w1_.push_back(GlorotInit(in_dim, config_.hidden_dim, &rng));
    w2_.push_back(GlorotInit(config_.hidden_dim, out_dim, &rng));
    in_dim = out_dim;
  }
  z_.resize(w1_.size());
  h_pre_.resize(w1_.size());
  h_act_.resize(w1_.size());
  d_z_.resize(w1_.size());
  d_x_.resize(w1_.size());
  d_w1_.resize(w1_.size());
  d_w2_.resize(w1_.size());
}

void GinModel::Forward(PhaseBreakdown* times, DenseMatrix* logits) {
  const DeviceSpec& dev = backend_->device();
  const DataType dtype = backend_->dtype();
  const int32_t last = config_.num_layers - 1;
  const DenseMatrix* x = &graph_->features;
  for (int32_t l = 0; l <= last; ++l) {
    // Aggregation first: Z = (A + (1+eps) I) X. The forward chain is strict
    // (the MLP consumes Z immediately), so it runs synchronously; the
    // pipelining overlap lives in Backward.
    KernelProfile agg_prof;
    HCSPMM_CHECK_OK(backend_->Multiply(*x, &z_[l], &agg_prof));

    // Update: two-layer MLP. X_{l+1} goes to the logits for the output
    // layer and to x_ otherwise, whose last reader was the aggregation above.
    KernelProfile gemm_prof;
    MeteredGemm(z_[l], w1_[l], dev, dtype, &gemm_prof, &h_pre_[l]);
    KernelProfile relu_prof;
    MeteredRelu(h_pre_[l], &h_act_[l], dev, &relu_prof);
    DenseMatrix* out = l == last ? logits : &x_;
    MeteredGemm(h_act_[l], w2_[l], dev, dtype, &gemm_prof, out);

    if (times != nullptr) {
      FoldProfile(agg_prof, &times->agg_ns, &times->launch_ns);
      FoldProfile(gemm_prof, &times->update_ns, &times->launch_ns);
      FoldProfile(relu_prof, &times->elementwise_ns, &times->launch_ns);
      if (config_.fuse_kernels) {
        // Forward GIN: the first MLP GEMM follows the Aggregation directly,
        // so Z stays in shared memory and one launch disappears.
        times->launch_ns -= dev.kernel_launch_ns;
        const double traffic_ns =
            FusionSavingsNs(z_[l].rows(), z_[l].cols(), 0, dev, dtype);
        times->agg_ns = std::max(0.0, times->agg_ns - traffic_ns);
      }
    }
    x = out;
  }
  has_forward_ = true;
}

DenseMatrix GinModel::Forward(PhaseBreakdown* times) {
  DenseMatrix logits;
  Forward(times, &logits);
  return logits;
}

void GinModel::Backward(const DenseMatrix& grad_logits, PhaseBreakdown* times) {
  HCSPMM_CHECK(has_forward_) << "run Forward first";
  const DeviceSpec& dev = backend_->device();
  const DataType dtype = backend_->dtype();

  const DenseMatrix* d_out = &grad_logits;
  for (int32_t l = config_.num_layers - 1; l >= 0; --l) {
    // Critical path to the aggregation input dZ first: d(hidden activation),
    // ReLU grad, then dZ = dH W1^T — so the aggregation can be submitted
    // before the off-path weight-gradient GEMMs below.
    KernelProfile dact_prof, relu_prof, dz_prof;
    MeteredGemmTransB(*d_out, w2_[l], dev, dtype, &dact_prof, &d_h_);
    MeteredReluGrad(d_h_, h_pre_[l], dev, &relu_prof, &d_h_);
    // Layer 0's dZ feeds no aggregation; it is computed all the same.
    MeteredGemmTransB(d_h_, w1_[l], dev, dtype, &dz_prof, &d_z_[l]);

    // Aggregation backward (Update precedes it -> no fusion). Submitted
    // async: it overlaps the dW1/dW2 GEMMs and the SGD steps on this thread.
    KernelProfile agg_prof;
    Future<DenseMatrix> pending;
    if (l > 0) {
      if (config_.async_pipeline) {
        pending = backend_->MultiplyAsync(std::move(d_z_[l]), &agg_prof);
      } else {
        HCSPMM_CHECK_OK(backend_->Multiply(d_z_[l], &d_x_[l], &agg_prof));
      }
    }

    // Deferred off the critical path: d(w2), d(w1), and the SGD updates.
    // dW2 reads w2 nowhere and dZ above already consumed the pre-step w1,
    // so stepping here is equivalent to the serial order.
    KernelProfile dw2_prof, dw1_prof;
    MeteredGemmTransA(h_act_[l], *d_out, dev, dtype, &dw2_prof, &d_w2_[l]);
    MeteredGemmTransA(z_[l], d_h_, dev, dtype, &dw1_prof, &d_w1_[l]);
    SgdStep(&w1_[l], d_w1_[l], config_.learning_rate);
    SgdStep(&w2_[l], d_w2_[l], config_.learning_rate);

    if (l > 0 && config_.async_pipeline) {
      HCSPMM_CHECK_OK(pending.status());
      // dX_l replaces its old buffer, which becomes the next epoch's dZ_l.
      d_z_[l] = std::exchange(d_x_[l], pending.Take());
    }

    if (times != nullptr) {
      // Same fold order as the serial path: one gemm profile accumulated in
      // the order dW2, dAct, dW1, dZ; then ReLU grad, then aggregation.
      KernelProfile gemm_prof = dw2_prof;
      gemm_prof.Accumulate(dact_prof);
      gemm_prof.Accumulate(dw1_prof);
      gemm_prof.Accumulate(dz_prof);
      FoldProfile(gemm_prof, &times->update_ns, &times->launch_ns);
      FoldProfile(relu_prof, &times->elementwise_ns, &times->launch_ns);
      FoldProfile(agg_prof, &times->agg_ns, &times->launch_ns);
    }

    if (l > 0) d_out = &d_x_[l];
  }
}

EpochResult GinModel::TrainEpoch() {
  EpochResult result;
  Forward(&result.forward, &logits_);
  result.loss = SoftmaxCrossEntropy(logits_, graph_->labels, &grad_logits_);
  result.accuracy = PredictionAccuracy(logits_, graph_->labels);
  Backward(grad_logits_, &result.backward);
  return result;
}

int64_t GinModel::ActivationBytes() const {
  if (!has_forward_) return 0;
  // X_l and Z_l are n x in_l, H_l and ReLU(H_l) n x hidden: twice W1_l's
  // rows plus columns.
  const int64_t row_bytes = static_cast<int64_t>(graph_->features.rows()) * sizeof(float);
  int64_t bytes = 0;
  for (const DenseMatrix& w : w1_) bytes += 2 * row_bytes * (w.rows() + w.cols());
  return bytes;
}

int64_t GinModel::ParameterBytes() const {
  int64_t bytes = 0;
  for (const auto& w : w1_) bytes += 2 * w.MemoryBytes();
  for (const auto& w : w2_) bytes += 2 * w.MemoryBytes();
  return bytes;
}

}  // namespace hcspmm
