// GIN (Xu et al.): X_{l+1} = MLP((A + (1+eps) I) X_l) with a two-layer MLP.
// Aggregation comes *first* in the layer, so in *forward* propagation the
// Update (first MLP GEMM) directly follows the Aggregation and fuses
// (SS V-A); backward runs Update-then-Aggregation and cannot fuse — which
// is why the paper's GIN speedups are larger forward than backward.
#pragma once

#include "gnn/gcn.h"

namespace hcspmm {

/// \brief Multi-layer GIN with full forward/backward and SGD.
///
/// Like GcnModel, it reads `graph->features` in place (they must not change
/// while the model lives) and keeps its activations, gradients and GEMM
/// outputs across epochs.
class GinModel {
 public:
  /// The bound sparse operator must be GinOperator(graph->adjacency);
  /// `graph` and `backend` (a Session or ShardedSession) must outlive the
  /// model.
  GinModel(const Graph* graph, const GnnConfig& config, SpmmBackend* backend);

  /// Forward pass into `logits` (reused when already shaped); keeps the
  /// activations Backward reads.
  void Forward(PhaseBreakdown* times, DenseMatrix* logits);
  /// Forward into a fresh logits matrix, returned.
  DenseMatrix Forward(PhaseBreakdown* times);
  /// Backward pass from d(loss)/d(logits) of the last Forward, with SGD.
  void Backward(const DenseMatrix& grad_logits, PhaseBreakdown* times);
  EpochResult TrainEpoch();

  /// Bytes of X_l, Z_l, H_l and ReLU(H_l) of every layer, computed from the
  /// shapes (Table XII common part); 0 before the first Forward.
  int64_t ActivationBytes() const;
  int64_t ParameterBytes() const;

 private:
  const Graph* graph_;
  GnnConfig config_;
  SpmmBackend* backend_;
  std::vector<DenseMatrix> w1_, w2_;  // per-layer MLP weights
  bool has_forward_ = false;
  // Buffers kept across epochs; every op overwrites its output in place.
  std::vector<DenseMatrix> z_;        // per layer: Z_l = Ahat X_l
  std::vector<DenseMatrix> h_pre_;    // per layer: H_l = Z_l W1 (pre-ReLU)
  std::vector<DenseMatrix> h_act_;    // per layer: ReLU(H_l)
  DenseMatrix x_;                     // X_{l+1} of a hidden layer
  DenseMatrix d_h_;                   // dAct_l, then dH_l in place
  std::vector<DenseMatrix> d_z_;      // per layer: dZ_l = dH_l W1^T (dZ_0 unread)
  std::vector<DenseMatrix> d_x_;      // per layer l > 0: dX_l = Ahat dZ_l
  std::vector<DenseMatrix> d_w1_, d_w2_;
  DenseMatrix logits_, grad_logits_;  // TrainEpoch's
};

}  // namespace hcspmm
