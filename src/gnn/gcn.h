// GCN (Kipf & Welling) with simulated-time accounting. Each layer computes
// X_{l+1} = ReLU(Abar (X_l W_l)): Update (GEMM) first, then Aggregation
// (SpMM) — so in *backward* propagation the Update directly follows the
// Aggregation and the two kernels fuse (SS V-A).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gnn/optimizers.h"
#include "graph/graph.h"
#include "runtime/spmm_backend.h"

namespace hcspmm {

/// Per-phase simulated time breakdown of a forward or backward pass.
struct PhaseBreakdown {
  double agg_ns = 0.0;          ///< Aggregation (SpMM) kernel time
  double update_ns = 0.0;       ///< Update (GEMM) kernel time
  double elementwise_ns = 0.0;  ///< activations and their gradients
  double launch_ns = 0.0;       ///< kernel launch overheads

  double TotalNs() const { return agg_ns + update_ns + elementwise_ns + launch_ns; }
  double TotalMs() const { return TotalNs() / 1e6; }
  void Add(const PhaseBreakdown& o) {
    agg_ns += o.agg_ns;
    update_ns += o.update_ns;
    elementwise_ns += o.elementwise_ns;
    launch_ns += o.launch_ns;
  }
};

/// Shared GNN hyperparameters.
struct GnnConfig {
  int32_t hidden_dim = 16;
  int32_t num_layers = 2;
  double learning_rate = 0.05;
  bool fuse_kernels = true;  ///< SS V-A kernel fusion
  uint64_t seed = 1;
  /// Update rule (GCN honors all three; GIN uses SGD).
  OptimizerKind optimizer = OptimizerKind::kSgd;
  /// Inverted dropout rate applied after each hidden ReLU (0 disables).
  double dropout = 0.0;
  /// Submit each backward aggregation that has a weight-gradient GEMM to
  /// overlap (all but the output layer's, whose result the next GEMM needs
  /// at once) through SpmmBackend::MultiplyAsync, so it runs while that GEMM
  /// runs on the caller thread. Off, it runs synchronously into a reused
  /// buffer. fp32 results and metered profiles are bit-identical either way;
  /// only wall-clock changes.
  bool async_pipeline = true;
  /// Row-disjoint shards of the sparse operator (TrainGnn opens a
  /// ShardedSession when > 1). Default 1 is the single-Session path; fp32
  /// results are bit-identical for every shard count.
  int num_shards = 1;
  /// Store the operator's column indices delta/byte-packed and decode them
  /// in the SIMD SpMM kernels (SessionOptions::set_compress_indices).
  /// Lossless — training results are bit-identical; only bytes/nnz drops.
  bool compress_indices = false;
};

/// Loss and per-phase timing of one training epoch.
struct EpochResult {
  double loss = 0.0;
  double accuracy = 0.0;
  PhaseBreakdown forward;
  PhaseBreakdown backward;
  double EpochMs() const { return forward.TotalMs() + backward.TotalMs(); }
};

/// \brief Multi-layer GCN with full forward/backward and SGD.
///
/// The model reads `graph->features` in place and keeps its activations,
/// gradients and GEMM outputs across epochs: after the first epoch, the only
/// fresh matrices of a TrainEpoch are its MultiplyAsync results.
/// The first Backward also caches the features' transpose (as many bytes as
/// the features) for the first layer's weight gradient. `graph->features`
/// must therefore not change while the model lives.
class GcnModel {
 public:
  /// `graph` and `backend` (a Session or ShardedSession) must outlive the
  /// model; the bound sparse operator must be GcnNormalized(graph->adjacency).
  GcnModel(const Graph* graph, const GnnConfig& config, SpmmBackend* backend);

  /// Forward pass; keeps the activations Backward reads. Writes the logits
  /// into `logits`, reused when already num_vertices x num_classes.
  void Forward(PhaseBreakdown* times, DenseMatrix* logits);
  /// Forward into a fresh logits matrix, returned.
  DenseMatrix Forward(PhaseBreakdown* times);

  /// Backward pass from d(loss)/d(logits) of the last Forward; fills the
  /// gradients and applies the optimizer step.
  void Backward(const DenseMatrix& grad_logits, PhaseBreakdown* times);

  /// One full epoch (forward + loss + backward + SGD).
  EpochResult TrainEpoch();

  const std::vector<DenseMatrix>& weights() const { return weights_; }
  std::vector<DenseMatrix>& mutable_weights() { return weights_; }
  const GnnConfig& config() const { return config_; }

  /// Bytes of the activations a Forward caches, X_l and Z_l of every layer
  /// (Table XII common part). Computed from the shapes, as if each were its
  /// own buffer; 0 before the first Forward.
  int64_t ActivationBytes() const;
  /// Bytes of the weights plus same-shaped gradients.
  int64_t ParameterBytes() const;

 private:
  const Graph* graph_;
  GnnConfig config_;
  SpmmBackend* backend_;
  std::vector<DenseMatrix> weights_;
  std::unique_ptr<Optimizer> optimizer_;
  Pcg32 dropout_rng_{0xd509};
  bool has_forward_ = false;
  // Buffers kept across epochs; every op overwrites its output in place.
  DenseMatrix features_t_;                 // X_0^T, built by the first Backward
  std::vector<DenseMatrix> u_;             // per layer: U_l = X_l W_l, then dU_l
  std::vector<DenseMatrix> z_;             // per hidden layer: Z_l, pre-ReLU
  std::vector<DenseMatrix> act_;           // per hidden layer: X_{l+1}
  std::vector<DenseMatrix> dropout_mask_;  // per hidden layer (if enabled)
  DenseMatrix d_x_;                        // dX_l, then dZ_{l-1} in place
  std::vector<DenseMatrix> weight_grads_;  // per layer: dW_l
  DenseMatrix logits_, grad_logits_;       // TrainEpoch's
};

/// Glorot-style random weight matrix.
DenseMatrix GlorotInit(int32_t in_dim, int32_t out_dim, Pcg32* rng);

}  // namespace hcspmm
