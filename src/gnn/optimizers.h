// Optimizers and regularization for the GNN training pipeline beyond plain
// SGD: momentum SGD, Adam, and dropout. These are the standard training
// components the paper's PyTorch integration inherits for free; we provide
// them so the C++ pipeline trains comparably.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/dense.h"
#include "util/random.h"

namespace hcspmm {

/// Which update rule a trainer uses.
enum class OptimizerKind { kSgd, kMomentum, kAdam };

/// Hyperparameters shared by all rules (unused fields ignored).
struct OptimizerConfig {
  OptimizerKind kind = OptimizerKind::kSgd;
  double learning_rate = 0.05;
  double momentum = 0.9;       // kMomentum
  double beta1 = 0.9;          // kAdam
  double beta2 = 0.999;        // kAdam
  double epsilon = 1e-8;       // kAdam
  double weight_decay = 0.0;   // L2, all rules
};

/// \brief Stateful optimizer over a fixed set of parameter matrices.
///
/// Register every parameter once (stable order), then call Step with the
/// matching gradients each iteration.
class Optimizer {
 public:
  explicit Optimizer(const OptimizerConfig& config) : config_(config) {}

  /// Register a parameter; returns its slot id.
  int32_t AddParameter(DenseMatrix* param);

  /// Apply one update to every registered parameter. `grads` must be
  /// ordered by slot id and shape-match the parameters.
  void Step(const std::vector<const DenseMatrix*>& grads);

  const OptimizerConfig& config() const { return config_; }
  int64_t step_count() const { return t_; }

 private:
  OptimizerConfig config_;
  std::vector<DenseMatrix*> params_;
  std::vector<DenseMatrix> m_;  // first moment / momentum buffer
  std::vector<DenseMatrix> v_;  // second moment (Adam)
  int64_t t_ = 0;
};

/// Inverted dropout: zeroes each entry with probability `rate` and scales
/// survivors by 1/(1-rate). Writes the mask (1/0) into `mask`, reused when
/// already activations-shaped, so the backward pass can apply the same
/// pattern. No-op (all-ones mask) when rate <= 0.
void DropoutForward(DenseMatrix* activations, double rate, Pcg32* rng,
                    DenseMatrix* mask);
/// DropoutForward into a fresh mask, returned.
DenseMatrix DropoutForward(DenseMatrix* activations, double rate, Pcg32* rng);

/// grad *= mask / (1 - rate) — the matching backward.
void DropoutBackward(DenseMatrix* grad, const DenseMatrix& mask, double rate);

}  // namespace hcspmm
