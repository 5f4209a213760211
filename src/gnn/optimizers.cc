#include "gnn/optimizers.h"

#include <cmath>

#include "gnn/dense_ops.h"
#include "util/logging.h"
#include "util/simd.h"

namespace hcspmm {

int32_t Optimizer::AddParameter(DenseMatrix* param) {
  HCSPMM_CHECK(param != nullptr);
  params_.push_back(param);
  m_.emplace_back(param->rows(), param->cols());
  v_.emplace_back(param->rows(), param->cols());
  return static_cast<int32_t>(params_.size()) - 1;
}

void Optimizer::Step(const std::vector<const DenseMatrix*>& grads) {
  HCSPMM_CHECK(grads.size() == params_.size()) << "gradient count mismatch";
  ++t_;
  const double lr = config_.learning_rate;
  for (size_t i = 0; i < params_.size(); ++i) {
    DenseMatrix& w = *params_[i];
    const DenseMatrix& g = *grads[i];
    HCSPMM_CHECK(w.rows() == g.rows() && w.cols() == g.cols()) << "shape mismatch";
    auto& wd = w.mutable_data();
    const auto& gd = g.data();
    const int64_t n = static_cast<int64_t>(wd.size());
    // The double-precision update arithmetic lives in the SIMD layer
    // (util/simd.h); lanes span independent parameters, so results are
    // bit-identical to the historical scalar loops at every SimdLevel.
    switch (config_.kind) {
      case OptimizerKind::kSgd:
        simd::Active().sgd_decay(wd.data(), gd.data(), n, lr,
                                 config_.weight_decay);
        break;
      case OptimizerKind::kMomentum:
        simd::Active().momentum(wd.data(), gd.data(), m_[i].mutable_data().data(),
                                n, lr, config_.momentum, config_.weight_decay);
        break;
      case OptimizerKind::kAdam: {
        const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
        const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
        simd::Active().adam(wd.data(), gd.data(), m_[i].mutable_data().data(),
                            v_[i].mutable_data().data(), n, lr, config_.beta1,
                            config_.beta2, config_.epsilon, config_.weight_decay,
                            bc1, bc2);
        break;
      }
    }
  }
}

void DropoutForward(DenseMatrix* activations, double rate, Pcg32* rng,
                    DenseMatrix* mask) {
  PrepareDenseOutput(activations->rows(), activations->cols(), mask);
  if (rate <= 0.0) {
    mask->Fill(1.0f);
    return;
  }
  HCSPMM_CHECK(rate < 1.0) << "dropout rate must be < 1";
  const float scale = static_cast<float>(1.0 / (1.0 - rate));
  auto& data = activations->mutable_data();
  auto& md = mask->mutable_data();
  for (size_t i = 0; i < data.size(); ++i) {
    if (rng->NextDouble() < rate) {
      md[i] = 0.0f;
      data[i] = 0.0f;
    } else {
      md[i] = 1.0f;
      data[i] *= scale;
    }
  }
}

DenseMatrix DropoutForward(DenseMatrix* activations, double rate, Pcg32* rng) {
  DenseMatrix mask;
  DropoutForward(activations, rate, rng, &mask);
  return mask;
}

void DropoutBackward(DenseMatrix* grad, const DenseMatrix& mask, double rate) {
  if (rate <= 0.0) return;
  const float scale = static_cast<float>(1.0 / (1.0 - rate));
  auto& gd = grad->mutable_data();
  const auto& md = mask.data();
  HCSPMM_CHECK(gd.size() == md.size());
  for (size_t i = 0; i < gd.size(); ++i) gd[i] *= md[i] * scale;
}

}  // namespace hcspmm
