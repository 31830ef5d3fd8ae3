#include "nn/optim.h"

#include <cmath>

#include "nn/packed.h"

namespace netfm::nn {

float clip_grad_norm(ParameterList& params, float max_norm) {
  double total_sq = 0.0;
  for (Parameter& p : params)
    for (float g : p.tensor.grad()) total_sq += static_cast<double>(g) * g;
  const float norm = static_cast<float>(std::sqrt(total_sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Parameter& p : params)
      for (float& g : p.tensor.grad()) g *= scale;
  }
  return norm;
}

void zero_grad(ParameterList& params) {
  for (Parameter& p : params) p.tensor.zero_grad();
}

void Sgd::step(ParameterList& params) {
  if (velocity_.size() != params.size()) {
    velocity_.clear();
    for (Parameter& p : params)
      velocity_.emplace_back(p.tensor.size(), 0.0f);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto data = params[i].tensor.data();
    auto grad = params[i].tensor.grad();
    auto& vel = velocity_[i];
    for (std::size_t j = 0; j < data.size(); ++j) {
      vel[j] = momentum_ * vel[j] + grad[j];
      data[j] -= lr_ * vel[j];
    }
  }
  bump_weight_epoch();  // packed weight panels are now stale
}

void Adam::step(ParameterList& params) {
  if (m_.size() != params.size()) {
    m_.clear();
    v_.clear();
    for (Parameter& p : params) {
      m_.emplace_back(p.tensor.size(), 0.0f);
      v_.emplace_back(p.tensor.size(), 0.0f);
    }
  }
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto data = params[i].tensor.data();
    auto grad = params[i].tensor.grad();
    auto& m = m_[i];
    auto& v = v_[i];
    for (std::size_t j = 0; j < data.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad[j] * grad[j];
      const float mhat = m[j] / bias1;
      const float vhat = v[j] / bias2;
      data[j] -= lr_ * (mhat / (std::sqrt(vhat) + eps_) +
                        weight_decay_ * data[j]);
    }
  }
  bump_weight_epoch();  // packed weight panels are now stale
}

float WarmupLinearSchedule::lr_at(std::int64_t step) const noexcept {
  if (total_ <= 0) return peak_lr_;
  if (warmup_ > 0 && step < warmup_)
    return peak_lr_ * static_cast<float>(step + 1) /
           static_cast<float>(warmup_);
  if (step >= total_) return 0.0f;
  return peak_lr_ * static_cast<float>(total_ - step) /
         static_cast<float>(std::max<std::int64_t>(1, total_ - warmup_));
}

}  // namespace netfm::nn
