#include "nn/optim.h"

#include <cmath>
#include <cstring>

#include "obs/profiler.h"
#include "util/check.h"
#include "util/io.h"

namespace bigcity::nn {

Optimizer::Optimizer(std::vector<Tensor> parameters)
    : parameters_(std::move(parameters)) {
  offsets_.reserve(parameters_.size() + 1);
  size_t total = 0;
  for (const auto& p : parameters_) {
    offsets_.push_back(total);
    total += p.data().size();
  }
  offsets_.push_back(total);
}

void Optimizer::ZeroGrad() {
  BIGCITY_PROFILE_OP("ZeroGrad");
  for (auto& p : parameters_) p.ZeroGrad();
}

float Optimizer::ClipGradNorm(float max_norm) {
  BIGCITY_PROFILE_OP("ClipGradNorm");
  double total = 0.0;
  for (auto& p : parameters_) {
    if (!p.requires_grad()) continue;
    for (float g : p.grad()) total += static_cast<double>(g) * g;
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (auto& p : parameters_) {
      if (!p.requires_grad()) continue;
      for (float& g : p.grad()) g *= scale;
    }
  }
  return norm;
}

Sgd::Sgd(std::vector<Tensor> parameters, float lr, float momentum)
    : Optimizer(std::move(parameters)), lr_(lr), momentum_(momentum) {
  if (momentum_ > 0.0f) velocity_.assign(total_numel(), 0.0f);
}

void Sgd::Step() {
  BIGCITY_PROFILE_OP("SgdStep");
  for (size_t pi = 0; pi < parameters_.size(); ++pi) {
    Tensor& p = parameters_[pi];
    if (!p.requires_grad()) continue;
    auto& data = p.data();
    auto& grad = p.grad();
    if (momentum_ > 0.0f) {
      float* vel = velocity_.data() + offset_of(pi);
      for (size_t i = 0; i < data.size(); ++i) {
        vel[i] = momentum_ * vel[i] + grad[i];
        data[i] -= lr_ * vel[i];
      }
    } else {
      for (size_t i = 0; i < data.size(); ++i) data[i] -= lr_ * grad[i];
    }
  }
}

Adam::Adam(std::vector<Tensor> parameters, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(parameters)), lr_(lr), beta1_(beta1),
      beta2_(beta2), eps_(eps), weight_decay_(weight_decay) {
  m_.assign(total_numel(), 0.0f);
  v_.assign(total_numel(), 0.0f);
}

void Adam::Step() {
  BIGCITY_PROFILE_OP("AdamStep");
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t pi = 0; pi < parameters_.size(); ++pi) {
    Tensor& p = parameters_[pi];
    if (!p.requires_grad()) continue;
    auto& data = p.data();
    auto& grad = p.grad();
    float* m = m_.data() + offset_of(pi);
    float* v = v_.data() + offset_of(pi);
    for (size_t i = 0; i < data.size(); ++i) {
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * grad[i];
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * grad[i] * grad[i];
      const float m_hat = m[i] / bias1;
      const float v_hat = v[i] / bias2;
      data[i] -= lr_ * (m_hat / (std::sqrt(v_hat) + eps_) +
                        weight_decay_ * data[i]);
    }
  }
}

void Adam::SaveState(std::ostream& out) const {
  util::WriteFloat(out, lr_);
  util::WriteU64(out, static_cast<uint64_t>(t_));
  util::WriteU64(out, parameters_.size());
  for (size_t pi = 0; pi < parameters_.size(); ++pi) {
    const Tensor& p = parameters_[pi];
    // Untouched slices (frozen parameter, or no step taken yet) serialize
    // as empty vectors — the format the map-based implementation wrote.
    const bool touched = t_ > 0 && p.requires_grad();
    const size_t count = touched ? p.data().size() : 0;
    util::WriteFloatSpan(out, m_.data() + offset_of(pi), count);
    util::WriteFloatSpan(out, v_.data() + offset_of(pi), count);
  }
}

util::Status Adam::LoadState(std::istream& in) {
  float lr = 0;
  uint64_t t = 0;
  uint64_t count = 0;
  if (auto s = util::ReadFloat(in, &lr); !s.ok()) return s;
  if (auto s = util::ReadU64(in, &t); !s.ok()) return s;
  if (auto s = util::ReadU64(in, &count); !s.ok()) return s;
  if (count != parameters_.size()) {
    return util::Status::InvalidArgument(
        "optimizer state parameter count mismatch");
  }
  std::vector<float> m(total_numel(), 0.0f);
  std::vector<float> v(total_numel(), 0.0f);
  for (size_t pi = 0; pi < parameters_.size(); ++pi) {
    const Tensor& p = parameters_[pi];
    std::vector<float> pm, pv;
    if (auto s = util::ReadFloatVector(in, &pm); !s.ok()) return s;
    if (auto s = util::ReadFloatVector(in, &pv); !s.ok()) return s;
    if ((!pm.empty() && pm.size() != p.data().size()) ||
        (!pv.empty() && pv.size() != p.data().size())) {
      return util::Status::InvalidArgument(
          "optimizer moment size mismatch with parameter");
    }
    if (!pm.empty()) {
      std::memcpy(m.data() + offset_of(pi), pm.data(),
                  pm.size() * sizeof(float));
    }
    if (!pv.empty()) {
      std::memcpy(v.data() + offset_of(pi), pv.data(),
                  pv.size() * sizeof(float));
    }
  }
  lr_ = lr;
  t_ = static_cast<int64_t>(t);
  m_ = std::move(m);
  v_ = std::move(v);
  return util::Status::Ok();
}

}  // namespace bigcity::nn
