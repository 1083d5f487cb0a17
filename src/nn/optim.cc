#include "nn/optim.h"

#include "common/check.h"

namespace calibre::nn {

namespace {

// One parameter's whole update in one loop. The template flags lift the
// loop-invariant choices out of it; kFirst reads the buffer as zeros, so
// a buffer's first step computes 0·m + g exactly as a zero-filled buffer
// would (the product keeps the sign of zero and the NaN of an infinite m).
template <bool kDecay, bool kMomentum, bool kFirst>
void sgd_pass(float* value, const float* grad, float* momentum,
              std::size_t count, const SgdConfig& config) {
  const float lr = config.learning_rate;
  const float m = config.momentum;
  const float wd = config.weight_decay;
  for (std::size_t j = 0; j < count; ++j) {
    float g = grad[j];
    if constexpr (kDecay) g += wd * value[j];
    if constexpr (kMomentum) {
      g = (kFirst ? 0.0f : momentum[j]) * m + g;
      momentum[j] = g;
    }
    value[j] += -lr * g;
  }
}

template <bool kDecay>
void sgd_pass(float* value, const float* grad, float* momentum, bool first,
              std::size_t count, const SgdConfig& config) {
  if (momentum == nullptr) {
    sgd_pass<kDecay, false, false>(value, grad, nullptr, count, config);
  } else if (first) {
    sgd_pass<kDecay, true, true>(value, grad, momentum, count, config);
  } else {
    sgd_pass<kDecay, true, false>(value, grad, momentum, count, config);
  }
}

}  // namespace

Sgd::Sgd(std::vector<ag::VarPtr> params, const SgdConfig& config)
    : params_(std::move(params)),
      config_(config),
      momentum_buffers_(params_.size()) {}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    ag::VarPtr& p = params_[i];
    if (p->grad.size() == 0) continue;  // parameter unused in this graph
    CALIBRE_CHECK(p->grad.same_shape(p->value));
    float* momentum = nullptr;
    bool first = false;
    if (config_.momentum != 0.0f) {
      tensor::Tensor& buf = momentum_buffers_[i];
      first = buf.size() == 0;
      if (first) buf = tensor::Tensor::uninit(p->value.rows(), p->value.cols());
      momentum = buf.data();
    }
    const auto count = static_cast<std::size_t>(p->value.size());
    if (config_.weight_decay != 0.0f) {
      sgd_pass<true>(p->value.data(), p->grad.data(), momentum, first, count,
                     config_);
    } else {
      sgd_pass<false>(p->value.data(), p->grad.data(), momentum, first, count,
                      config_);
    }
  }
}

void Sgd::zero_grad() {
  for (const ag::VarPtr& p : params_) p->zero_grad();
}

void ema_update(const std::vector<ag::VarPtr>& target,
                const std::vector<ag::VarPtr>& online, float m) {
  CALIBRE_CHECK(target.size() == online.size());
  for (std::size_t i = 0; i < target.size(); ++i) {
    CALIBRE_CHECK(target[i]->value.same_shape(online[i]->value));
    target[i]->value.scale_(m);
    target[i]->value.axpy_(1.0f - m, online[i]->value);
  }
}

void copy_parameters(const std::vector<ag::VarPtr>& dst,
                     const std::vector<ag::VarPtr>& src) {
  CALIBRE_CHECK(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    CALIBRE_CHECK(dst[i]->value.same_shape(src[i]->value));
    dst[i]->value = src[i]->value;
  }
}

}  // namespace calibre::nn
