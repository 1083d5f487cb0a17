// Stochastic gradient descent with momentum and weight decay — the optimizer
// the paper uses for both the federated training stage and the 10-epoch
// personalization stage (lr = 0.05 there).
#pragma once

#include <vector>

#include "autograd/variable.h"

namespace calibre::nn {

struct SgdConfig {
  float learning_rate = 0.01f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
};

class Sgd {
 public:
  Sgd(std::vector<ag::VarPtr> params, const SgdConfig& config);

  // Applies one update using the gradients currently stored in the params,
  // in one pass per parameter with the roundings of the textbook five-pass
  // form: g = grad + wd·v (with weight decay), b = m·b + g (with momentum;
  // a buffer's first step computes 0·m + g), v += (−lr)·b. The gradient is
  // read in place.
  void step();

  // Clears parameter gradients (call before building the next graph).
  void zero_grad();

  void set_learning_rate(float lr) { config_.learning_rate = lr; }
  float learning_rate() const { return config_.learning_rate; }

  // Parameter i's momentum buffer: empty until its first step with a
  // gradient (and always without momentum).
  const tensor::Tensor& momentum_buffer(std::size_t i) const {
    return momentum_buffers_[i];
  }

 private:
  std::vector<ag::VarPtr> params_;
  SgdConfig config_;
  std::vector<tensor::Tensor> momentum_buffers_;
};

// In-place EMA: target = m * target + (1 - m) * online, parameter by
// parameter. Used by BYOL/MoCo momentum encoders and FedEMA merging.
void ema_update(const std::vector<ag::VarPtr>& target,
                const std::vector<ag::VarPtr>& online, float m);

// Copies parameter values from src into dst (shapes must match pairwise).
void copy_parameters(const std::vector<ag::VarPtr>& dst,
                     const std::vector<ag::VarPtr>& src);

}  // namespace calibre::nn
