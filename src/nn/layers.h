// Basic differentiable layers: Linear, ReLU, LayerNorm.
#pragma once

#include <cstdint>

#include "nn/module.h"
#include "tensor/rng.h"

namespace calibre::nn {

// Affine map y = x W + b with W: [in, out], b: [1, out].
// Initialisation follows the Kaiming-uniform convention (U[-k, k],
// k = 1/sqrt(in)) used by the reference implementation's framework.
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features,
         rng::Generator& gen, bool bias = true);

  ag::VarPtr forward(const ag::VarPtr& x) override;
  void collect_parameters(std::vector<ag::VarPtr>& out) const override;

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  ag::VarPtr weight_;
  ag::VarPtr bias_;  // null when bias is disabled
};

// Elementwise max(x, 0).
class ReLU : public Module {
 public:
  ag::VarPtr forward(const ag::VarPtr& x) override { return ag::relu(x); }
  void collect_parameters(std::vector<ag::VarPtr>&) const override {}
};

// Per-row normalisation with learned gain/shift: the BatchNorm stand-in for
// this library (batch-size independent, so it behaves identically during
// federated local updates regardless of client batch composition).
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::int64_t features, float eps = 1e-5f);

  ag::VarPtr forward(const ag::VarPtr& x) override;
  void collect_parameters(std::vector<ag::VarPtr>& out) const override;

 private:
  std::int64_t features_;
  float eps_;
  ag::VarPtr gamma_;
  ag::VarPtr beta_;
};

}  // namespace calibre::nn
