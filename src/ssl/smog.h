// SMoG (Pang et al., ECCV 2022) — synchronous momentum grouping.
//
// Group centers live outside the gradient path and are moved by momentum
// toward the features a frozen EMA branch assigns to them; the online branch
// is trained with cross entropy to predict its sample's group. This is the
// instance-group-contrast structure of the original paper at MLP scale
// (the original's second instance-level term is carried by the temperature
// cross-entropy against the momentum assignment; see DESIGN.md §2).
#pragma once

#include "ssl/method.h"

namespace calibre::ssl {

class Smog : public SslMethod {
 public:
  Smog(const nn::EncoderConfig& encoder_config, const SslConfig& config,
       std::uint64_t seed);

  std::string name() const override { return "SMoG"; }
  Kind kind() const override { return Kind::kSmog; }

  SslForward forward(const tensor::Tensor& view1,
                     const tensor::Tensor& view2) override;

  // EMA update of the momentum branch and the group centers.
  void after_step() override;

  const tensor::Tensor& groups() const { return groups_; }

  // The momentum encoder and projector.
  MomentumBranch* momentum_branch() override { return &momentum_; }

 protected:
  // The group centers.
  std::vector<tensor::Tensor*> private_tensors() override;
  // No pending features or assignments.
  void reset_private_counters() override;

 private:
  MomentumBranch momentum_;  // drawn before the groups
  tensor::Tensor groups_;  // [num_prototypes, proj_dim], unit rows
  tensor::Tensor pending_features_;
  std::vector<int> pending_assignments_;
};

}  // namespace calibre::ssl
