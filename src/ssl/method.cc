#include "ssl/method.h"

#include "common/check.h"
#include "nn/optim.h"
#include "ssl/byol.h"
#include "ssl/mocov2.h"
#include "ssl/simclr.h"
#include "ssl/simsiam.h"
#include "ssl/smog.h"
#include "ssl/swav.h"

namespace calibre::ssl {

std::string kind_name(Kind kind) {
  switch (kind) {
    case Kind::kSimClr:
      return "SimCLR";
    case Kind::kByol:
      return "BYOL";
    case Kind::kSimSiam:
      return "SimSiam";
    case Kind::kMoCoV2:
      return "MoCoV2";
    case Kind::kSwav:
      return "SwAV";
    case Kind::kSmog:
      return "SMoG";
  }
  return "?";
}

SslMethod::SslMethod(const nn::EncoderConfig& encoder_config,
                     const SslConfig& config, std::uint64_t seed)
    : config_(config), gen_(seed) {
  encoder_ = std::make_unique<nn::MlpEncoder>(encoder_config, gen_);
  projector_ = std::make_unique<nn::ProjectionHead>(
      encoder_config.feature_dim, config.proj_hidden, config.proj_dim, gen_);
}

std::vector<ag::VarPtr> SslMethod::trainable_parameters() const {
  std::vector<ag::VarPtr> params;
  encoder_->collect_parameters(params);
  projector_->collect_parameters(params);
  return params;
}

std::vector<ag::VarPtr> SslMethod::shared_parameters() const {
  return trainable_parameters();
}

tensor::Tensor SslMethod::encode(const tensor::Tensor& batch) {
  // Inference-only forward: callers read ->value, never backward through it,
  // so skip the tape (no parents, no closures, activations freed eagerly).
  const ag::NoGradGuard no_grad;
  return encoder_->forward(ag::constant(batch))->value;
}

void SslMethod::sync_momentum_branch() {
  if (MomentumBranch* branch = momentum_branch()) {
    branch->copy_from(*encoder_, *projector_);
  }
}

SslMethod::PrivateState SslMethod::save_private_state() {
  PrivateState state;
  for (const tensor::Tensor* t : private_tensors()) state.push_back(*t);
  return state;
}

void SslMethod::restore_private_state(const PrivateState& state) {
  const std::vector<tensor::Tensor*> tensors = private_tensors();
  CALIBRE_CHECK_EQ(tensors.size(), state.size(), "private state size");
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    CALIBRE_CHECK(tensors[i]->same_shape(state[i]));
    *tensors[i] = state[i];
  }
  reset_private_counters();
}

void SslMethod::encode_views(const tensor::Tensor& view1,
                             const tensor::Tensor& view2, SslForward& out) {
  CALIBRE_CHECK(view1.rows() == view2.rows());
  out.z1 = encoder_->forward(ag::constant(view1));
  out.z2 = encoder_->forward(ag::constant(view2));
  out.h1 = projector_->forward(out.z1);
  out.h2 = projector_->forward(out.z2);
}

void freeze(const nn::Module& module) {
  for (const ag::VarPtr& p : module.parameters()) {
    p->requires_grad = false;
  }
}

MomentumBranch::MomentumBranch(const nn::EncoderConfig& encoder_config,
                               const SslConfig& config,
                               const nn::MlpEncoder& encoder,
                               const nn::ProjectionHead& projector,
                               rng::Generator& gen)
    : encoder_(encoder_config, gen),
      projector_(encoder_config.feature_dim, config.proj_hidden,
                 config.proj_dim, gen) {
  copy_from(encoder, projector);
  freeze(encoder_);
  freeze(projector_);
}

ag::VarPtr MomentumBranch::forward(const tensor::Tensor& view) {
  return projector_.forward(encoder_.forward(ag::constant(view)));
}

void MomentumBranch::ema_from(const nn::MlpEncoder& encoder,
                              const nn::ProjectionHead& projector, float m) {
  nn::ema_update(encoder_.parameters(), encoder.parameters(), m);
  nn::ema_update(projector_.parameters(), projector.parameters(), m);
}

void MomentumBranch::copy_from(const nn::MlpEncoder& encoder,
                               const nn::ProjectionHead& projector) {
  nn::copy_parameters(encoder_.parameters(), encoder.parameters());
  nn::copy_parameters(projector_.parameters(), projector.parameters());
}

std::vector<ag::VarPtr> MomentumBranch::parameters() const {
  std::vector<ag::VarPtr> params = encoder_.parameters();
  projector_.collect_parameters(params);
  return params;
}

std::unique_ptr<SslMethod> make_method(Kind kind,
                                       const nn::EncoderConfig& encoder_config,
                                       const SslConfig& config,
                                       std::uint64_t seed) {
  switch (kind) {
    case Kind::kSimClr:
      return std::make_unique<SimClr>(encoder_config, config, seed);
    case Kind::kByol:
      return std::make_unique<Byol>(encoder_config, config, seed);
    case Kind::kSimSiam:
      return std::make_unique<SimSiam>(encoder_config, config, seed);
    case Kind::kMoCoV2:
      return std::make_unique<MoCoV2>(encoder_config, config, seed);
    case Kind::kSwav:
      return std::make_unique<Swav>(encoder_config, config, seed);
    case Kind::kSmog:
      return std::make_unique<Smog>(encoder_config, config, seed);
  }
  CALIBRE_CHECK_MSG(false, "unknown SSL kind");
  return nullptr;
}

}  // namespace calibre::ssl
