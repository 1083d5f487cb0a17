// Common interface for self-supervised learning methods.
//
// Every method owns an encoder (the federated global model) plus its own
// auxiliary networks (projection/prediction heads, momentum targets, queues,
// prototypes). forward() builds the SSL loss graph for a pair of augmented
// views and also exposes the intermediate encodings/projections, which
// Calibre's prototype regularizers consume (paper Algorithm 1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/networks.h"
#include "nn/state.h"

namespace calibre::ssl {

class MomentumBranch;

enum class Kind { kSimClr, kByol, kSimSiam, kMoCoV2, kSwav, kSmog };

// Human-readable method name ("SimCLR", ...).
std::string kind_name(Kind kind);

struct SslConfig {
  std::int64_t proj_hidden = 96;
  std::int64_t proj_dim = 32;
  float temperature = 0.5f;       // NT-Xent / InfoNCE temperature
  float ema_momentum = 0.99f;     // BYOL / MoCo / SMoG target momentum
  int moco_queue_size = 512;
  int num_prototypes = 30;        // SwAV / SMoG prototype count
  float swav_temperature = 0.1f;
  float sinkhorn_epsilon = 0.25f;
  int sinkhorn_iters = 3;
};

// Outputs of one SSL forward pass over a two-view batch.
struct SslForward {
  ag::VarPtr loss;  // scalar l_s
  ag::VarPtr z1;    // encoder features, view 1  [N, feature_dim]
  ag::VarPtr z2;    // encoder features, view 2  [N, feature_dim]
  ag::VarPtr h1;    // projections, view 1       [N, proj_dim]
  ag::VarPtr h2;    // projections, view 2       [N, proj_dim]
};

class SslMethod {
 public:
  SslMethod(const nn::EncoderConfig& encoder_config, const SslConfig& config,
            std::uint64_t seed);
  virtual ~SslMethod() = default;

  SslMethod(const SslMethod&) = delete;
  SslMethod& operator=(const SslMethod&) = delete;

  virtual std::string name() const = 0;
  virtual Kind kind() const = 0;

  // Builds the loss graph for one two-view batch.
  virtual SslForward forward(const tensor::Tensor& view1,
                             const tensor::Tensor& view2) = 0;

  // Hook invoked after every optimizer step (EMA targets, queues, prototype
  // re-normalisation). Default: nothing.
  virtual void after_step() {}

  // Parameters the optimizer updates. Default: encoder + projector.
  virtual std::vector<ag::VarPtr> trainable_parameters() const;

  // Parameters exchanged with the FL server. Default: encoder + projector
  // (the paper federates the "Encoder"; the projection head must travel with
  // it for SSL training to continue across rounds).
  virtual std::vector<ag::VarPtr> shared_parameters() const;

  nn::MlpEncoder& encoder() { return *encoder_; }
  const nn::MlpEncoder& encoder() const { return *encoder_; }

  const SslConfig& config() const { return config_; }

  // Encoder features for a raw (un-augmented) batch, as plain values.
  tensor::Tensor encode(const tensor::Tensor& batch);

  // The momentum branch (BYOL's target, MoCo's key network, SMoG's
  // momentum branch), or null for a method without one.
  virtual MomentumBranch* momentum_branch() { return nullptr; }

  // Restarts the momentum branch, if there is one, as a plain copy of the
  // online encoder and projector. A caller that loads a received global
  // state calls it next, so the branch starts each local update from that
  // state, as the online network does.
  void sync_momentum_branch();

  // Private state is every tensor or counter that training changes but
  // neither shared_parameters() nor the momentum branch covers: MoCo's
  // queue and cursor, SMoG's groups, and the per-step pending buffers. A
  // method that is reused across local updates (core::PflSsl) must get it
  // back to its constructed values before each use. save_private_state()
  // copies the private tensors; restore_private_state() writes such a copy
  // back and resets the counters and per-step buffers, which always start
  // at the same constants. Restoring a copy taken from a never-used
  // instance, then loading a state and syncing the branch, makes the method
  // bitwise a freshly built one that loaded the same state.
  using PrivateState = std::vector<tensor::Tensor>;
  PrivateState save_private_state();
  void restore_private_state(const PrivateState& state);

 protected:
  // The private tensors, in a fixed order. Default: none.
  virtual std::vector<tensor::Tensor*> private_tensors() { return {}; }
  // Resets the private counters and per-step buffers. Default: nothing.
  virtual void reset_private_counters() {}

  // Standard two-view encode/project shared by implementations.
  void encode_views(const tensor::Tensor& view1, const tensor::Tensor& view2,
                    SslForward& out);

  SslConfig config_;
  rng::Generator gen_;
  std::unique_ptr<nn::MlpEncoder> encoder_;
  std::unique_ptr<nn::ProjectionHead> projector_;
};

// Marks every parameter of `module` as non-differentiable. Used for
// momentum/target networks that are updated by EMA, never by gradients.
void freeze(const nn::Module& module);

// The momentum copy of an online encoder + projector: BYOL's target, MoCo's
// key network and SMoG's momentum branch. It is drawn from the owning
// method's generator at the point where the owner builds it (the draws are
// then overwritten, but they keep the owner's later draws in place), starts
// as a copy of the online pair, is frozen, and moves by EMA between
// copies (SslMethod::sync_momentum_branch).
class MomentumBranch {
 public:
  MomentumBranch(const nn::EncoderConfig& encoder_config,
                 const SslConfig& config, const nn::MlpEncoder& encoder,
                 const nn::ProjectionHead& projector, rng::Generator& gen);

  // Projection of `view` through the branch; no gradient reaches it.
  ag::VarPtr forward(const tensor::Tensor& view);

  // branch = m * branch + (1 - m) * online, parameter by parameter.
  void ema_from(const nn::MlpEncoder& encoder,
                const nn::ProjectionHead& projector, float m);

  // branch = online, a plain copy (EMA with m = 0 would flip the sign of a
  // -0 parameter).
  void copy_from(const nn::MlpEncoder& encoder,
                 const nn::ProjectionHead& projector);

  // The branch's parameters, encoder first.
  std::vector<ag::VarPtr> parameters() const;

 private:
  nn::MlpEncoder encoder_;
  nn::ProjectionHead projector_;
};

// Creates the requested method.
std::unique_ptr<SslMethod> make_method(Kind kind,
                                       const nn::EncoderConfig& encoder_config,
                                       const SslConfig& config,
                                       std::uint64_t seed);

}  // namespace calibre::ssl
