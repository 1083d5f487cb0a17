// pFL-SSL: the paper's two-stage personalized-FL-with-SSL framework
// (§III-B). The training stage federates an SSL method's shared parameters
// with plain FedAvg; the personalization stage trains a linear probe per
// client on frozen encoder features. Instantiating it with different SSL
// methods yields pFL-SimCLR, pFL-BYOL, pFL-SimSiam, pFL-MoCoV2, pFL-SwAV and
// pFL-SMoG. Calibre derives from this class and overrides the loss and the
// aggregation rule.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "flapi/algorithm.h"
#include "ssl/method.h"

namespace calibre::core {

class PflSsl : public fl::Algorithm {
 public:
  PflSsl(const fl::FlConfig& config, ssl::Kind kind,
         const ssl::SslConfig& ssl_config = {});

  std::string name() const override;
  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

  ssl::Kind ssl_kind() const { return kind_; }

  // Encoder features of `inputs` under the given global state (used by the
  // representation-quality benches).
  tensor::Tensor extract_features(const nn::ModelState& global,
                                  const tensor::Tensor& inputs) const;

  // Built methods waiting on the free list (see lease_method()).
  std::size_t idle_methods() const;

 protected:
  // Per-local-update scratch shared between the hooks (thread-confined: one
  // instance per local_update call).
  struct LocalScratch {
    // Feature-space centroids of the client's local dataset; empty unless a
    // subclass fills them in prepare_local_update.
    tensor::Tensor fixed_centroids;
  };

  // A built method on loan from the free list. The destructor puts it back,
  // also when the call it served threw.
  class MethodLease {
   public:
    MethodLease(const PflSsl& owner, std::unique_ptr<ssl::SslMethod> method);
    ~MethodLease();
    MethodLease(const MethodLease&) = delete;
    MethodLease& operator=(const MethodLease&) = delete;

    ssl::SslMethod& operator*() const { return *method_; }
    ssl::SslMethod* operator->() const { return method_.get(); }

   private:
    const PflSsl& owner_;
    std::unique_ptr<ssl::SslMethod> method_;
  };

  // Lends a method from the free list, building one when the list is
  // empty, so the list never holds more methods than there were concurrent
  // callers. The method's private state equals a freshly built method's;
  // its shared parameters hold whatever the last borrower left, so every
  // caller applies a global state first.
  MethodLease lease_method() const;

  // Hook: called once per local update after the global state is loaded.
  virtual void prepare_local_update(ssl::SslMethod& method,
                                    const fl::ClientContext& ctx,
                                    rng::Generator& gen,
                                    LocalScratch& scratch);

  // Hook: total loss for one batch. Base: the SSL loss itself. Calibre adds
  // the prototype regularizers and records the batch divergence.
  virtual ag::VarPtr build_loss(ssl::SslMethod& method,
                                const ssl::SslForward& fwd,
                                rng::Generator& gen, LocalScratch& scratch);

  // Hook: last touch on the update before it is sent (Calibre attaches the
  // client's divergence rate here).
  virtual void finalize_update(ssl::SslMethod& method,
                               const fl::ClientContext& ctx,
                               rng::Generator& gen, fl::ClientUpdate& update);

  ssl::Kind kind_;
  ssl::SslConfig ssl_config_;

 private:
  // Builds the method with the experiment-wide seed, so every build has
  // identical shapes and identical initial values. Called only by
  // lease_method(), when the free list is empty.
  std::unique_ptr<ssl::SslMethod> build_method() const;

  // The first build's values, copied before its first use.
  struct InitialValues {
    nn::ModelState shared;  // the initial global state
    ssl::SslMethod::PrivateState private_state;
  };

  mutable std::mutex methods_mutex_;
  mutable std::vector<std::unique_ptr<ssl::SslMethod>> free_methods_;
  mutable std::optional<InitialValues> initial_;
};

}  // namespace calibre::core
