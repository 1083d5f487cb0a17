// pFL-SSL: the paper's two-stage personalized-FL-with-SSL framework
// (§III-B). The training stage federates an SSL method's shared parameters
// with plain FedAvg; the personalization stage trains a linear probe per
// client on frozen encoder features. Instantiating it with different SSL
// methods yields pFL-SimCLR, pFL-BYOL, pFL-SimSiam, pFL-MoCoV2, pFL-SwAV and
// pFL-SMoG. Calibre derives from this class and overrides the loss and the
// aggregation rule.
//
// Personalization shares one encode per sweep when it can (DESIGN.md
// §7.3): the clients of one fl::PersonalizationSweep share one frozen
// encoder, so when the features of every distinct row the sweep reads fit
// resolve_threads(config) x |state| floats, those rows are encoded once into
// one table, by the device threads that reach it first, and every client
// gathers its rows from it. Otherwise, and for a call without a sweep, each
// client encodes its own rows. Both encode 64 rows at a time.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
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
  ~PflSsl() override;

  std::string name() const override;
  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

  // Encoder features of `inputs` under the given global state (used by the
  // representation-quality benches).
  tensor::Tensor extract_features(const nn::ModelState& global,
                                  const tensor::Tensor& inputs) const;

  // Built methods waiting on the free list (see lease_method()).
  std::size_t idle_methods() const;

  // Floats of encoder features the personalization tables hold now, and
  // the most they have held at once since construction (0 while no sweep
  // has fit its budget).
  std::size_t live_table_floats() const;
  std::size_t peak_table_floats() const;

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
  // its shared parameters and momentum branch hold whatever the last
  // borrower left, so every caller applies a global state first, and
  // local_update syncs the branch to it.
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

  // Hook: false when personalize() will be given a state of the client's
  // own rather than the sweep's global state (FedEMA's merged local model);
  // the sweep's table leaves that client's rows out, also when it decides
  // whether the sweep fits its budget. Asked once per sweep and client (by
  // each thread that finds the sweep's table missing), before any of the
  // sweep's clients is personalized.
  virtual bool personalizes_on_global(int client_id) const;

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

  // The feature table of one sweep (defined in pfl_ssl.cc).
  struct SweepTable;

  // Fills `train`/`test` with the position's features from the sweep's
  // table, encoding the table's unclaimed slices first, and returns true.
  // Returns false when the sweep is not tabled or the client personalizes
  // on a state of its own; the caller then encodes the client's rows.
  bool sweep_features(const nn::ModelState& global,
                      const fl::PersonalizationSweep& sweep, int position,
                      const fl::PersonalizationContext& ctx,
                      tensor::Tensor& train, tensor::Tensor& test);
  // A fresh table for `sweep`: the distinct rows its positions on the
  // global state read, without features (the first caller decides those).
  std::unique_ptr<SweepTable> build_table(
      const fl::PersonalizationSweep& sweep) const;

  mutable std::mutex methods_mutex_;
  mutable std::vector<std::unique_ptr<ssl::SslMethod>> free_methods_;
  mutable std::optional<InitialValues> initial_;

  // Live sweep tables by sweep id, and their feature floats; a table goes
  // when its sweep's last position is released.
  mutable std::mutex tables_mutex_;
  std::condition_variable encoded_cv_;  // a table's last slice is done, or
                                        // a slice's encode failed
  std::map<std::uint64_t, std::unique_ptr<SweepTable>> tables_;
  std::size_t live_table_floats_ = 0;
  std::size_t peak_table_floats_ = 0;
};

}  // namespace calibre::core
