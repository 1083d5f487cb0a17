// FedRep (Collins et al., ICML 2021): a single global representation
// (Encoder) plus many local heads. Each local update first fits the local
// head on the frozen shared representation, then updates the representation
// with the head frozen; only the representation is federated.
#pragma once

#include "algos/client_store.h"
#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class FedRep : public fl::Algorithm {
 public:
  explicit FedRep(const fl::FlConfig& config) : fl::Algorithm(config) {}

  std::string name() const override { return "FedRep"; }

  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

 private:
  ClientStore<nn::ModelState> heads_;
};

}  // namespace calibre::algos
