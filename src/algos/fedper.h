// FedPer (Arivazhagan et al., 2019): federate the base layers (Encoder);
// keep the personalization layers (Head) private to each client across
// rounds. Both parts train jointly during local updates.
#pragma once

#include "algos/client_store.h"
#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class FedPer : public fl::Algorithm {
 public:
  explicit FedPer(const fl::FlConfig& config) : fl::Algorithm(config) {}

  std::string name() const override { return "FedPer"; }

  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

 private:
  ClientStore<nn::ModelState> heads_;
};

}  // namespace calibre::algos
