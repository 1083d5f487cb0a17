// FedAvg (McMahan et al., AISTATS 2017) and FedAvg-FT.
//
// FedAvg federates the full model (encoder + head); each client evaluates
// the global model directly. FedAvg-FT additionally fine-tunes the Head on
// the local dataset before evaluating (paper §V "Benchmark approaches").
#pragma once

#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class FedAvg : public fl::Algorithm {
 public:
  FedAvg(const fl::FlConfig& config, bool finetune_head)
      : fl::Algorithm(config), finetune_head_(finetune_head) {}

  std::string name() const override {
    return finetune_head_ ? "FedAvg-FT" : "FedAvg";
  }

  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

 private:
  bool finetune_head_;
};

}  // namespace calibre::algos
