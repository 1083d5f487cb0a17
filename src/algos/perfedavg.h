// Per-FedAvg (Fallah et al., NeurIPS 2020), first-order variant: the global
// model is meta-trained so that one local adaptation step lands well.
// Each meta-iteration takes an inner SGD step on one batch and applies the
// gradient evaluated at the adapted point (on the next batch) to the
// original parameters (FO-MAML). Personalization = local adaptation.
#pragma once

#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class PerFedAvg : public fl::Algorithm {
 public:
  explicit PerFedAvg(const fl::FlConfig& config) : fl::Algorithm(config) {}

  std::string name() const override { return "PerFedAvg"; }

  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;
};

}  // namespace calibre::algos
