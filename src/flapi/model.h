// Encoder + Head pairing used by the supervised FL baselines.
//
// Mirrors the paper's model split: the "Encoder" (feature backbone, the
// federated global model) and the "Head" (linear classifier). Algorithms
// pick which of the two they federate.
#pragma once

#include <memory>

#include "data/dataset.h"
#include "flapi/config.h"
#include "nn/networks.h"
#include "nn/state.h"

namespace calibre::fl {

struct EncoderHeadModel {
  std::unique_ptr<nn::MlpEncoder> encoder;
  std::unique_ptr<nn::LinearClassifier> head;

  ag::VarPtr logits(const ag::VarPtr& x) {
    return head->forward(encoder->forward(x));
  }

  std::vector<ag::VarPtr> all_parameters() const {
    std::vector<ag::VarPtr> params;
    encoder->collect_parameters(params);
    head->collect_parameters(params);
    return params;
  }
  std::vector<ag::VarPtr> encoder_parameters() const {
    return encoder->parameters();
  }
  std::vector<ag::VarPtr> head_parameters() const {
    return head->parameters();
  }
};

// Builds a fresh model; `seed` controls initialisation.
EncoderHeadModel make_encoder_head(const FlConfig& config, std::uint64_t seed);

// The supervised batch step every baseline shares, short of the update:
// gathers the batch's labels, draws one generic pixel-space augmented view
// of its rows from `gen`, zeroes the gradients of `params` and
// back-propagates the cross entropy of the model's logits on that view.
// The caller steps an optimizer or reads the gradients. Returns the batch
// loss.
float supervised_backward(EncoderHeadModel& model,
                          const std::vector<ag::VarPtr>& params,
                          const data::Dataset& dataset,
                          const std::vector<int>& batch,
                          const FlConfig& config, rng::Generator& gen);

// One supervised local-training pass: `epochs` of shuffled batches, each a
// supervised_backward plus an SGD step. `params` selects which parameters
// the optimizer updates (freezing is expressed by passing a subset).
// Returns the mean training loss.
float train_supervised(EncoderHeadModel& model,
                       const std::vector<ag::VarPtr>& params,
                       const data::Dataset& dataset, const FlConfig& config,
                       int epochs, rng::Generator& gen);

// Top-1 accuracy of `model` on `dataset`.
double evaluate_accuracy(EncoderHeadModel& model, const data::Dataset& dataset);

// Personalization-style fine-tuning: trains `params` (e.g. just the head)
// with plain cross entropy on un-augmented local data using the probe
// schedule, then returns accuracy on `test`.
double finetune_and_eval(EncoderHeadModel& model,
                         const std::vector<ag::VarPtr>& params,
                         const data::Dataset& train, const data::Dataset& test,
                         const ProbeConfig& probe, std::uint64_t seed);

}  // namespace calibre::fl
