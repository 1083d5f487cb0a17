// Shared experiment harness for the paper-reproduction benches.
//
// Every bench binary regenerates one of the paper's tables or figures: it
// builds the federated dataset for a (dataset, non-IID setting) pair, runs a
// list of algorithms through fl::run_federated, and prints the same
// rows/series the paper reports, next to the paper's reference numbers where
// available.
//
// Scale knobs (environment variables; defaults chosen so the full suite runs
// on a laptop in minutes — the paper's own scale is 100 clients x 200
// rounds):
//   CALIBRE_TRAIN_CLIENTS   participating clients        (default 20)
//   CALIBRE_NOVEL_CLIENTS   held-out novel clients       (default 10)
//   CALIBRE_ROUNDS          federated rounds             (default 40)
//   CALIBRE_CLIENTS_PER_ROUND  sampled clients per round (default 5)
//   CALIBRE_SAMPLES         train samples per client     (default 100)
//   CALIBRE_TEST_SAMPLES    test samples per client      (default 100)
//   CALIBRE_LOCAL_EPOCHS    local epochs per round       (default 3)
//   CALIBRE_THREADS         device worker threads        (default: cores)
//   CALIBRE_FAST=1          tiny smoke-scale run (CI)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "algos/registry.h"
#include "common/flags.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fed_data.h"
#include "fl/runner.h"
#include "metrics/report.h"

namespace calibre::bench {

// Reads a bench binary's flags: `read` queries `args` and fills the
// binary's options. Returns false, after printing why, when a value is
// missing or does not parse (the parser names the flag) or when `args`
// holds a flag that `read` never asked for or a positional argument; the
// binary then exits 1.
bool read_flags(const flags::Parser& args, const std::function<void()>& read);

// One (dataset, partition) experimental setting.
struct Setting {
  std::string dataset;        // "cifar10" | "cifar100" | "stl10"
  std::string partition;      // "quantity" | "dirichlet"
  int classes_per_client = 2; // S for quantity-based non-IID
  double dirichlet_alpha = 0.3;

  std::string label() const;
};

// Experiment scale resolved from the environment.
struct Scale {
  int train_clients = 20;
  int novel_clients = 10;
  int rounds = 40;
  int clients_per_round = 5;
  int samples_per_client = 100;
  int test_samples_per_client = 100;
  int local_epochs = 3;
  std::uint64_t seed = 42;
};
Scale resolve_scale();

// Builds the synthetic dataset + federated view for a setting.
struct Workbench {
  data::SyntheticDataset synth;
  fl::FedDataset fed;
  fl::FlConfig config;  // fully populated for this setting/scale
};
Workbench build_workbench(const Setting& setting, const Scale& scale);

// Runs one named algorithm (see algos::make_algorithm) on the workbench.
// Script-* algorithms are run with rounds = 0 automatically.
fl::RunResult run_algorithm(const std::string& name, const Workbench& bench,
                            bool personalize_novel = false);

// Runs a pre-built algorithm instance.
fl::RunResult run_algorithm(fl::Algorithm& algorithm, const Workbench& bench,
                            bool personalize_novel = false);

// Convenience: ResultRow from a run (participating-client stats).
metrics::ResultRow to_row(const fl::RunResult& result, double paper_mean = -1,
                          double paper_std = -1, const std::string& note = "");

// Representation-quality measurement for a trained SSL/Calibre state (used
// by the t-SNE figure benches): silhouette/purity/NMI on pooled client
// features, plus a t-SNE embedding exported to CSV under out_dir (pass ""
// to skip the export).
metrics::RepresentationQuality measure_representation(
    const std::string& method_name, const tensor::Tensor& features,
    const std::vector<int>& labels, const std::vector<int>& client_ids,
    const std::string& out_dir);

// Encoder features of `x` for a *supervised* algorithm's final global state
// (handles each algorithm's state layout: full model, encoder-only, or
// SCAFFOLD's [model | control] packing). Not for LG-FedAvg, whose encoders
// are per-client (use its client store directly).
tensor::Tensor supervised_features(const std::string& name,
                                   const nn::ModelState& state,
                                   const fl::FlConfig& config,
                                   const tensor::Tensor& x);

// Pools raw inputs + labels + client ids from the first `num_clients` client
// test shards (capped at `per_client` samples each).
struct PooledSamples {
  tensor::Tensor x;
  std::vector<int> labels;
  std::vector<int> client_ids;
};
PooledSamples pool_client_samples(const fl::FedDataset& fed, int num_clients,
                                  int per_client);

}  // namespace calibre::bench
