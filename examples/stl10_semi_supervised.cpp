// Semi-supervised federation on the STL-10-like dataset (paper §V-B).
//
// Scenario: edge devices hold mostly *unlabeled* data (sensor captures,
// unannotated photos) plus a small labeled subset. Supervised FL can only
// use the labels; SSL-based methods train the encoder on everything. This
// example quantifies that advantage: Calibre (SimCLR) and pFL-SimCLR consume
// each client's unlabeled pool, FedAvg-FT and FedBABU cannot.
#include <iostream>

#include "algos/registry.h"
#include "common/env.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fed_data.h"
#include "fl/runner.h"
#include "metrics/report.h"

using namespace calibre;

int main() {
  data::SyntheticConfig dataset_config = data::stl10_like();
  dataset_config.train_samples = 2000;      // few labels...
  dataset_config.unlabeled_samples = 8000;  // ...lots of unlabeled samples
  dataset_config.test_samples = 3000;
  const data::SyntheticDataset synth = data::make_synthetic(dataset_config);

  const int train_clients = env::get_int("CALIBRE_TRAIN_CLIENTS", 20);
  data::PartitionConfig partition_config;
  partition_config.num_clients = train_clients;
  partition_config.samples_per_client = 60;  // small labeled shards
  partition_config.test_samples_per_client = 80;
  rng::Generator partition_gen(31);
  const data::Partition partition = data::partition_quantity(
      synth.train, synth.test, partition_config, 2, partition_gen);
  rng::Generator fed_gen(32);
  const fl::FedDataset fed =
      fl::build_fed_dataset(synth, partition, train_clients, fed_gen);

  std::cout << "Each client: 60 labeled samples + "
            << fed.client_ssl_pool(0).rows() - 60
            << " unlabeled samples (SSL-only pool)\n";

  fl::FlConfig config;
  config.encoder.input_dim = synth.train.input_dim();
  config.num_classes = synth.train.num_classes;
  config.rounds = env::get_int("CALIBRE_ROUNDS", 30);
  config.clients_per_round = 5;
  config.num_train_clients = train_clients;

  std::vector<metrics::ResultRow> rows;
  for (const std::string& name :
       {std::string("Calibre (SimCLR)"), std::string("pFL-SimCLR"),
        std::string("FedAvg-FT"), std::string("FedBABU")}) {
    const auto algorithm = algos::make_algorithm(name, config);
    const fl::RunResult result = fl::run_federated(*algorithm, fed, false);
    rows.push_back([&] {
      metrics::ResultRow row;
      row.method = name;
      row.stats = metrics::compute_stats(result.train_accuracies);
      row.note = name.find("F") == 0 ? "labels only" : "labels + unlabeled";
      return row;
    }());
    std::cout << name << " done\n";
  }
  metrics::print_result_table(
      std::cout, "STL-10-like: value of unlabeled data under label scarcity",
      rows);
  std::cout << "Expected shape: the SSL rows dominate when labels are "
               "scarce but unlabeled data is plentiful (paper Fig. 3, "
               "STL-10 row).\n";
  return 0;
}
