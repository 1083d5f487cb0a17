// Representation analysis workflow (paper Figs. 1/2/5-8).
//
// Trains pFL-SimCLR and Calibre (SimCLR) on a non-IID federation, extracts
// encoder features for pooled client samples, reports cluster-quality
// metrics, and exports 2-D t-SNE embeddings as CSV files that can be
// plotted with any tool (e.g. `python -c "import pandas, matplotlib..."`).
#include <iostream>

#include "algos/registry.h"
#include "cluster/kmeans.h"
#include "cluster/quality.h"
#include "common/env.h"
#include "core/pfl_ssl.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fed_data.h"
#include "fl/runner.h"
#include "metrics/report.h"
#include "metrics/tsne.h"

using namespace calibre;

int main() {
  data::SyntheticConfig dataset_config = data::cifar10_like();
  dataset_config.train_samples = 4000;
  dataset_config.test_samples = 2000;
  const data::SyntheticDataset synth = data::make_synthetic(dataset_config);

  const int train_clients = env::get_int("CALIBRE_TRAIN_CLIENTS", 15);
  data::PartitionConfig partition_config;
  partition_config.num_clients = train_clients;
  partition_config.samples_per_client = 100;
  partition_config.test_samples_per_client = 50;
  rng::Generator partition_gen(41);
  const data::Partition partition = data::partition_dirichlet(
      synth.train, synth.test, partition_config, 0.3, partition_gen);
  rng::Generator fed_gen(42);
  const fl::FedDataset fed =
      fl::build_fed_dataset(synth, partition, train_clients, fed_gen);

  fl::FlConfig config;
  config.encoder.input_dim = synth.train.input_dim();
  config.num_classes = synth.train.num_classes;
  config.rounds = env::get_int("CALIBRE_ROUNDS", 30);
  config.clients_per_round = 5;
  config.num_train_clients = train_clients;

  // Pool a few clients' test samples (with client ids for per-client color).
  std::vector<tensor::Tensor> parts;
  std::vector<int> labels;
  std::vector<int> clients;
  for (int c = 0; c < 6; ++c) {
    const data::Dataset shard = fed.test_shard(c);
    parts.push_back(shard.x);
    labels.insert(labels.end(), shard.labels.begin(), shard.labels.end());
    clients.insert(clients.end(), shard.labels.size(), c);
  }
  const tensor::Tensor pooled = tensor::concat_rows(parts);

  for (const std::string& name :
       {std::string("pFL-SimCLR"), std::string("Calibre (SimCLR)")}) {
    const auto algorithm = algos::make_algorithm(name, config);
    auto* pfl = dynamic_cast<core::PflSsl*>(algorithm.get());
    const fl::RunResult result = fl::run_federated(*algorithm, fed, false);
    const tensor::Tensor features =
        pfl->extract_features(result.final_state, pooled);

    // Quantitative boundary quality.
    const double silhouette = cluster::silhouette_score(features, labels);
    rng::Generator gen(43);
    cluster::KMeansConfig kmeans_config;
    kmeans_config.k = synth.train.num_classes;
    const auto clustering = cluster::kmeans(features, kmeans_config, gen);
    std::cout << name << ": silhouette " << silhouette << ", KMeans purity "
              << cluster::cluster_purity(clustering.assignments, labels)
              << "\n";

    // 2-D embedding export.
    const metrics::TsneResult embedding =
        metrics::tsne(features, metrics::TsneConfig{}, gen);
    std::string file = "embedding_" + name + ".csv";
    for (char& c : file) {
      if (c == ' ' || c == '(' || c == ')') c = '_';
    }
    metrics::write_embedding_csv(file, embedding.embedding, labels, clients);
    std::cout << "  wrote " << file << " (t-SNE KL " << embedding.final_kl
              << ")\n";
  }
  return 0;
}
