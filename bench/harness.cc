#include "bench/harness.h"

#include <cstdio>

#include "cluster/kmeans.h"
#include "cluster/quality.h"
#include "common/check.h"
#include "common/env.h"
#include "flapi/model.h"
#include "metrics/tsne.h"

namespace calibre::bench {

std::string Setting::label() const {
  char buffer[128];
  if (partition == "quantity") {
    std::snprintf(buffer, sizeof(buffer), "%s Q-non-iid (S=%d)",
                  dataset.c_str(), classes_per_client);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%s D-non-iid (alpha=%.1f)",
                  dataset.c_str(), dirichlet_alpha);
  }
  return buffer;
}

Scale resolve_scale() {
  Scale scale;
  if (env::get_flag("CALIBRE_FAST")) {
    scale.train_clients = 6;
    scale.novel_clients = 3;
    scale.rounds = 4;
    scale.clients_per_round = 3;
    scale.samples_per_client = 48;
    scale.test_samples_per_client = 30;
    scale.local_epochs = 1;
  }
  scale.train_clients =
      env::get_int("CALIBRE_TRAIN_CLIENTS", scale.train_clients);
  scale.novel_clients =
      env::get_int("CALIBRE_NOVEL_CLIENTS", scale.novel_clients);
  scale.rounds = env::get_int("CALIBRE_ROUNDS", scale.rounds);
  scale.clients_per_round =
      env::get_int("CALIBRE_CLIENTS_PER_ROUND", scale.clients_per_round);
  scale.samples_per_client =
      env::get_int("CALIBRE_SAMPLES", scale.samples_per_client);
  scale.test_samples_per_client =
      env::get_int("CALIBRE_TEST_SAMPLES", scale.test_samples_per_client);
  scale.local_epochs = env::get_int("CALIBRE_LOCAL_EPOCHS", scale.local_epochs);
  scale.seed = static_cast<std::uint64_t>(env::get_int("CALIBRE_SEED", 42));
  return scale;
}

Workbench build_workbench(const Setting& setting, const Scale& scale) {
  Workbench bench;
  bench.synth = data::make_synthetic(data::preset_by_name(setting.dataset));

  data::PartitionConfig partition_config;
  partition_config.num_clients = scale.train_clients + scale.novel_clients;
  partition_config.samples_per_client = scale.samples_per_client;
  partition_config.test_samples_per_client = scale.test_samples_per_client;
  rng::Generator partition_gen(scale.seed ^ 0x9A87);
  data::Partition partition;
  if (setting.partition == "quantity") {
    partition = data::partition_quantity(
        bench.synth.train, bench.synth.test, partition_config,
        std::min(setting.classes_per_client, bench.synth.train.num_classes),
        partition_gen);
  } else {
    CALIBRE_CHECK_MSG(setting.partition == "dirichlet",
                      "unknown partition: " << setting.partition);
    partition = data::partition_dirichlet(bench.synth.train, bench.synth.test,
                                          partition_config,
                                          setting.dirichlet_alpha,
                                          partition_gen);
  }
  rng::Generator fed_gen(scale.seed ^ 0x517E);
  bench.fed = fl::build_fed_dataset(bench.synth, partition,
                                    scale.train_clients, fed_gen);

  bench.config.encoder.input_dim = bench.synth.train.input_dim();
  bench.config.num_classes = bench.synth.train.num_classes;
  bench.config.rounds = scale.rounds;
  bench.config.clients_per_round = scale.clients_per_round;
  bench.config.local_epochs = scale.local_epochs;
  bench.config.num_train_clients = scale.train_clients;
  bench.config.seed = scale.seed;
  bench.config.ssl_opt.learning_rate = 0.05f;
  bench.config.threads = env::get_int("CALIBRE_THREADS", 0);
  return bench;
}

fl::RunResult run_algorithm(const std::string& name, const Workbench& bench,
                            bool personalize_novel) {
  fl::FlConfig config = bench.config;
  if (name.rfind("Script-", 0) == 0) {
    config.rounds = 0;  // purely local training, no federation
  }
  const auto algorithm = algos::make_algorithm(name, config);
  return fl::run_federated(*algorithm, bench.fed, personalize_novel);
}

fl::RunResult run_algorithm(fl::Algorithm& algorithm, const Workbench& bench,
                            bool personalize_novel) {
  return fl::run_federated(algorithm, bench.fed, personalize_novel);
}

metrics::ResultRow to_row(const fl::RunResult& result, double paper_mean,
                          double paper_std, const std::string& note) {
  metrics::ResultRow row;
  row.method = result.algorithm;
  row.stats = metrics::compute_stats(result.train_accuracies);
  row.paper_mean = paper_mean;
  row.paper_std = paper_std;
  row.note = note;
  return row;
}

metrics::RepresentationQuality measure_representation(
    const std::string& method_name, const tensor::Tensor& features,
    const std::vector<int>& labels, const std::vector<int>& client_ids,
    const std::string& out_dir) {
  metrics::RepresentationQuality quality;
  quality.method = method_name;
  quality.silhouette = cluster::silhouette_score(features, labels);

  rng::Generator gen(0xC1u);
  cluster::KMeansConfig kmeans_config;
  int distinct = 0;
  {
    std::vector<bool> seen(256, false);
    for (const int label : labels) {
      if (label >= 0 && label < 256 && !seen[static_cast<std::size_t>(label)]) {
        seen[static_cast<std::size_t>(label)] = true;
        ++distinct;
      }
    }
  }
  kmeans_config.k = std::max(2, distinct);
  const auto clustering = cluster::kmeans(features, kmeans_config, gen);
  quality.purity = cluster::cluster_purity(clustering.assignments, labels);
  quality.nmi =
      cluster::normalized_mutual_information(clustering.assignments, labels);

  metrics::TsneConfig tsne_config;
  const auto embedding = metrics::tsne(features, tsne_config, gen);
  quality.tsne_kl = embedding.final_kl;
  if (!out_dir.empty()) {
    std::string file = method_name;
    for (char& c : file) {
      if (c == ' ' || c == '(' || c == ')' || c == '/') c = '_';
    }
    metrics::write_embedding_csv(out_dir + "/tsne_" + file + ".csv",
                                 embedding.embedding, labels, client_ids);
  }
  return quality;
}

tensor::Tensor supervised_features(const std::string& name,
                                   const nn::ModelState& state,
                                   const fl::FlConfig& config,
                                   const tensor::Tensor& x) {
  fl::EncoderHeadModel model = fl::make_encoder_head(config, config.seed);
  const bool encoder_only =
      name == "FedPer" || name == "FedRep" || name == "FedBABU";
  if (encoder_only) {
    state.apply_to(model.encoder_parameters());
  } else if (name == "SCAFFOLD" || name == "SCAFFOLD-FT") {
    const std::size_t model_dim =
        nn::ModelState::from_parameters(model.all_parameters()).size();
    CALIBRE_CHECK(state.size() == 2 * model_dim);
    nn::ModelState(std::vector<float>(
                       state.values().begin(),
                       state.values().begin() +
                           static_cast<std::ptrdiff_t>(model_dim)))
        .apply_to(model.all_parameters());
  } else {
    state.apply_to(model.all_parameters());
  }
  return model.encoder->forward(ag::constant(x))->value;
}

PooledSamples pool_client_samples(const fl::FedDataset& fed, int num_clients,
                                  int per_client) {
  PooledSamples pooled;
  std::vector<tensor::Tensor> parts;
  const int clients = std::min(num_clients, fed.num_train_clients());
  for (int c = 0; c < clients; ++c) {
    const data::Dataset shard = fed.test_shard(c);
    const int take = std::min<int>(per_client, static_cast<int>(shard.size()));
    std::vector<int> indices(static_cast<std::size_t>(take));
    for (int i = 0; i < take; ++i) indices[static_cast<std::size_t>(i)] = i;
    parts.push_back(tensor::take_rows(shard.x, indices));
    for (int i = 0; i < take; ++i) {
      pooled.labels.push_back(shard.labels[static_cast<std::size_t>(i)]);
      pooled.client_ids.push_back(c);
    }
  }
  pooled.x = tensor::concat_rows(parts);
  return pooled;
}

}  // namespace calibre::bench
