// End-to-end integration tests: full training + personalization pipelines
// across the message-passing runtime, and the headline "shape" assertions of
// the reproduction at smoke scale.
#include <cmath>

#include <gtest/gtest.h>

#include "algos/registry.h"
#include "cluster/quality.h"
#include "core/calibre.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fed_data.h"
#include "fl/runner.h"
#include "metrics/stats.h"

namespace calibre {
namespace {

struct World {
  data::SyntheticDataset synth;
  fl::FedDataset fed;
  fl::FlConfig config;
};

// A mid-sized world: large enough for learning signals to be visible, small
// enough for CI (a few seconds per federated run).
const World& world() {
  static const World* instance = [] {
    auto* w = new World();
    data::SyntheticConfig dataset_config = data::cifar10_like();
    dataset_config.train_samples = 2000;
    dataset_config.test_samples = 1500;
    w->synth = data::make_synthetic(dataset_config);
    data::PartitionConfig partition_config;
    partition_config.num_clients = 10;  // 8 train + 2 novel
    partition_config.samples_per_client = 80;
    partition_config.test_samples_per_client = 60;
    rng::Generator partition_gen(50);
    const data::Partition partition = data::partition_dirichlet(
        w->synth.train, w->synth.test, partition_config, 0.3, partition_gen);
    rng::Generator fed_gen(51);
    w->fed = fl::build_fed_dataset(w->synth, partition, 8, fed_gen);
    w->config.encoder.input_dim = w->synth.train.input_dim();
    w->config.num_classes = 10;
    w->config.rounds = 10;
    w->config.clients_per_round = 4;
    w->config.local_epochs = 2;
    w->config.num_train_clients = 8;
    return w;
  }();
  return *instance;
}

double mean_accuracy(const std::vector<double>& accuracies) {
  return metrics::compute_stats(accuracies).mean;
}

TEST(Integration, SupervisedFederationBeatsChance) {
  const auto algorithm = algos::make_algorithm("FedAvg-FT", world().config);
  const fl::RunResult result =
      fl::run_federated(*algorithm, world().fed, true);
  // 10-way task, heavily skewed clients: chance at the client level is well
  // below 0.3 even accounting for skew.
  EXPECT_GT(mean_accuracy(result.train_accuracies), 0.45);
  EXPECT_GT(mean_accuracy(result.novel_accuracies), 0.35);
}

TEST(Integration, SslTrainingImprovesOverRandomEncoder) {
  fl::FlConfig untrained_config = world().config;
  untrained_config.rounds = 0;
  const auto untrained =
      algos::make_algorithm("Calibre (SimCLR)", untrained_config);
  const double random_probe = mean_accuracy(
      fl::run_federated(*untrained, world().fed, false).train_accuracies);

  const auto trained =
      algos::make_algorithm("Calibre (SimCLR)", world().config);
  const double trained_probe = mean_accuracy(
      fl::run_federated(*trained, world().fed, false).train_accuracies);
  EXPECT_GT(trained_probe, random_probe - 0.05)
      << "Calibre training must not destroy the probe signal";
}

TEST(Integration, CalibreImprovesRepresentationQualityOverPflSsl) {
  // The paper's central mechanism (Figs. 1 vs 6): Calibre's prototype
  // regularizers produce representations with clearer class structure than
  // plain pFL-SimCLR under the same budget.
  const auto plain = algos::make_algorithm("pFL-SimCLR", world().config);
  const fl::RunResult plain_result =
      fl::run_federated(*plain, world().fed, false);
  const auto calibre =
      algos::make_algorithm("Calibre (SimCLR)", world().config);
  const fl::RunResult calibre_result =
      fl::run_federated(*calibre, world().fed, false);

  // Pool a few clients' test samples.
  std::vector<tensor::Tensor> parts;
  std::vector<int> labels;
  for (int c = 0; c < 6; ++c) {
    const data::Dataset shard = world().fed.test_shard(c);
    parts.push_back(shard.x);
    labels.insert(labels.end(), shard.labels.begin(), shard.labels.end());
  }
  const tensor::Tensor pooled = tensor::concat_rows(parts);

  auto* plain_pfl = dynamic_cast<core::PflSsl*>(plain.get());
  auto* calibre_pfl = dynamic_cast<core::PflSsl*>(calibre.get());
  ASSERT_NE(plain_pfl, nullptr);
  ASSERT_NE(calibre_pfl, nullptr);
  const double plain_silhouette = cluster::silhouette_score(
      plain_pfl->extract_features(plain_result.final_state, pooled), labels);
  const double calibre_silhouette = cluster::silhouette_score(
      calibre_pfl->extract_features(calibre_result.final_state, pooled),
      labels);
  // Calibre must not have *worse* cluster structure; usually it is clearly
  // better (small slack for smoke-scale noise).
  EXPECT_GT(calibre_silhouette, plain_silhouette - 0.02);
}

TEST(Integration, NovelClientsPersonalizeWithoutTraining) {
  const auto algorithm =
      algos::make_algorithm("Calibre (SimCLR)", world().config);
  const fl::RunResult result =
      fl::run_federated(*algorithm, world().fed, true);
  ASSERT_EQ(result.novel_accuracies.size(), 2u);
  // Novel clients land in the same accuracy regime as participating ones
  // (paper §V-D): within 25 accuracy points of the participating mean.
  const double participating = mean_accuracy(result.train_accuracies);
  const double novel = mean_accuracy(result.novel_accuracies);
  EXPECT_NEAR(novel, participating, 0.25);
}

TEST(Integration, TrafficScalesWithRoundsAndModelSize) {
  fl::FlConfig short_config = world().config;
  short_config.rounds = 2;
  const auto a = algos::make_algorithm("FedAvg", short_config);
  const auto traffic_short =
      fl::run_federated(*a, world().fed, false).traffic;
  fl::FlConfig long_config = world().config;
  long_config.rounds = 4;
  const auto b = algos::make_algorithm("FedAvg", long_config);
  const auto traffic_long = fl::run_federated(*b, world().fed, false).traffic;
  EXPECT_EQ(traffic_long.messages, 2 * traffic_short.messages);
  EXPECT_NEAR(static_cast<double>(traffic_long.logical_bytes),
              2.0 * static_cast<double>(traffic_short.logical_bytes),
              0.01 * static_cast<double>(traffic_long.logical_bytes));
  // The shared broadcast snapshot keeps physical traffic well under logical
  // traffic (payload buffers counted once), and serializations at one per
  // round no matter how many clients were broadcast to.
  EXPECT_LT(traffic_long.physical_bytes, traffic_long.logical_bytes);
  EXPECT_EQ(traffic_long.broadcast_serializations,
            static_cast<std::uint64_t>(long_config.rounds));
}

TEST(Integration, DivergenceScalarTravelsWithCalibreUpdates) {
  core::Calibre calibre(world().config, ssl::Kind::kSimClr);
  const nn::ModelState global = calibre.initialize();
  const data::Dataset train = world().fed.train_shard(0);
  const tensor::Tensor ssl_pool = world().fed.client_ssl_pool(0);
  fl::ClientContext ctx;
  ctx.client_id = 0;
  ctx.train = &train;
  ctx.ssl_pool = &ssl_pool;
  ctx.oracle = &world().fed.oracle;
  ctx.seed = 52;
  const fl::ClientUpdate update = calibre.local_update(global, ctx);
  ASSERT_TRUE(update.scalars.count("divergence"));
  EXPECT_GT(update.scalars.at("divergence"), 0.0f);
  // The scalar survives the wire format.
  const fl::ClientUpdate decoded =
      fl::deserialize_update(fl::serialize_update(update));
  EXPECT_FLOAT_EQ(decoded.scalars.at("divergence"),
                  update.scalars.at("divergence"));
}

TEST(Integration, StlLikeUnlabeledPoolHelpsSsl) {
  // SSL on the STL-10-like dataset sees labeled + unlabeled latents; its
  // per-client SSL pool must be strictly larger than the labeled shard.
  const World& w = world();
  data::SyntheticConfig stl_config = data::stl10_like();
  stl_config.train_samples = 600;
  stl_config.test_samples = 600;
  stl_config.unlabeled_samples = 2400;
  const data::SyntheticDataset stl = data::make_synthetic(stl_config);
  data::PartitionConfig partition_config;
  partition_config.num_clients = 6;
  partition_config.samples_per_client = 50;
  partition_config.test_samples_per_client = 40;
  rng::Generator gen(53);
  const data::Partition partition = data::partition_quantity(
      stl.train, stl.test, partition_config, 2, gen);
  rng::Generator fed_gen(54);
  const fl::FedDataset fed = fl::build_fed_dataset(stl, partition, 6, fed_gen);
  for (int c = 0; c < fed.num_train_clients(); ++c) {
    EXPECT_EQ(fed.client_ssl_pool(c).rows(), 50 + 2400 / 6);
  }
  (void)w;
}

}  // namespace
}  // namespace calibre
