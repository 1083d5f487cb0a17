// Tests for the library extensions: fairness metrics, flag parsing,
// checkpointing, and the runner's dropout/history features.
#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "algos/fedprox.h"
#include "algos/qffl.h"
#include "algos/registry.h"
#include "common/check.h"
#include "common/flags.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fed_data.h"
#include "flapi/probe.h"
#include "fl/runner.h"
#include "metrics/fairness.h"
#include "nn/checkpoint.h"
#include "nn/layers.h"

namespace calibre {
namespace {

// --- fairness -----------------------------------------------------------------

TEST(Fairness, PerfectlyFairDistribution) {
  const metrics::FairnessReport report =
      metrics::compute_fairness({0.8, 0.8, 0.8, 0.8});
  EXPECT_DOUBLE_EQ(report.variance, 0.0);
  EXPECT_NEAR(report.jain_index, 1.0, 1e-12);
  EXPECT_NEAR(report.gini, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(report.worst_decile_mean, 0.8);
  EXPECT_DOUBLE_EQ(report.best_decile_mean, 0.8);
  EXPECT_DOUBLE_EQ(report.range, 0.0);
}

TEST(Fairness, SkewLowersJainRaisesGini) {
  const metrics::FairnessReport fair =
      metrics::compute_fairness({0.7, 0.72, 0.68, 0.71});
  const metrics::FairnessReport unfair =
      metrics::compute_fairness({0.95, 0.9, 0.2, 0.15});
  EXPECT_GT(fair.jain_index, unfair.jain_index);
  EXPECT_LT(fair.gini, unfair.gini);
  EXPECT_LT(fair.range, unfair.range);
}

TEST(Fairness, DecileMeans) {
  std::vector<double> accuracies;
  for (int i = 0; i < 20; ++i) accuracies.push_back(i / 20.0);
  const metrics::FairnessReport report =
      metrics::compute_fairness(accuracies);
  // Worst decile = two smallest values (0, 0.05); best = (0.95, 0.90).
  EXPECT_NEAR(report.worst_decile_mean, 0.025, 1e-12);
  EXPECT_NEAR(report.best_decile_mean, 0.925, 1e-12);
}

TEST(Fairness, EmptyInputThrows) {
  EXPECT_THROW(metrics::compute_fairness({}), CheckError);
}

// --- flags ----------------------------------------------------------------------

TEST(Flags, ParsesAllForms) {
  // Note: a bare "--switch" followed by a non-flag token consumes it as the
  // switch's value, so positional arguments must precede switches or follow
  // --key=value forms.
  const char* argv[] = {"prog",     "positional", "--alpha=0.5", "--rounds",
                        "30",       "--name",     "x y",         "--verbose"};
  const flags::Parser parser(8, argv);
  EXPECT_DOUBLE_EQ(parser.get_double("alpha", 0.0), 0.5);
  EXPECT_EQ(parser.get_int("rounds", 0), 30);
  EXPECT_TRUE(parser.has("verbose"));
  EXPECT_EQ(parser.get("name", ""), "x y");
  ASSERT_EQ(parser.positional().size(), 1u);
  EXPECT_EQ(parser.positional()[0], "positional");
  EXPECT_FALSE(parser.has("missing"));
  EXPECT_EQ(parser.get_int("missing2", 7), 7);
}

TEST(Flags, UnusedDetection) {
  const char* argv[] = {"prog", "--known=1", "--typo=2"};
  const flags::Parser parser(3, argv);
  (void)parser.get("known", "");
  const auto unused = parser.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Flags, MalformedNumbersThrow) {
  const char* argv[] = {"prog", "--rounds=abc", "--seed=7x",
                        "--clients=99999999999", "--alpha=0.3.1"};
  const flags::Parser parser(5, argv);
  const auto expect_throw_naming = [](const auto& call, const char* flag) {
    try {
      call();
      ADD_FAILURE() << "no throw for --" << flag;
    } catch (const CheckError& error) {
      EXPECT_NE(std::string(error.what()).find(flag), std::string::npos)
          << error.what();
    }
  };
  expect_throw_naming([&] { parser.get_int("rounds", 5); }, "--rounds");
  expect_throw_naming([&] { parser.get_double("rounds", 1.5); }, "--rounds");
  expect_throw_naming([&] { parser.get_int("seed", 42); }, "--seed");
  expect_throw_naming([&] { parser.get_int("clients", 20); }, "--clients");
  expect_throw_naming([&] { parser.get_double("alpha", 0.3); }, "--alpha");
  // Absent flags still take the fallback.
  EXPECT_EQ(parser.get_int("absent", 5), 5);
  EXPECT_DOUBLE_EQ(parser.get_double("absent", 1.5), 1.5);
}

// A flag given last, or followed by another flag, is a bare switch: it has
// no value, so reading one throws naming it instead of reading "true".
TEST(Flags, BareSwitchHasNoValue) {
  const char* argv[] = {"prog", "--out", "--rounds"};
  const flags::Parser parser(3, argv);
  EXPECT_TRUE(parser.has("out"));
  const auto expect_needs_value = [](const auto& call, const char* flag) {
    try {
      call();
      ADD_FAILURE() << "no throw for --" << flag;
    } catch (const CheckError& error) {
      EXPECT_NE(std::string(error.what()).find(std::string("--") + flag +
                                               " needs a value"),
                std::string::npos)
          << error.what();
    }
  };
  expect_needs_value([&] { parser.get("out", "BENCH.json"); }, "out");
  expect_needs_value([&] { parser.get_int("rounds", 5); }, "rounds");
  expect_needs_value([&] { parser.get_double("rounds", 1.5); }, "rounds");
}

// A token after a switch is taken as its value; reading the switch then
// throws naming the flag and the token instead of swallowing it. Positional
// arguments and flags nothing read are reported by unexpected().
TEST(Flags, StrayTokensAreReported) {
  const char* argv[] = {"prog",  "stray",   "--list-methods", "foo",
                        "--async", "3",     "--history=1",    "--verbose",
                        "--round=1"};
  const flags::Parser parser(9, argv);
  const auto expect_throw_naming = [](const auto& call, const char* flag,
                                      const char* token) {
    try {
      call();
      ADD_FAILURE() << "no throw for --" << flag;
    } catch (const CheckError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(std::string("--") + flag), std::string::npos)
          << what;
      EXPECT_NE(what.find(std::string("'") + token + "'"), std::string::npos)
          << what;
    }
  };
  expect_throw_naming([&] { parser.has("list-methods"); }, "list-methods",
                      "foo");
  expect_throw_naming([&] { parser.has("async"); }, "async", "3");
  expect_throw_naming([&] { parser.has("history"); }, "history", "1");
  EXPECT_TRUE(parser.has("verbose"));
  EXPECT_FALSE(parser.has("absent"));
  const std::vector<std::string> unexpected = parser.unexpected();
  ASSERT_EQ(unexpected.size(), 2u);
  EXPECT_EQ(unexpected[0], "unknown flag --round");
  EXPECT_EQ(unexpected[1], "unexpected argument stray");

  const char* clean_argv[] = {"prog", "--rounds=3", "--verbose"};
  const flags::Parser clean(3, clean_argv);
  EXPECT_EQ(clean.get_int("rounds", 0), 3);
  EXPECT_TRUE(clean.has("verbose"));
  EXPECT_TRUE(clean.unexpected().empty());
}

// --- checkpoint ------------------------------------------------------------------

TEST(Checkpoint, SaveLoadRoundTrip) {
  rng::Generator gen(2);
  const nn::ModelState original(
      tensor::Tensor::randn(1, 321, gen).to_vector());
  const std::string path = "/tmp/calibre_test_checkpoint.bin";
  nn::save_state(path, original);
  const nn::ModelState loaded = nn::load_state(path);
  EXPECT_EQ(loaded.values(), original.values());
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(nn::load_state("/tmp/does_not_exist_calibre.bin"), CheckError);
}

// --- runner dropout & history ------------------------------------------------------

struct SmallWorld {
  data::SyntheticDataset synth;
  fl::FedDataset fed;
  fl::FlConfig config;
};

SmallWorld make_small_world() {
  SmallWorld world;
  data::SyntheticConfig dataset_config;
  dataset_config.num_classes = 3;
  dataset_config.input_dim = 12;
  dataset_config.latent_dim = 5;
  dataset_config.train_samples = 240;
  dataset_config.test_samples = 120;
  dataset_config.seed = 61;
  world.synth = data::make_synthetic(dataset_config);
  data::PartitionConfig partition_config;
  partition_config.num_clients = 6;
  partition_config.samples_per_client = 30;
  partition_config.test_samples_per_client = 12;
  rng::Generator partition_gen(62);
  const data::Partition partition = data::partition_dirichlet(
      world.synth.train, world.synth.test, partition_config, 0.5,
      partition_gen);
  rng::Generator fed_gen(63);
  world.fed = fl::build_fed_dataset(world.synth, partition, 6, fed_gen);
  world.config.encoder.input_dim = 12;
  world.config.encoder.hidden_dims = {12};
  world.config.encoder.feature_dim = 6;
  world.config.num_classes = 3;
  world.config.rounds = 5;
  world.config.clients_per_round = 4;
  world.config.local_epochs = 1;
  world.config.num_train_clients = 6;
  world.config.threads = 2;
  return world;
}

TEST(RunnerHistory, OneEntryPerRoundWithParticipants) {
  SmallWorld world = make_small_world();
  const auto algorithm = algos::make_algorithm("FedAvg", world.config);
  const fl::RunResult result = fl::run_federated(*algorithm, world.fed, false);
  ASSERT_EQ(result.history.size(), 5u);
  for (const fl::RoundStats& round : result.history) {
    EXPECT_EQ(round.participants, 4);
    EXPECT_EQ(round.dropped, 0);
    EXPECT_GT(round.mean_update_norm, 0.0f);
    EXPECT_FLOAT_EQ(round.mean_divergence, 0.0f);  // FedAvg reports none
  }
}

TEST(RunnerHistory, CalibreReportsDivergence) {
  SmallWorld world = make_small_world();
  world.config.rounds = 2;
  const auto algorithm =
      algos::make_algorithm("Calibre (SimCLR)", world.config);
  const fl::RunResult result = fl::run_federated(*algorithm, world.fed, false);
  for (const fl::RoundStats& round : result.history) {
    EXPECT_GT(round.mean_divergence, 0.0f);
  }
}

TEST(RunnerDropout, DropsSomeClientsButNeverAll) {
  SmallWorld world = make_small_world();
  world.config.rounds = 12;
  world.config.client_dropout_rate = 0.5f;
  const auto algorithm = algos::make_algorithm("FedAvg", world.config);
  const fl::RunResult result = fl::run_federated(*algorithm, world.fed, false);
  int total_dropped = 0;
  for (const fl::RoundStats& round : result.history) {
    EXPECT_GE(round.participants, 1);
    EXPECT_EQ(round.participants + round.dropped, 4);
    total_dropped += round.dropped;
  }
  EXPECT_GT(total_dropped, 0);  // with p=0.5 over 48 draws this is certain
}

TEST(RunnerDropout, ZeroRateDropsNothing) {
  SmallWorld world = make_small_world();
  world.config.client_dropout_rate = 0.0f;
  const auto algorithm = algos::make_algorithm("FedAvg", world.config);
  const fl::RunResult result = fl::run_federated(*algorithm, world.fed, false);
  for (const fl::RoundStats& round : result.history) {
    EXPECT_EQ(round.dropped, 0);
  }
}

// --- prototype probe ---------------------------------------------------------------

TEST(PrototypeProbe, SeparableFeaturesClassifiedCorrectly) {
  rng::Generator gen(70);
  tensor::Tensor train(40, 4);
  std::vector<int> train_labels(40);
  tensor::Tensor test(20, 4);
  std::vector<int> test_labels(20);
  auto fill = [&](tensor::Tensor& x, std::vector<int>& y) {
    for (std::int64_t i = 0; i < x.rows(); ++i) {
      const int label = static_cast<int>(i % 2);
      y[static_cast<std::size_t>(i)] = label;
      for (std::int64_t d = 0; d < 4; ++d) {
        x(i, d) = static_cast<float>(gen.normal()) * 0.3f +
                  (label == 0 ? 2.0f : -2.0f);
      }
    }
  };
  fill(train, train_labels);
  fill(test, test_labels);
  EXPECT_GT(fl::prototype_probe_accuracy(train, train_labels, test,
                                         test_labels, 2),
            0.95);
}

TEST(PrototypeProbe, NeverPredictsUnseenClasses) {
  // Client only holds class 3 of a 10-class problem: every prediction must
  // be class 3 (accuracy 1.0 on class-3 test samples).
  tensor::Tensor train(5, 2);
  const std::vector<int> train_labels(5, 3);
  tensor::Tensor test(4, 2);
  for (std::int64_t i = 0; i < 4; ++i) test(i, 0) = 100.0f;  // far away
  const std::vector<int> test_labels(4, 3);
  EXPECT_DOUBLE_EQ(fl::prototype_probe_accuracy(train, train_labels, test,
                                                test_labels, 10),
                   1.0);
}

TEST(PrototypeProbe, PluggedIntoPflSslPersonalization) {
  SmallWorld world = make_small_world();
  world.config.rounds = 1;
  world.config.probe.head = fl::ProbeConfig::Head::kPrototype;
  const auto algorithm = algos::make_algorithm("pFL-SimCLR", world.config);
  const fl::RunResult result = fl::run_federated(*algorithm, world.fed, false);
  for (const double accuracy : result.train_accuracies) {
    EXPECT_GE(accuracy, 0.0);
    EXPECT_LE(accuracy, 1.0);
  }
}

// --- FedProx / q-FedAvg -----------------------------------------------------------

TEST(FedProx, LargeMuPinsClientsToGlobal) {
  SmallWorld world = make_small_world();
  // Large (but lr-stable) mu: the prox term keeps local updates near the
  // global state; mu = 0 lets them drift freely. Several local steps are
  // needed before the prox gradient is non-zero.
  world.config.local_epochs = 4;
  algos::FedProx tight(world.config, /*mu=*/10.0f);
  const nn::ModelState global = tight.initialize();
  const data::Dataset train = world.fed.train_shard(0);
  fl::ClientContext ctx;
  ctx.client_id = 0;
  ctx.train = &train;
  ctx.seed = 71;
  const fl::ClientUpdate tight_update = tight.local_update(global, ctx);
  algos::FedProx loose(world.config, /*mu=*/0.0f);
  const fl::ClientUpdate loose_update = loose.local_update(global, ctx);
  EXPECT_LT(tight_update.state.l2_distance(global),
            loose_update.state.l2_distance(global));
}

TEST(QFfl, HighLossClientsDominateAggregation) {
  algos::QFfl qffl(SmallWorld{}.config, /*q=*/2.0f);
  fl::ClientUpdate easy;
  easy.state = nn::ModelState(std::vector<float>{0.0f});
  easy.weight = 1.0f;
  easy.scalars["loss"] = 0.1f;
  fl::ClientUpdate hard;
  hard.state = nn::ModelState(std::vector<float>{10.0f});
  hard.weight = 1.0f;
  hard.scalars["loss"] = 2.0f;
  const nn::ModelState merged =
      qffl.aggregate(nn::ModelState(), {easy, hard}, 0);
  // With q=2 the hard client's weight is (2/0.1)^2 = 400x: result ~ 10.
  EXPECT_GT(merged.values()[0], 9.5f);
}

TEST(QFfl, QZeroReducesTowardFedAvg) {
  algos::QFfl qffl(SmallWorld{}.config, /*q=*/0.0f);
  fl::ClientUpdate a;
  a.state = nn::ModelState(std::vector<float>{0.0f});
  a.weight = 1.0f;
  a.scalars["loss"] = 0.1f;
  fl::ClientUpdate b;
  b.state = nn::ModelState(std::vector<float>{10.0f});
  b.weight = 1.0f;
  b.scalars["loss"] = 5.0f;
  const nn::ModelState merged =
      qffl.aggregate(nn::ModelState(), {a, b}, 0);
  EXPECT_NEAR(merged.values()[0], 5.0f, 1e-4f);
}

}  // namespace
}  // namespace calibre
