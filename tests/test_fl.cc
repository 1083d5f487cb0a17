// Tests for the federated runtime: aggregation math, update serialization,
// federated dataset construction, the linear probe, the runner, and the
// fault-tolerant round loop.
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "algos/registry.h"
#include "algos/scaffold.h"
#include "comm/codec.h"
#include "comm/message.h"
#include "common/check.h"
#include "flapi/algorithm.h"
#include "fl/update_codec.h"
#include "fl/fed_data.h"
#include "flapi/model.h"
#include "flapi/probe.h"
#include "fl/runner.h"
#include "tensor/rng.h"

namespace calibre::fl {
namespace {

using tensor::Tensor;

TEST(Aggregate, WeightedMean) {
  ClientUpdate a;
  a.state = nn::ModelState(std::vector<float>{1.0f, 2.0f});
  a.weight = 1.0f;
  ClientUpdate b;
  b.state = nn::ModelState(std::vector<float>{3.0f, 6.0f});
  b.weight = 3.0f;
  const nn::ModelState merged = fedavg_aggregate({a, b});
  EXPECT_FLOAT_EQ(merged.values()[0], (1.0f + 3 * 3.0f) / 4.0f);
  EXPECT_FLOAT_EQ(merged.values()[1], (2.0f + 3 * 6.0f) / 4.0f);
}

TEST(Aggregate, SingleUpdateIsIdentity) {
  ClientUpdate a;
  a.state = nn::ModelState(std::vector<float>{5.0f, -1.0f});
  a.weight = 2.5f;
  const nn::ModelState merged = fedavg_aggregate({a});
  EXPECT_EQ(merged.values(), a.state.values());
}

TEST(Aggregate, RejectsBadInput) {
  EXPECT_THROW(fedavg_aggregate({}), CheckError);
  ClientUpdate a;
  a.state = nn::ModelState(std::vector<float>{1.0f});
  a.weight = 0.0f;
  EXPECT_THROW(fedavg_aggregate({a}), CheckError);
  ClientUpdate b;
  b.state = nn::ModelState(std::vector<float>{1.0f, 2.0f});
  b.weight = 1.0f;
  ClientUpdate c;
  c.state = nn::ModelState(std::vector<float>{1.0f});
  c.weight = 1.0f;
  EXPECT_THROW(fedavg_aggregate({b, c}), CheckError);
}

TEST(ClientUpdateSerde, RoundTrip) {
  ClientUpdate update;
  update.state = nn::ModelState(std::vector<float>{1.5f, -2.5f, 0.0f});
  update.weight = 42.0f;
  update.scalars = {{"divergence", 0.33f}, {"loss", 1.25f}};
  const auto bytes = serialize_update(update);
  const ClientUpdate decoded = deserialize_update(bytes);
  EXPECT_EQ(decoded.state.values(), update.state.values());
  EXPECT_FLOAT_EQ(decoded.weight, update.weight);
  EXPECT_EQ(decoded.scalars, update.scalars);
}

TEST(ClientUpdateSerde, TrailingBytesRejected) {
  ClientUpdate update;
  update.state = nn::ModelState(std::vector<float>{1.0f});
  auto bytes = serialize_update(update);
  bytes.push_back(0xFF);
  EXPECT_THROW(deserialize_update(bytes), CheckError);
}

// --- fed dataset ------------------------------------------------------------

class FedDataBuilder : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticConfig config;
    config.num_classes = 4;
    config.input_dim = 16;
    config.latent_dim = 6;
    config.train_samples = 400;
    config.test_samples = 200;
    config.unlabeled_samples = 120;
    config.seed = 3;
    synth_ = data::make_synthetic(config);
    data::PartitionConfig partition_config;
    partition_config.num_clients = 6;
    partition_config.samples_per_client = 30;
    partition_config.test_samples_per_client = 12;
    rng::Generator gen(4);
    partition_ = data::partition_dirichlet(synth_.train, synth_.test,
                                           partition_config, 0.3, gen);
  }

  data::SyntheticDataset synth_;
  data::Partition partition_;
};

TEST_F(FedDataBuilder, SplitsTrainAndNovelClients) {
  rng::Generator gen(5);
  const FedDataset fed = build_fed_dataset(synth_, partition_, 4, gen);
  EXPECT_EQ(fed.num_train_clients(), 4);
  EXPECT_EQ(fed.num_novel_clients(), 2);
  EXPECT_EQ(fed.num_classes, 4);
  EXPECT_EQ(fed.input_dim, 16);
  for (int c = 0; c < fed.num_train_clients(); ++c) {
    EXPECT_EQ(fed.train_shard(c).size(), 30);
    EXPECT_EQ(fed.test_shard(c).size(), 12);
  }
  for (int n = 0; n < fed.num_novel_clients(); ++n) {
    EXPECT_EQ(fed.novel_train_shard(n).size(), 30);
  }
}

TEST_F(FedDataBuilder, SslPoolsAreLatentsPlusUnlabeledShare) {
  rng::Generator gen(6);
  const FedDataset fed = build_fed_dataset(synth_, partition_, 4, gen);
  EXPECT_TRUE(fed.pool_is_latent);
  EXPECT_TRUE(fed.oracle.valid());
  // Each pool: 30 labeled latents + 120/4 = 30 unlabeled latents.
  for (int c = 0; c < fed.num_train_clients(); ++c) {
    const tensor::Tensor pool = fed.client_ssl_pool(c);
    EXPECT_EQ(pool.rows(), 60);
    EXPECT_EQ(pool.cols(), 6);  // latent dim, not input dim
  }
}

TEST_F(FedDataBuilder, NoUnlabeledPoolFallsBackToLabeledOnly) {
  data::SyntheticConfig config = synth_.config;
  config.unlabeled_samples = 0;
  const data::SyntheticDataset no_pool = data::make_synthetic(config);
  rng::Generator gen(7);
  const FedDataset fed = build_fed_dataset(no_pool, partition_, 4, gen);
  for (int c = 0; c < fed.num_train_clients(); ++c) {
    EXPECT_EQ(fed.client_ssl_pool(c).rows(), 30);
  }
}

// --- probe ------------------------------------------------------------------

TEST(LinearProbe, SeparableFeaturesReachHighAccuracy) {
  // Two linearly separable blobs in feature space.
  rng::Generator gen(8);
  const int n = 80;
  Tensor train_features(n, 4);
  std::vector<int> train_labels(n);
  Tensor test_features(40, 4);
  std::vector<int> test_labels(40);
  auto fill = [&](Tensor& x, std::vector<int>& y) {
    for (std::int64_t i = 0; i < x.rows(); ++i) {
      const int label = static_cast<int>(i % 2);
      y[static_cast<std::size_t>(i)] = label;
      for (std::int64_t d = 0; d < 4; ++d) {
        x(i, d) = static_cast<float>(gen.normal()) +
                  (label == 0 ? 3.0f : -3.0f);
      }
    }
  };
  fill(train_features, train_labels);
  fill(test_features, test_labels);
  ProbeConfig config;
  const double accuracy =
      linear_probe_accuracy(train_features, train_labels, test_features,
                            test_labels, 2, config, 9);
  EXPECT_GT(accuracy, 0.95);
}

TEST(LinearProbe, RandomFeaturesNearChance) {
  rng::Generator gen(10);
  const Tensor train_features = Tensor::randn(100, 8, gen);
  const Tensor test_features = Tensor::randn(100, 8, gen);
  std::vector<int> train_labels(100);
  std::vector<int> test_labels(100);
  for (int i = 0; i < 100; ++i) {
    train_labels[static_cast<std::size_t>(i)] =
        static_cast<int>(gen.uniform_index(4));
    test_labels[static_cast<std::size_t>(i)] =
        static_cast<int>(gen.uniform_index(4));
  }
  ProbeConfig config;
  const double accuracy =
      linear_probe_accuracy(train_features, train_labels, test_features,
                            test_labels, 4, config, 11);
  EXPECT_LT(accuracy, 0.45);  // 4-way chance = 0.25
}

TEST(LinearProbe, ValidatesInput) {
  ProbeConfig config;
  EXPECT_THROW(linear_probe_accuracy(Tensor(0, 4), {}, Tensor(1, 4), {0}, 2,
                                     config, 1),
               CheckError);
}

// --- model helpers --------------------------------------------------------------

TEST(EncoderHeadModel, TrainSupervisedLearnsLocalData) {
  FlConfig config;
  config.encoder.input_dim = 8;
  config.encoder.hidden_dims = {16};
  config.encoder.feature_dim = 8;
  config.num_classes = 2;
  config.augment.noise_std = 0.02f;
  config.augment.mask_fraction = 0.0f;
  config.augment.scale_jitter = 0.0f;

  rng::Generator gen(12);
  data::Dataset dataset;
  dataset.num_classes = 2;
  dataset.x = Tensor(60, 8);
  dataset.labels.resize(60);
  for (int i = 0; i < 60; ++i) {
    const int label = i % 2;
    dataset.labels[static_cast<std::size_t>(i)] = label;
    for (int d = 0; d < 8; ++d) {
      dataset.x(i, d) = static_cast<float>(gen.normal()) +
                        (label == 0 ? 2.0f : -2.0f);
    }
  }
  EncoderHeadModel model = make_encoder_head(config, 13);
  const double before = evaluate_accuracy(model, dataset);
  rng::Generator train_gen(14);
  train_supervised(model, model.all_parameters(), dataset, config, 20,
                   train_gen);
  const double after = evaluate_accuracy(model, dataset);
  EXPECT_GT(after, 0.95);
  EXPECT_GE(after, before);
}

// --- fault-tolerant round loop ----------------------------------------------

// Minimal algorithm for runner fault-tolerance tests: a trivial
// two-parameter model with a per-update callback for injecting failures,
// latency, or recording which clients actually trained, folded by the
// native weighted aggregator.
class ToyAlgorithm : public Algorithm {
 public:
  using UpdateHook = std::function<void(const ClientContext&)>;
  explicit ToyAlgorithm(const FlConfig& config, UpdateHook hook = nullptr)
      : Algorithm(config), hook_(std::move(hook)) {}
  std::string name() const override { return "Toy"; }
  nn::ModelState initialize() override {
    return nn::ModelState(std::vector<float>{1.0f, -1.0f});
  }
  ClientUpdate local_update(const nn::ModelState& global,
                            const ClientContext& ctx) override {
    if (hook_) hook_(ctx);
    ClientUpdate update;
    std::vector<float> values = global.values();
    for (float& value : values) {
      value += 0.5f + 0.25f * static_cast<float>(ctx.client_id);
    }
    update.state = nn::ModelState(std::move(values));
    return update;
  }
  std::unique_ptr<StreamingAggregator> make_aggregator(
      const nn::ModelState&, int) override {
    return std::make_unique<WeightedStreamingAggregator>();
  }
  double personalize(const nn::ModelState&,
                     const PersonalizationContext&) override {
    return 0.5;
  }

 private:
  UpdateHook hook_;
};

// Clients with empty shards: the toy algorithms never read their data.
FedDataset toy_fed(int clients) {
  FedDataset fed;
  fed.train_indices.resize(static_cast<std::size_t>(clients));
  fed.test_indices.resize(static_cast<std::size_t>(clients));
  fed.participating = clients;
  fed.num_classes = 2;
  fed.input_dim = 1;
  return fed;
}

FlConfig toy_config(int clients) {
  FlConfig config;
  config.rounds = 2;
  config.clients_per_round = clients;
  config.num_train_clients = clients;
  config.threads = 3;
  config.seed = 21;
  return config;
}

// Regression for the silent client-failure deadlock: a local_update that
// throws used to strand the server in pop() forever. The round must now
// complete with a recorded failure, not a timeout and not a hang (the
// deadline below only bounds the damage if the bug ever resurfaces).
TEST(RunnerFaults, ThrowingClientYieldsFailedRoundNotDeadlock) {
  const int clients = 4;
  FlConfig config = toy_config(clients);
  config.rounds = 3;
  config.round_deadline_ms = 30000;
  ToyAlgorithm algorithm(config, [](const ClientContext& ctx) {
    if (ctx.client_id == 0) throw std::runtime_error("synthetic failure");
  });
  const FedDataset fed = toy_fed(clients);
  const RunResult result = run_federated(algorithm, fed, false);
  ASSERT_EQ(result.history.size(), 3u);
  for (const RoundStats& round : result.history) {
    EXPECT_EQ(round.participants, 3);
    EXPECT_EQ(round.failures, 1);
    EXPECT_EQ(round.timeouts, 0) << "failure was lost instead of replied";
    EXPECT_EQ(round.retries, 0);
  }
}

TEST(RunnerFaults, BoundedRetryRecoversTransientFailure) {
  const int clients = 3;
  FlConfig config = toy_config(clients);
  config.rounds = 1;
  config.max_client_retries = 1;
  std::atomic<int> attempts{0};
  ToyAlgorithm algorithm(config, [&](const ClientContext& ctx) {
    if (ctx.client_id == 1 && attempts.fetch_add(1) == 0) {
      throw std::runtime_error("transient");
    }
  });
  const FedDataset fed = toy_fed(clients);
  const RunResult result = run_federated(algorithm, fed, false);
  ASSERT_EQ(result.history.size(), 1u);
  EXPECT_EQ(result.history[0].participants, 3);
  EXPECT_EQ(result.history[0].failures, 1);
  EXPECT_EQ(result.history[0].retries, 1);
  EXPECT_EQ(result.history[0].timeouts, 0);
}

TEST(RunnerFaults, FullyFailedRoundKeepsGlobalState) {
  const int clients = 3;
  FlConfig config = toy_config(clients);
  config.rounds = 2;
  ToyAlgorithm algorithm(config, [](const ClientContext& ctx) {
    if (ctx.round == 0) throw std::runtime_error("bad round");
  });
  const FedDataset fed = toy_fed(clients);
  const RunResult result = run_federated(algorithm, fed, false);
  ASSERT_EQ(result.history.size(), 2u);
  EXPECT_EQ(result.history[0].participants, 0);
  EXPECT_EQ(result.history[0].failures, 3);
  EXPECT_EQ(result.history[1].participants, 3);
  EXPECT_EQ(result.history[1].failures, 0);
  // Round 1 aggregated on top of the *initial* state, untouched by round 0.
  // Mean client bump: 0.5 + 0.25 * mean(client_id) = 0.75.
  EXPECT_FLOAT_EQ(result.final_state.values()[0], 1.75f);
  EXPECT_FLOAT_EQ(result.final_state.values()[1], -0.25f);
}

// Two rounds with an 800 ms deadline and a quorum of 3 of 4 clients.
// Round 0: client 0 outlives the deadline, replying mid-round-1 (with an
// error when `straggler_throws`). Round 1: client 1 outlives the deadline
// and the whole run.
RunResult run_deadline_stragglers(bool straggler_throws) {
  const int clients = 4;
  FlConfig config = toy_config(clients);
  config.rounds = 2;
  config.round_deadline_ms = 800;
  config.min_participants = 3;
  config.max_client_retries = 1;
  ToyAlgorithm algorithm(config, [=](const ClientContext& ctx) {
    if (ctx.round == 0 && ctx.client_id == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1200));
      if (straggler_throws) throw std::runtime_error("late failure");
    }
    if (ctx.round == 1 && ctx.client_id == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3000));
    }
  });
  const FedDataset fed = toy_fed(clients);
  return run_federated(algorithm, fed, false);
}

TEST(RunnerFaults, DeadlineCutsStragglersAndDiscardsLateReplies) {
  const RunResult result = run_deadline_stragglers(false);
  ASSERT_EQ(result.history.size(), 2u);
  EXPECT_EQ(result.history[0].participants, 3);
  EXPECT_EQ(result.history[0].timeouts, 1);
  EXPECT_EQ(result.history[0].late_dropped, 0);
  EXPECT_EQ(result.history[1].participants, 3);
  EXPECT_EQ(result.history[1].timeouts, 1);
  // Client 0's stale round-0 reply arrived during round 1 and was
  // discarded by round tag instead of corrupting the aggregation.
  EXPECT_EQ(result.history[1].late_dropped, 1);
}

// An error reply from a straggler the deadline already cut belongs to a
// resolved slot: it is discarded as late like any other stale reply, and
// counts no failure and buys no retry, though the retry budget allows one.
TEST(RunnerFaults, DeadlineCutStragglerErrorCountsAsLateNotFailure) {
  const RunResult result = run_deadline_stragglers(true);
  ASSERT_EQ(result.history.size(), 2u);
  EXPECT_EQ(result.history[0].participants, 3);
  EXPECT_EQ(result.history[0].timeouts, 1);
  EXPECT_EQ(result.history[1].participants, 3);
  EXPECT_EQ(result.history[1].timeouts, 1);
  EXPECT_EQ(result.history[1].late_dropped, 1);
  for (const RoundStats& round : result.history) {
    EXPECT_EQ(round.failures, 0) << "round " << round.round;
    EXPECT_EQ(round.retries, 0) << "round " << round.round;
  }
}

// Cross-round straggler accounting must not depend on worker-thread count:
// a late reply is counted as late_dropped exactly once, never folded into a
// later round, and the aggregate stays bit-identical. (threads == 1 is
// excluded on purpose — a single worker serializes the sleeper and changes
// which clients beat the deadline.)
TEST(RunnerFaults, CrossRoundStragglerAccountingStableAcrossThreadCounts) {
  const int clients = 4;
  const FedDataset fed = toy_fed(clients);
  for (const int threads : {3, 8}) {
    FlConfig config = toy_config(clients);
    config.rounds = 2;
    config.threads = threads;
    config.round_deadline_ms = 800;
    config.min_participants = 3;
    ToyAlgorithm algorithm(config, [](const ClientContext& ctx) {
      if (ctx.round == 0 && ctx.client_id == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
      }
      if (ctx.round == 1 && ctx.client_id == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3000));
      }
    });
    const RunResult result = run_federated(algorithm, fed, false);
    ASSERT_EQ(result.history.size(), 2u);
    EXPECT_EQ(result.history[0].participants, 3) << "threads=" << threads;
    EXPECT_EQ(result.history[0].timeouts, 1) << "threads=" << threads;
    EXPECT_EQ(result.history[0].late_dropped, 0) << "threads=" << threads;
    EXPECT_EQ(result.history[0].failures, 0) << "threads=" << threads;
    EXPECT_EQ(result.history[1].participants, 3) << "threads=" << threads;
    EXPECT_EQ(result.history[1].timeouts, 1) << "threads=" << threads;
    // Client 0's round-0 reply lands mid-round-1: dropped once, not folded.
    EXPECT_EQ(result.history[1].late_dropped, 1) << "threads=" << threads;
    EXPECT_EQ(result.history[1].failures, 0) << "threads=" << threads;
    // Round 0 folds clients {1,2,3}: mean bump (0.5 + 0.25*2) = 1.0 → state
    // {2, 0}. Round 1 folds {0,2,3}: mean bump 0.5 + 0.25 * (5/3) = 11/12
    // over {2+..}: exact means below.
    EXPECT_FLOAT_EQ(result.final_state.values()[0], 8.75f / 3.0f)
        << "threads=" << threads;
    EXPECT_FLOAT_EQ(result.final_state.values()[1], 2.75f / 3.0f)
        << "threads=" << threads;
  }
}

// The final round's deadline stragglers must finish before personalization
// starts: algorithm.h promises local_update and personalize never run for
// the same client at once, and per-client state (ClientStore, error
// feedback) must be settled before evaluation reads it. The straggler here
// outlives the deadline by far, so any overlap is observed, not raced.
class OverlapProbeAlgorithm : public ToyAlgorithm {
 public:
  using ToyAlgorithm::ToyAlgorithm;
  ClientUpdate local_update(const nn::ModelState& global,
                            const ClientContext& ctx) override {
    in_flight.fetch_add(1);
    ClientUpdate update = ToyAlgorithm::local_update(global, ctx);
    in_flight.fetch_sub(1);
    return update;
  }
  double personalize(const nn::ModelState& global,
                     const PersonalizationContext& ctx) override {
    if (in_flight.load() > 0) overlaps.fetch_add(1);
    return ToyAlgorithm::personalize(global, ctx);
  }
  std::atomic<int> in_flight{0};
  std::atomic<int> overlaps{0};
};

TEST(RunnerFaults, FinalRoundStragglersFinishBeforePersonalization) {
  const int clients = 4;
  FlConfig config = toy_config(clients);
  config.rounds = 1;
  config.round_deadline_ms = 200;
  config.min_participants = 3;
  OverlapProbeAlgorithm algorithm(config, [](const ClientContext& ctx) {
    if (ctx.client_id == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    }
  });
  const FedDataset fed = toy_fed(clients);
  const RunResult result = run_federated(algorithm, fed, false);
  ASSERT_EQ(result.history.size(), 1u);
  EXPECT_EQ(result.history[0].participants, 3);
  EXPECT_EQ(result.history[0].timeouts, 1);
  EXPECT_EQ(result.history[0].late_dropped, 0);
  EXPECT_EQ(algorithm.overlaps.load(), 0)
      << "personalize ran while a cut straggler was still training";
}

TEST(RunnerFaults, InjectedFaultsAreDeterministicAcrossRuns) {
  const int clients = 5;
  FlConfig config = toy_config(clients);
  config.rounds = 3;
  config.fault_rate = 0.4f;
  config.max_client_retries = 1;
  const FedDataset fed = toy_fed(clients);
  auto run = [&] {
    ToyAlgorithm algorithm(config);
    return run_federated(algorithm, fed, false);
  };
  const RunResult first = run();
  const RunResult second = run();
  ASSERT_EQ(first.history.size(), second.history.size());
  int total_failures = 0;
  for (std::size_t r = 0; r < first.history.size(); ++r) {
    EXPECT_EQ(first.history[r].participants, second.history[r].participants);
    EXPECT_EQ(first.history[r].failures, second.history[r].failures);
    EXPECT_EQ(first.history[r].retries, second.history[r].retries);
    total_failures += first.history[r].failures;
  }
  EXPECT_GT(total_failures, 0);  // p = 0.4 over 15+ dispatches
  EXPECT_EQ(first.final_state.values(), second.final_state.values());
}

// Aggregation must not depend on reply arrival order: float summation is
// order-sensitive, so aggregating whatever the mailbox yields first made
// multi-threaded runs drift with thread scheduling. Clients stamp their id
// into the update's scalar side channel, the aggregator records the order it
// folds them in, and injected per-dispatch latency scrambles arrivals — the
// recorded order must still match the latency-free run's, because the
// runner folds in selection order through its reorder buffer.
class RecordingAggregator : public WeightedStreamingAggregator {
 public:
  explicit RecordingAggregator(std::vector<int>& seen) : seen_(seen) {}
  void fold(ClientUpdate update) override {
    seen_.push_back(static_cast<int>(update.scalars.at("id")));
    WeightedStreamingAggregator::fold(std::move(update));
  }

 private:
  std::vector<int>& seen_;
};

class OrderRecordingAlgorithm : public ToyAlgorithm {
 public:
  using ToyAlgorithm::ToyAlgorithm;
  ClientUpdate local_update(const nn::ModelState& global,
                            const ClientContext& ctx) override {
    ClientUpdate update = ToyAlgorithm::local_update(global, ctx);
    update.scalars["id"] = static_cast<float>(ctx.client_id);
    return update;
  }
  // Unsharded, so every fold runs inline on the server thread.
  std::unique_ptr<StreamingAggregator> make_aggregator(
      const nn::ModelState&, int) override {
    return std::make_unique<RecordingAggregator>(seen);
  }
  std::vector<int> seen;
};

TEST(RunnerFaults, AggregationOrderIndependentOfArrivalOrder) {
  const int clients = 6;
  const FedDataset fed = toy_fed(clients);
  auto run = [&](int latency_ms) {
    FlConfig config = toy_config(clients);
    config.fault_latency_ms = latency_ms;
    OrderRecordingAlgorithm algorithm(config);
    run_federated(algorithm, fed, false);
    return algorithm.seen;
  };
  const std::vector<int> instant = run(0);
  const std::vector<int> delayed = run(40);
  ASSERT_EQ(instant.size(), static_cast<std::size_t>(2 * clients));
  EXPECT_EQ(instant, delayed);
}

TEST(RunnerDropout, DropoutStreamDoesNotPerturbSampling) {
  // Dropout coins must come from their own stream: with a shared stream,
  // merely changing --dropout changed *which clients are sampled* in every
  // later round. The dropped-out run's per-round participants must be a
  // subset of the fault-free run's samples.
  const int clients = 6;
  auto participants_by_round = [&](float dropout) {
    FlConfig config = toy_config(clients);
    config.rounds = 6;
    config.clients_per_round = 3;
    config.client_dropout_rate = dropout;
    std::mutex mutex;
    std::map<int, std::set<int>> by_round;
    ToyAlgorithm algorithm(config, [&](const ClientContext& ctx) {
      std::lock_guard<std::mutex> lock(mutex);
      by_round[ctx.round].insert(ctx.client_id);
    });
    const FedDataset fed = toy_fed(clients);
    run_federated(algorithm, fed, false);
    return by_round;
  };
  const auto full = participants_by_round(0.0f);
  const auto dropped = participants_by_round(0.45f);
  ASSERT_EQ(full.size(), 6u);
  for (const auto& [round, ids] : dropped) {
    const auto& sampled = full.at(round);
    for (const int id : ids) {
      EXPECT_TRUE(sampled.count(id))
          << "round " << round << ": client " << id
          << " trained only because dropout perturbed the sampling stream";
    }
  }
}

// --- zero-copy broadcast + wire codec traffic ------------------------------

TEST(RunnerTraffic, OneBroadcastSerializationPerRoundRegardlessOfClients) {
  for (const int clients : {2, 6}) {
    FlConfig config = toy_config(clients);
    config.rounds = 3;
    ToyAlgorithm algorithm(config);
    const FedDataset fed = toy_fed(clients);
    const RunResult result = run_federated(algorithm, fed, false);
    ASSERT_EQ(result.history.size(), 3u);
    // Toy state is 2 floats: magic(4) + count(8) + 2*f32(8) = 20 payload
    // bytes, shared by every request of the round.
    const std::uint64_t request_wire = 20 + comm::Message::kHeaderBytes;
    for (const RoundStats& round : result.history) {
      EXPECT_EQ(round.serializations, 1u)
          << clients << " clients must share one snapshot";
      EXPECT_EQ(round.bytes_broadcast,
                static_cast<std::uint64_t>(clients) * request_wire);
      EXPECT_GT(round.bytes_collected, 0u);
    }
    EXPECT_EQ(result.traffic.broadcast_serializations,
              static_cast<std::uint64_t>(config.rounds));
    // Dedup is the whole point: physical strictly below logical.
    EXPECT_LT(result.traffic.physical_bytes, result.traffic.logical_bytes);
  }
}

TEST(RunnerTraffic, RetryResendSharesTheRoundSnapshot) {
  const int clients = 3;
  FlConfig config = toy_config(clients);
  config.rounds = 1;
  config.max_client_retries = 1;
  std::atomic<int> attempts{0};
  ToyAlgorithm algorithm(config, [&](const ClientContext& ctx) {
    if (ctx.client_id == 1 && attempts.fetch_add(1) == 0) {
      throw std::runtime_error("transient");
    }
  });
  const FedDataset fed = toy_fed(clients);
  const RunResult result = run_federated(algorithm, fed, false);
  ASSERT_EQ(result.history.size(), 1u);
  EXPECT_EQ(result.history[0].retries, 1);
  // The retry re-send rides the same buffer: still one serialization, and
  // the extra send shows up in the round's logical broadcast bytes.
  EXPECT_EQ(result.history[0].serializations, 1u);
  const std::uint64_t request_wire = 20 + comm::Message::kHeaderBytes;
  EXPECT_EQ(result.history[0].bytes_broadcast,
            static_cast<std::uint64_t>(clients + 1) * request_wire);
}

TEST(RunnerTraffic, CompactCodecsTrackTheLosslessRun) {
  const int clients = 4;
  auto run_with = [&](comm::Codec codec) {
    FlConfig config = toy_config(clients);
    config.rounds = 3;
    config.wire_codec = codec;
    ToyAlgorithm algorithm(config);
    const FedDataset fed = toy_fed(clients);
    return run_federated(algorithm, fed, false);
  };
  const RunResult f32 = run_with(comm::Codec::kF32);
  const RunResult f16 = run_with(comm::Codec::kF16);
  const RunResult delta16 = run_with(comm::Codec::kDelta16);
  ASSERT_EQ(f16.history.size(), 3u);
  ASSERT_EQ(delta16.history.size(), 3u);
  // Toy values are small power-of-two sums, so the quantized runs stay very
  // close to the lossless one; delta16 encodes sub-unit deltas and lands
  // even tighter.
  EXPECT_LT(f16.final_state.l2_distance(f32.final_state), 1e-2f);
  EXPECT_LT(delta16.final_state.l2_distance(f32.final_state), 1e-3f);
  for (const RunResult* compact : {&f16, &delta16}) {
    EXPECT_EQ(compact->history[0].serializations, 1u);
    // Two-byte elements shrink every broadcast payload (20 -> 17 bytes for
    // the 2-float toy state).
    EXPECT_LT(compact->history[0].bytes_broadcast,
              f32.history[0].bytes_broadcast);
  }
}

// --- client-side update encoder: error feedback + adaptive chooser ----------

TEST(UpdateCodecEF, TopK16ErrorFeedbackCarriesDroppedMass) {
  FlConfig config = toy_config(4);
  config.wire_codec = comm::Codec::kTopK16;
  config.topk_rate = 0.5f;  // keep 1 of the 2 coordinates
  UpdateEncoder encoder(config);
  const nn::ModelState base(std::vector<float>{0.0f, 0.0f});
  ClientUpdate update;
  update.state = nn::ModelState(std::vector<float>{1.0f, 0.9f});
  update.weight = 4.0f;

  comm::Codec chosen = comm::Codec::kAuto;
  const auto bytes1 = encoder.encode(update, &base, 7, &chosen);
  EXPECT_EQ(chosen, comm::Codec::kTopK16);
  const ClientUpdate decoded1 = deserialize_update(bytes1, &base);
  // Round 1 transmits only the larger coordinate; the dropped 0.9 becomes
  // the client's residual.
  EXPECT_NEAR(decoded1.state.values()[0], 1.0f, 1e-3f);
  EXPECT_EQ(decoded1.state.values()[1], 0.0f);
  EXPECT_EQ(decoded1.weight, update.weight);
  ASSERT_TRUE(encoder.has_residual(7));
  EXPECT_NEAR(encoder.residual_norm(7), 0.9, 1e-3);

  // Round 2, same raw update: the carried residual makes the previously
  // dropped coordinate dominant (0.9 + 0.9 > 1.0), so it wins the slot.
  const auto bytes2 = encoder.encode(update, &base, 7, &chosen);
  const ClientUpdate decoded2 = deserialize_update(bytes2, &base);
  EXPECT_EQ(decoded2.state.values()[0], 0.0f);
  EXPECT_NEAR(decoded2.state.values()[1], 1.8f, 1e-2f);
  // Conservation: input mass minus transmitted mass sits in the residual.
  EXPECT_NEAR(encoder.residual_norm(7), 1.0, 1e-2);
}

TEST(UpdateCodecEF, ResidualSurvivesReselectionGaps) {
  FlConfig config = toy_config(4);
  config.wire_codec = comm::Codec::kTopK16;
  config.topk_rate = 0.5f;
  UpdateEncoder encoder(config);
  const nn::ModelState base(std::vector<float>{0.0f, 0.0f});
  ClientUpdate update;
  update.state = nn::ModelState(std::vector<float>{1.0f, 0.9f});

  encoder.encode(update, &base, 7);
  EXPECT_NEAR(encoder.residual_norm(7), 0.9, 1e-3);

  // Client 7 sits out while others participate: its residual must neither
  // decay nor leak into other clients' encodings.
  ClientUpdate other;
  other.state = nn::ModelState(std::vector<float>{0.2f, 0.1f});
  encoder.encode(other, &base, 3);
  encoder.encode(other, &base, 5);
  EXPECT_NEAR(encoder.residual_norm(7), 0.9, 1e-3);
  EXPECT_NEAR(encoder.residual_norm(3), 0.1, 1e-3);

  // When client 7 returns, the gap behaves exactly like a consecutive
  // round: the carried coordinate dominates.
  const auto bytes = encoder.encode(update, &base, 7);
  const ClientUpdate decoded = deserialize_update(bytes, &base);
  EXPECT_EQ(decoded.state.values()[0], 0.0f);
  EXPECT_NEAR(decoded.state.values()[1], 1.8f, 1e-2f);
}

TEST(UpdateCodecEF, AutoChooserRespectsBudgetAndShrinksWithIt) {
  // Spiky vector: 1 in 16 coordinates carries a dominant value, so topk16
  // captures most of the mass; the uniform background needs int8a or
  // better. Deterministic fill — no RNG.
  const std::size_t n = 600;
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t h = static_cast<std::uint32_t>(i) * 2654435761u;
    values[i] = 0.001f * (static_cast<float>(h % 1000u) - 500.0f);
    if (i % 16 == 0) values[i] += 5.0f;
  }
  const nn::ModelState base(std::vector<float>(n, 0.0f));
  ClientUpdate update;
  update.state = nn::ModelState(values);

  std::size_t previous_size = 0;
  std::vector<comm::Codec> chosen_by_budget;
  for (const float budget : {0.3f, 0.02f, 1e-7f}) {
    FlConfig config = toy_config(4);
    config.wire_codec = comm::Codec::kAuto;
    config.codec_error_budget = budget;
    UpdateEncoder encoder(config);
    comm::Codec chosen = comm::Codec::kAuto;
    const auto bytes = encoder.encode(update, &base, 1, &chosen);
    chosen_by_budget.push_back(chosen);
    const ClientUpdate decoded = deserialize_update(bytes, &base);
    const double error =
        UpdateEncoder::relative_error(values, decoded.state.values());
    EXPECT_LE(error, static_cast<double>(budget) + 1e-9)
        << "budget " << budget << " violated by "
        << comm::codec_name(chosen);
    // A tighter budget can only cost more bytes.
    EXPECT_GE(bytes.size(), previous_size) << "budget " << budget;
    previous_size = bytes.size();
  }
  // Loose -> sparsify, medium -> quantize, impossible -> lossless.
  EXPECT_EQ(chosen_by_budget[0], comm::Codec::kTopK16);
  EXPECT_EQ(chosen_by_budget[1], comm::Codec::kInt8A);
  EXPECT_EQ(chosen_by_budget[2], comm::Codec::kF32);
}

TEST(UpdateCodecEF, EncoderIsDeterministicAcrossInstances) {
  FlConfig config = toy_config(4);
  config.wire_codec = comm::Codec::kAuto;
  config.codec_error_budget = 0.02f;
  const nn::ModelState base(std::vector<float>{0.5f, -0.5f});
  ClientUpdate update;
  update.state = nn::ModelState(std::vector<float>{0.75f, -0.25f});
  UpdateEncoder a(config);
  UpdateEncoder b(config);
  comm::Codec chosen_a = comm::Codec::kAuto;
  comm::Codec chosen_b = comm::Codec::kAuto;
  EXPECT_EQ(a.encode(update, &base, 2, &chosen_a),
            b.encode(update, &base, 2, &chosen_b));
  EXPECT_EQ(chosen_a, chosen_b);
}

TEST(UpdateCodecEF, AutoRunIsBitIdenticalAcrossThreadCounts) {
  // The chooser is a pure function of (update, base, config), EF residuals
  // key on client ids, and the fold is exact fixed-point — so the whole
  // lossy run must stay bit-identical for any thread count, including the
  // per-round codec decision record.
  auto run_with_threads = [&](int threads) {
    const int clients = 4;
    FlConfig config = toy_config(clients);
    config.rounds = 4;
    config.threads = threads;
    config.wire_codec = comm::Codec::kAuto;
    config.codec_error_budget = 0.05f;
    ToyAlgorithm algorithm(config);
    const FedDataset fed = toy_fed(clients);
    return run_federated(algorithm, fed, false);
  };
  const RunResult a = run_with_threads(1);
  const RunResult b = run_with_threads(3);
  EXPECT_EQ(a.final_state.values(), b.final_state.values());
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].codec_counts, b.history[i].codec_counts)
        << "round " << i;
    EXPECT_EQ(a.history[i].update_bytes_wire, b.history[i].update_bytes_wire)
        << "round " << i;
    EXPECT_EQ(a.history[i].update_bytes_f32, b.history[i].update_bytes_f32)
        << "round " << i;
  }
}

TEST(UpdateCodecEF, LossyRunsTrackTheLosslessRunWithCompressionStats) {
  const int clients = 4;
  auto run_with = [&](comm::Codec codec, bool async) {
    FlConfig config = toy_config(clients);
    config.rounds = 3;
    config.wire_codec = codec;
    config.codec_error_budget = 0.05f;
    if (async) {
      config.async_mode = true;
      config.async_buffer_size = 4;
    }
    ToyAlgorithm algorithm(config);
    const FedDataset fed = toy_fed(clients);
    return run_federated(algorithm, fed, false);
  };
  const RunResult f32 = run_with(comm::Codec::kF32, false);
  const RunResult topk = run_with(comm::Codec::kTopK16, false);
  const RunResult auto_run = run_with(comm::Codec::kAuto, false);
  // Error feedback keeps the sparsified run near the lossless trajectory:
  // dropped coordinates are re-sent later, so the worst-case drift is one
  // round's withheld mass, not an accumulating bias.
  EXPECT_LT(topk.final_state.l2_distance(f32.final_state), 2.0f);
  // The auto run meets a 5% per-update budget and lands much closer.
  EXPECT_LT(auto_run.final_state.l2_distance(f32.final_state), 0.1f);
  for (const RoundStats& r : topk.history) {
    EXPECT_GT(r.update_bytes_f32, 0u);
    EXPECT_EQ(r.codec_counts[static_cast<std::size_t>(comm::Codec::kTopK16)],
              static_cast<std::uint32_t>(r.participants));
  }
  for (const RoundStats& r : f32.history) {
    // Lossless baseline: wire bytes equal the f32 layout exactly.
    EXPECT_EQ(r.update_bytes_wire, r.update_bytes_f32);
    EXPECT_EQ(r.codec_counts[static_cast<std::size_t>(comm::Codec::kF32)],
              static_cast<std::uint32_t>(r.participants));
  }
  // Async composes with the encoder too (buffered folds, delta bases).
  const RunResult async_auto = run_with(comm::Codec::kAuto, true);
  for (const RoundStats& r : async_auto.history) {
    EXPECT_GT(r.update_bytes_f32, 0u);
    std::uint32_t folded = 0;
    for (const std::uint32_t c : r.codec_counts) folded += c;
    EXPECT_EQ(folded, static_cast<std::uint32_t>(r.participants));
  }
}

// --- streaming aggregation ---------------------------------------------------

// The streaming fold, end to end: the global state must be bit-identical
// for any thread count and any arrival order (injected latency makes replies
// land out of selection order, exercising the reorder buffer).
TEST(StreamingAggregation, NativeFoldMatchesBatchAdapterBitwise) {
  const int clients = 7;
  const FedDataset fed = toy_fed(clients);
  auto run = [&](int threads, int latency_ms) {
    FlConfig config = toy_config(clients);
    config.rounds = 3;
    config.threads = threads;
    config.fault_latency_ms = latency_ms;
    ToyAlgorithm algorithm(config);
    return run_federated(algorithm, fed, false).final_state.values();
  };
  const std::vector<float> reference = run(1, 0);
  ASSERT_EQ(reference.size(), 2u);
  for (const int threads : {1, 3, 8}) {
    for (const int latency_ms : {0, 20}) {
      EXPECT_EQ(run(threads, latency_ms), reference)
          << "threads=" << threads << " latency=" << latency_ms;
    }
  }
}

// A permanently failing client leaves a hole at the fold front while
// latency scrambles arrival order: later ranks pile into the reorder buffer
// until the failure resolves their blocker. The round must complete without
// the missing rank (no deadlock), and repeated runs must agree bitwise —
// fold order is selection order, never arrival order.
TEST(StreamingAggregation, ReorderBufferDrainsAroundPermanentFailures) {
  const int clients = 6;
  const FedDataset fed = toy_fed(clients);
  auto run = [&] {
    FlConfig config = toy_config(clients);
    config.rounds = 3;
    config.fault_latency_ms = 30;
    ToyAlgorithm algorithm(config, [](const ClientContext& ctx) {
      if (ctx.client_id == 2) throw std::runtime_error("permanent failure");
    });
    const RunResult result = run_federated(algorithm, fed, false);
    for (const RoundStats& r : result.history) {
      EXPECT_EQ(r.participants, clients - 1) << "round " << r.round;
      EXPECT_EQ(r.failures, 1) << "round " << r.round;
    }
    return result.final_state.values();
  };
  EXPECT_EQ(run(), run());
}

// Deadline + quorum on top of the reorder buffer: stragglers cut at the
// deadline leave multiple unresolved ranks, and the buffer must still
// drain whatever arrived (in selection order) instead of waiting forever.
TEST(StreamingAggregation, DeadlineQuorumStillDrainsReorderBuffer) {
  const int clients = 8;
  const FedDataset fed = toy_fed(clients);
  FlConfig config = toy_config(clients);
  config.rounds = 2;
  config.round_deadline_ms = 150;
  config.min_participants = 3;
  std::atomic<int> dispatched{0};
  ToyAlgorithm algorithm(config, [&](const ClientContext&) {
    // Every third dispatch stalls well past the deadline.
    if (dispatched.fetch_add(1) % 3 == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  });
  const RunResult result = run_federated(algorithm, fed, false);
  ASSERT_EQ(result.history.size(), 2u);
  for (const RoundStats& r : result.history) {
    EXPECT_GE(r.participants, config.min_participants) << "round " << r.round;
    EXPECT_EQ(r.participants + r.timeouts, clients) << "round " << r.round;
  }
}

// --- mergeable fold algebra --------------------------------------------------

ClientUpdate algebra_update(int k) {
  ClientUpdate update;
  // Deliberately non-power-of-two values: any schedule sensitivity in the
  // accumulator would show up as last-ulp differences here.
  update.state = nn::ModelState(std::vector<float>{
      0.1f + 0.7f * static_cast<float>(k), -3.3f * static_cast<float>(k + 1),
      1.0f / static_cast<float>(k + 3)});
  update.weight = 1.0f + 0.9f * static_cast<float>(k % 5);
  update.scalars["loss"] = 0.2f + 0.15f * static_cast<float>(k % 4);
  return update;
}

// merge() must behave exactly as if the shard's updates had been folded
// here: a disjoint split folded into partials and merged lands on the same
// bits as the flat fold, for any grouping (the fixed-point accumulators
// make integer addition carry the associativity proof).
TEST(MergeAlgebra, ShardPartialsMergeToTheFlatFoldBitwise) {
  const int count = 9;
  WeightedStreamingAggregator flat;
  for (int k = 0; k < count; ++k) flat.fold(algebra_update(k));
  const nn::ModelState reference = flat.finish();

  for (const int shards : {2, 3}) {
    std::vector<std::unique_ptr<WeightedStreamingAggregator>> partials;
    for (int s = 0; s < shards; ++s) {
      partials.push_back(std::make_unique<WeightedStreamingAggregator>());
    }
    for (int k = 0; k < count; ++k) {
      partials[static_cast<std::size_t>(k % shards)]->fold(algebra_update(k));
    }
    auto root = std::move(partials.front());
    for (int s = 1; s < shards; ++s) {
      root->merge(std::move(*partials[static_cast<std::size_t>(s)]));
    }
    EXPECT_EQ(root->folded(), count);
    EXPECT_EQ(root->finish().values(), reference.values())
        << shards << " shards";
  }
}

TEST(MergeAlgebra, MergeIsAssociativeAcrossGroupings) {
  auto make_partials = [] {
    std::vector<std::unique_ptr<WeightedStreamingAggregator>> partials;
    for (int s = 0; s < 3; ++s) {
      partials.push_back(std::make_unique<WeightedStreamingAggregator>());
    }
    for (int k = 0; k < 9; ++k) {
      partials[static_cast<std::size_t>(k % 3)]->fold(algebra_update(k));
    }
    return partials;
  };
  // (a + b) + c
  auto left = make_partials();
  left[0]->merge(std::move(*left[1]));
  left[0]->merge(std::move(*left[2]));
  // a + (b + c)
  auto right = make_partials();
  right[1]->merge(std::move(*right[2]));
  right[0]->merge(std::move(*right[1]));
  EXPECT_EQ(left[0]->finish().values(), right[0]->finish().values());
}

TEST(MergeAlgebra, EmptyPartialIsTheMergeIdentity) {
  WeightedStreamingAggregator a;
  a.fold(algebra_update(0));
  a.fold(algebra_update(1));
  // Merging an empty shard changes nothing.
  WeightedStreamingAggregator empty;
  a.merge(std::move(empty));
  EXPECT_EQ(a.folded(), 2);
  // Merging into an empty aggregator adopts the partial wholesale.
  WeightedStreamingAggregator flat;
  flat.fold(algebra_update(0));
  flat.fold(algebra_update(1));
  WeightedStreamingAggregator adopted;
  WeightedStreamingAggregator donor;
  donor.fold(algebra_update(0));
  donor.fold(algebra_update(1));
  adopted.merge(std::move(donor));
  EXPECT_EQ(adopted.folded(), 2);
  EXPECT_EQ(adopted.finish().values(), flat.finish().values());
}

// The q-FedAvg-style custom weight function (loss^q scaling) rides the same
// accumulator, so its partials must merge exactly too.
TEST(MergeAlgebra, CustomWeightFnPartialsMergeExactly) {
  auto weight_of = [](const ClientUpdate& update) {
    const double loss = static_cast<double>(update.scalars.at("loss"));
    return static_cast<double>(update.weight) * std::pow(loss + 1e-3, 2.0);
  };
  WeightedStreamingAggregator flat{WeightedStreamingAggregator::WeightFn(
      weight_of)};
  WeightedStreamingAggregator even{WeightedStreamingAggregator::WeightFn(
      weight_of)};
  WeightedStreamingAggregator odd{WeightedStreamingAggregator::WeightFn(
      weight_of)};
  for (int k = 0; k < 8; ++k) {
    flat.fold(algebra_update(k));
    (k % 2 == 0 ? even : odd).fold(algebra_update(k));
  }
  even.merge(std::move(odd));
  EXPECT_EQ(even.finish().values(), flat.finish().values());
}

// --- fixed-point fold kernel -------------------------------------------------

// The scalar definition of one fixed-point term: the oracle every
// target_clones variant of Accumulator::add_scaled must match bit for bit.
fixedpoint::Acc oracle_term(float x, double w) {
  return static_cast<fixedpoint::Acc>(
      std::rint(w * static_cast<double>(x) * 0x1p64));
}

bool in_term_domain(float x, double w) {
  return std::abs(w * static_cast<double>(x)) <= 0x1p42;
}

// Accumulator's interface over one fixed-target kernel set, so the oracle
// tests also run the kernels the load-time dispatch does not pick here.
class FixedTargetAccumulator {
 public:
  explicit FixedTargetAccumulator(const fixedpoint::Kernels& kernels)
      : kernels_(&kernels) {}
  void assign_zero(std::size_t n) {
    lo_.assign(n, 0);
    hi_.assign(n, 0);
  }
  void add_scaled(const float* x, double w) {
    kernels_->add_scaled(lo_.data(), hi_.data(), x, w, lo_.size());
  }
  void add(const FixedTargetAccumulator& other) {
    kernels_->add(lo_.data(), hi_.data(), other.lo_.data(), other.hi_.data(),
                  lo_.size());
  }
  void read(double divisor, float* out) const {
    kernels_->read_f32(lo_.data(), hi_.data(), divisor, out, lo_.size());
  }
  void read(double divisor, double* out) const {
    kernels_->read_f64(lo_.data(), hi_.data(), divisor, out, lo_.size());
  }
  fixedpoint::Acc at(std::size_t j) const {
    return static_cast<fixedpoint::Acc>(
        (static_cast<unsigned __int128>(hi_[j]) << 64) | lo_[j]);
  }

 private:
  const fixedpoint::Kernels* kernels_;
  std::vector<std::uint64_t> lo_;
  std::vector<std::uint64_t> hi_;
};

// Runs check(make_accumulator) for Accumulator (the dispatched clone) and
// for every fixed-target kernel set this host can run.
template <typename Check>
void for_each_kernel_target(const Check& check) {
  {
    SCOPED_TRACE("dispatched");
    check([] { return fixedpoint::Accumulator(); });
  }
  const std::pair<fixedpoint::KernelTarget, const char*> targets[] = {
      {fixedpoint::KernelTarget::kX86_64_V3, "x86-64-v3"},
      {fixedpoint::KernelTarget::kBaseline, "baseline"}};
  for (const auto& [target, name] : targets) {
    if (!fixedpoint::kernel_target_supported(target)) continue;
    SCOPED_TRACE(name);
    const fixedpoint::Kernels& kernels =
        fixedpoint::kernels_for_testing(target);
    check([&kernels] { return FixedTargetAccumulator(kernels); });
  }
}

template <typename AnyAccumulator>
void expect_accumulator_matches_oracle(
    AnyAccumulator acc, const std::vector<std::vector<float>>& spans,
    const std::vector<double>& weights, double divisor) {
  ASSERT_EQ(spans.size(), weights.size());
  const std::size_t n = spans.front().size();
  acc.assign_zero(n);
  std::vector<fixedpoint::Acc> ref(n, 0);
  for (std::size_t k = 0; k < spans.size(); ++k) {
    ASSERT_EQ(spans[k].size(), n);
    acc.add_scaled(spans[k].data(), weights[k]);
    for (std::size_t j = 0; j < n; ++j) {
      ref[j] += oracle_term(spans[k][j], weights[k]);
    }
  }
  std::vector<double> as_double(n);
  std::vector<float> as_float(n);
  acc.read(divisor, as_double.data());
  acc.read(divisor, as_float.data());
  std::size_t acc_bad = 0;
  std::size_t double_bad = 0;
  std::size_t float_bad = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double want = fixedpoint::to_double(ref[j]) / divisor;
    if (acc.at(j) != ref[j] && acc_bad++ == 0) {
      ADD_FAILURE() << "accumulator differs at " << j << " of " << n;
    }
    if (std::bit_cast<std::uint64_t>(as_double[j]) !=
            std::bit_cast<std::uint64_t>(want) &&
        double_bad++ == 0) {
      ADD_FAILURE() << "double readback differs at " << j << ": "
                    << as_double[j] << " vs " << want;
    }
    if (std::bit_cast<std::uint32_t>(as_float[j]) !=
            std::bit_cast<std::uint32_t>(static_cast<float>(want)) &&
        float_bad++ == 0) {
      ADD_FAILURE() << "float readback differs at " << j;
    }
  }
  EXPECT_EQ(acc_bad + double_bad + float_bad, 0u) << "span length " << n;
}

// Folds spans[k] with weights[k] into one accumulator per kernel target and
// into int128 oracle sums, then compares every element, the exact double
// readback and the float readback bit for bit. Reports only the first
// mismatch of each kind, so a million-element span cannot flood the log.
void expect_kernel_matches_oracle(const std::vector<std::vector<float>>& spans,
                                  const std::vector<double>& weights,
                                  double divisor) {
  for_each_kernel_target([&](const auto& make_accumulator) {
    expect_accumulator_matches_oracle(make_accumulator(), spans, weights,
                                      divisor);
  });
}

// Every prefix of the edge list, so the lengths cover a partial group, one
// full 8-lane group, and a full group plus a tail.
void expect_prefixes_match_oracle(const std::vector<float>& values,
                                  const std::vector<double>& weights) {
  for (std::size_t len = 1; len <= values.size(); ++len) {
    const std::vector<float> span(values.begin(),
                                  values.begin() + static_cast<std::ptrdiff_t>(len));
    expect_kernel_matches_oracle(
        std::vector<std::vector<float>>(weights.size(), span), weights, 3.0);
  }
}

TEST(FixedPointKernel, MatchesOracleOnZerosSubnormalsAndTies) {
  // Signed zeros, the smallest float subnormal, and products that are
  // double subnormals (1e-300 * tiny) all quantize to 0.
  const std::vector<float> tiny = {0.0f,    -0.0f,    0x1p-149f, -0x1p-149f,
                                   0x1p-126f, 1e-30f, -1e-30f,   0.0f,
                                   -0x1p-140f, 1e-38f, 0.0f};
  for (const double w : {1.0, 1e-300, 0x1p-64, 0x1p60}) {
    expect_prefixes_match_oracle(tiny, {w, w});
  }
  // Exact .5 ties: w = 2^-64 makes the scaled term x itself, w = 2^-65 x/2.
  std::vector<float> ties;
  for (int n = -9; n <= 9; ++n) ties.push_back(static_cast<float>(n) + 0.5f);
  expect_prefixes_match_oracle(ties, {0x1p-64});
  expect_prefixes_match_oracle(ties, {0x1p-65, 0x1p-64, 0x1p-65});
  for (const float x : ties) {
    const double scaled = 0x1p-64 * static_cast<double>(x) * 0x1p64;
    ASSERT_EQ(scaled, std::floor(scaled) + 0.5) << "not a tie: " << x;
  }
}

TEST(FixedPointKernel, MatchesOracleAroundWideMagnitudes) {
  // Scaled magnitudes just below, at and above 2^52 (where rint stops
  // rounding), 2^63 and 2^64 (the low/high word boundary) and 2^105 (the
  // domain edge), with weights that put bits below the grid.
  const std::vector<double> weights = {1.0, 1.0 + 0x1p-30, 0x1.fffffffffffffp-1,
                                       0.7};
  for (const int exponent : {52, 63, 64, 105}) {
    std::vector<float> span;
    for (const int below : {-1, 0}) {
      for (const float mantissa :
           {1.0f, 1.0f + 0x1p-23f, 1.5f, 1.9999999f, 1.2345678f}) {
        for (const float sign : {1.0f, -1.0f}) {
          const float x =
              sign * std::ldexp(mantissa, exponent - 64 + below);
          bool ok = true;
          for (const double w : weights) ok = ok && in_term_domain(x, w);
          if (ok) span.push_back(x);
        }
      }
    }
    ASSERT_GE(span.size(), 9u) << "2^" << exponent;
    expect_prefixes_match_oracle(span, weights);
  }
}

TEST(FixedPointKernel, NegativeTermsWithAZeroLowWordCarryIntoTheHighWord) {
  // -2^64, -2^65, ... have lo == 0: the two's-complement +1 must carry.
  const std::vector<float> span = {-1.0f, -2.0f, -0x1p10f, -0x1p41f, -1.0f,
                                   -3.0f, -4.0f, -0x1p20f, -0x1p33f};
  for (const float x : span) {
    const fixedpoint::Acc term = oracle_term(x, 1.0);
    ASSERT_EQ(static_cast<std::uint64_t>(term), 0u) << x;
    ASSERT_LT(term, 0) << x;
  }
  expect_prefixes_match_oracle(span, {1.0});
  expect_prefixes_match_oracle(span, {1.0, 1.0, 1.0});
}

TEST(FixedPointKernel, MatchesOracleOnRandomMillionParamSpans) {
  rng::Generator gen(4242);
  const std::size_t n = 1'000'003;  // not a multiple of the lane count
  std::vector<std::vector<float>> spans(3, std::vector<float>(n));
  for (std::vector<float>& span : spans) {
    for (float& v : span) {
      // Magnitudes from 2^-70 to 2^30: grid underflow through wide terms.
      const int exponent = static_cast<int>(gen.uniform_index(101)) - 70;
      v = static_cast<float>(std::ldexp(gen.normal(), exponent));
    }
  }
  expect_kernel_matches_oracle(spans, {1.0, 37.25, 0.3 + gen.uniform()}, 3.0);
}

TEST(FixedPointKernel, ReadbackRoundsInt128ToNearestEven) {
  // Sums with more than 53 significant bits: a 2^104 head plus a tail at
  // exactly half an ulp (2^51 — a tie, so the even neighbour wins), half an
  // ulp above an odd head (ties up), and half an ulp plus a sticky 2^0
  // (rounds up). Negated copies check the sign handling; the k = 0 window
  // (|acc| < 2^64) and the 2^63 window edge ride along.
  const std::vector<std::vector<float>> spans = {
      {0x1p40f, 0x1p40f, 0x1p40f, -0x1p40f, 0x1p-1f, 0x1p-2f, 0x1p39f, 0.0f,
       0x1p40f},
      {0x1p-13f, 0x1p-12f, 0x1p-13f, -0x1p-13f, 0x1p-60f, 0x1p-60f,
       0x1p-12f, 0.0f, 0x1p-13f},
      {0.0f, 0x1p-13f, 0x1p-64f, -0x1p-64f, 0.0f, 0x1p-64f, 0x1p-13f, 0.0f,
       0x1p-14f}};
  expect_kernel_matches_oracle(spans, {1.0, 1.0, 1.0}, 1.0);
  // The same sums negated.
  std::vector<std::vector<float>> negated = spans;
  for (std::vector<float>& span : negated) {
    for (float& v : span) v = -v;
  }
  expect_kernel_matches_oracle(negated, {1.0, 1.0, 1.0}, 1.0);
  // Every bit length of the high word.
  std::vector<float> powers;
  for (int e = -64; e <= 41; ++e) {
    powers.push_back(std::ldexp(1.0f + 0x1p-23f, e));
  }
  std::vector<float> odd_tail(powers.size(), 0x1p-64f * 3.0f);
  expect_kernel_matches_oracle({powers, odd_tail}, {1.0, 1.0}, 1.0);
}

TEST(FixedPointKernel, AddCarriesAcrossTheLowWord) {
  rng::Generator gen(99);
  const std::size_t n = 1003;
  std::vector<float> a(n);
  std::vector<float> b(n);
  for (std::size_t j = 0; j < n; ++j) {
    // Random low words: about half the additions carry into the high word,
    // and mixed signs make some of them borrows.
    a[j] = static_cast<float>(gen.normal());
    b[j] = (j % 2 == 0 ? 1.0f : -1.0f) * static_cast<float>(gen.uniform());
  }
  for_each_kernel_target([&](const auto& make_accumulator) {
    auto left = make_accumulator();
    auto right = make_accumulator();
    left.assign_zero(n);
    right.assign_zero(n);
    left.add_scaled(a.data(), 0.999);
    right.add_scaled(b.data(), 1.001);
    right.add_scaled(a.data(), -0.5);
    left.add(right);
    for (std::size_t j = 0; j < n; ++j) {
      const fixedpoint::Acc want = oracle_term(a[j], 0.999) +
                                   oracle_term(b[j], 1.001) +
                                   oracle_term(a[j], -0.5);
      ASSERT_TRUE(left.at(j) == want) << "element " << j;
    }
  });
  fixedpoint::Accumulator left;
  left.assign_zero(n);
  fixedpoint::Accumulator shorter;
  shorter.assign_zero(n - 1);
  EXPECT_THROW(left.add(shorter), CheckError);
}

// finish() is the readback kernel: float(to_double(sum) / to_double(total)).
TEST(FixedPointFold, WeightedFinishMatchesTheScalarFormula) {
  rng::Generator gen(7);
  const std::size_t n = 37;
  WeightedStreamingAggregator fold;
  std::vector<fixedpoint::Acc> sums(n, 0);
  fixedpoint::Acc total = 0;
  for (int k = 0; k < 5; ++k) {
    ClientUpdate update;
    std::vector<float> values(n);
    for (float& v : values) v = static_cast<float>(gen.normal(0.0, 3.0));
    update.weight = static_cast<float>(1 + 7 * k) / 3.0f;
    for (std::size_t j = 0; j < n; ++j) {
      sums[j] += oracle_term(values[j], static_cast<double>(update.weight));
    }
    total += fixedpoint::quantize(static_cast<double>(update.weight));
    update.state = nn::ModelState(std::move(values));
    fold.fold(std::move(update));
  }
  const std::vector<float> got = fold.finish().values();
  for (std::size_t j = 0; j < n; ++j) {
    const float want = static_cast<float>(fixedpoint::to_double(sums[j]) /
                                          fixedpoint::to_double(total));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[j]),
              std::bit_cast<std::uint32_t>(want))
        << "element " << j;
  }
}

// An 11-element state with `term` at `index`: index 2 lands in the first
// full 8-lane group, index 10 in the tail.
std::vector<float> with_term(float term, std::size_t index) {
  std::vector<float> values(11, 0.25f);
  values[index] = term;
  return values;
}

// Terms whose scaled magnitude leaves the overflow-safe domain: above 2^42
// (one float ulp past it), NaN and both infinities.
const float kBadTerms[] = {0x1.000002p42f, -0x1.000002p42f,
                           std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity()};

TEST(FixedPointFold, WeightedFoldChecksTheTermDomain) {
  for (const float bad : kBadTerms) {
    for (const std::size_t index : {2u, 10u}) {
      WeightedStreamingAggregator fold;
      ClientUpdate update;
      update.state = nn::ModelState(with_term(bad, index));
      EXPECT_THROW(fold.fold(update), CheckError) << bad << " at " << index;
    }
  }
  // A term of exactly 2^42, by value or through the weight, is accepted.
  WeightedStreamingAggregator fold;
  ClientUpdate edge;
  edge.state = nn::ModelState(with_term(0x1p42f, 2));
  edge.state.values()[10] = -0x1p42f;
  fold.fold(edge);
  ClientUpdate weighted;
  weighted.state = nn::ModelState(with_term(4.0f, 10));
  weighted.weight = 0x1p40f;
  fold.fold(weighted);
  EXPECT_EQ(fold.folded(), 2);
  // A weight that pushes an ordinary value past 2^42 is rejected too.
  ClientUpdate heavy;
  heavy.state = nn::ModelState(with_term(4.0f, 2));
  heavy.weight = 0x1p41f;
  EXPECT_THROW(fold.fold(heavy), CheckError);
}

TEST(FixedPointFold, ScaffoldFoldChecksBothAccumulators) {
  FlConfig config;
  config.encoder.input_dim = 4;
  config.encoder.hidden_dims = {4};
  config.encoder.feature_dim = 3;
  config.num_classes = 2;
  algos::Scaffold scaffold(config, false);
  const nn::ModelState global = scaffold.initialize();
  const std::size_t model_dim = global.size() / 2;
  ASSERT_GT(model_dim, 10u);
  // The model half folds w * x, the control half x; index 1 and model_dim
  // - 1 put the bad term in a full group and in the tail of each half.
  for (const float bad : kBadTerms) {
    for (const std::size_t index :
         {std::size_t{1}, model_dim - 1, model_dim + 1, 2 * model_dim - 1}) {
      const auto fold = scaffold.make_aggregator(global, 0);
      ClientUpdate update;
      update.state = global;
      update.state.values()[index] = bad;
      EXPECT_THROW(fold->fold(update), CheckError) << bad << " at " << index;
    }
  }
  const auto fold = scaffold.make_aggregator(global, 0);
  ClientUpdate edge;
  edge.state = global;
  edge.state.values()[1] = 0x1p42f;
  edge.state.values()[2 * model_dim - 1] = -0x1p42f;
  fold->fold(edge);
  EXPECT_EQ(fold->folded(), 1);
}

// --- sharded parallel fold ---------------------------------------------------

// The tentpole invariant end to end: with --agg-shards the reorder buffer
// routes ranks to parallel shard aggregators whose merge must land on the
// flat fold's bits — for every shard count, every thread count, and
// arrival orders scrambled by injected latency.
TEST(ShardedAggregation, BitIdenticalAcrossShardAndThreadCounts) {
  const int clients = 8;
  const FedDataset fed = toy_fed(clients);
  auto run = [&](int shards, int threads) {
    FlConfig config = toy_config(clients);
    config.rounds = 3;
    config.threads = threads;
    config.agg_shards = shards;
    config.fault_latency_ms = 15;
    ToyAlgorithm algorithm(config);
    const RunResult result = run_federated(algorithm, fed, false);
    EXPECT_EQ(result.history.size(), 3u);
    for (const RoundStats& r : result.history) {
      EXPECT_EQ(r.participants, clients);
      // Stats must be shard-invariant too (rank-ordered readback).
      EXPECT_GT(r.mean_update_norm, 0.0f);
    }
    return result;
  };
  const RunResult reference = run(1, 1);
  for (const int shards : {1, 2, 8}) {
    for (const int threads : {1, 3, 8}) {
      const RunResult result = run(shards, threads);
      EXPECT_EQ(result.final_state.values(), reference.final_state.values())
          << "shards=" << shards << " threads=" << threads;
      ASSERT_EQ(result.history.size(), reference.history.size());
      for (std::size_t r = 0; r < reference.history.size(); ++r) {
        EXPECT_EQ(result.history[r].mean_update_norm,
                  reference.history[r].mean_update_norm)
            << "shards=" << shards << " threads=" << threads;
      }
    }
  }
}

// Same invariant for the async loop: commit windows fold on shard workers,
// staleness discounts and all, and must match the flat async run bitwise.
TEST(ShardedAggregation, AsyncBitIdenticalAcrossShardAndThreadCounts) {
  const int clients = 12;
  const FedDataset fed = toy_fed(clients);
  auto run = [&](int shards, int threads) {
    FlConfig config = toy_config(clients);
    config.async_mode = true;
    config.rounds = 4;
    config.async_buffer_size = 8;
    config.clients_per_round = 8;
    config.agg_shards = shards;
    config.threads = threads;
    config.fault_latency_ms = 10;
    ToyAlgorithm algorithm(config);
    return run_federated(algorithm, fed, false);
  };
  const RunResult reference = run(1, 1);
  ASSERT_EQ(reference.history.size(), 4u);
  for (const int shards : {1, 2, 8}) {
    for (const int threads : {1, 3, 8}) {
      const RunResult result = run(shards, threads);
      EXPECT_EQ(result.final_state.values(), reference.final_state.values())
          << "shards=" << shards << " threads=" << threads;
      ASSERT_EQ(result.history.size(), reference.history.size());
      for (std::size_t i = 0; i < reference.history.size(); ++i) {
        EXPECT_EQ(result.history[i].mean_update_norm,
                  reference.history[i].mean_update_norm)
            << "shards=" << shards << " threads=" << threads;
        EXPECT_EQ(result.history[i].staleness_mean,
                  reference.history[i].staleness_mean);
      }
    }
  }
}

// Merge interaction with the reorder buffer's failure paths: a permanently
// failed rank leaves a hole in the shard routing, and late ranks released
// at the deadline drain through the shards. Both must stay deterministic
// and identical to the flat fold.
TEST(ShardedAggregation, FailedRanksLeaveShardHolesWithoutDivergence) {
  const int clients = 8;
  const FedDataset fed = toy_fed(clients);
  auto run = [&](int shards) {
    FlConfig config = toy_config(clients);
    config.rounds = 3;
    config.agg_shards = shards;
    config.fault_latency_ms = 20;
    ToyAlgorithm algorithm(config, [](const ClientContext& ctx) {
      if (ctx.client_id == 2) throw std::runtime_error("permanent failure");
    });
    const RunResult result = run_federated(algorithm, fed, false);
    for (const RoundStats& r : result.history) {
      EXPECT_EQ(r.participants, clients - 1) << "round " << r.round;
      EXPECT_EQ(r.failures, 1) << "round " << r.round;
    }
    return result.final_state.values();
  };
  const std::vector<float> reference = run(1);
  EXPECT_EQ(run(2), reference);
  EXPECT_EQ(run(8), reference);
}

TEST(ShardedAggregation, DeadlineQuorumDrainsThroughShards) {
  const int clients = 8;
  const FedDataset fed = toy_fed(clients);
  FlConfig config = toy_config(clients);
  config.rounds = 2;
  config.round_deadline_ms = 150;
  config.min_participants = 3;
  config.agg_shards = 4;
  std::atomic<int> dispatched{0};
  ToyAlgorithm algorithm(config, [&](const ClientContext&) {
    if (dispatched.fetch_add(1) % 3 == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  });
  const RunResult result = run_federated(algorithm, fed, false);
  ASSERT_EQ(result.history.size(), 2u);
  for (const RoundStats& r : result.history) {
    EXPECT_GE(r.participants, config.min_participants) << "round " << r.round;
    EXPECT_EQ(r.participants + r.timeouts, clients) << "round " << r.round;
  }
}

// --- config validation -------------------------------------------------------

TEST(ConfigValidation, MinParticipantsAboveClientsPerRoundFailsFast) {
  const int clients = 4;
  FlConfig config = toy_config(clients);
  config.min_participants = clients + 1;
  // Both the direct validator and the runner entry point must reject the
  // unsatisfiable quorum instead of silently clamping it to the sample size.
  EXPECT_THROW(validate(config), CheckError);
  ToyAlgorithm algorithm(config);
  const FedDataset fed = toy_fed(clients);
  EXPECT_THROW(run_federated(algorithm, fed, false), CheckError);
  config.min_participants = clients;
  EXPECT_NO_THROW(validate(config));
  config.min_participants = 0;
  EXPECT_THROW(validate(config), CheckError);
}

TEST(ConfigValidation, AsyncRejectsSyncOnlyKnobs) {
  FlConfig config = toy_config(4);
  config.async_mode = true;
  EXPECT_NO_THROW(validate(config));
  config.round_deadline_ms = 100;
  EXPECT_THROW(validate(config), CheckError);
  config.round_deadline_ms = 0;
  config.client_dropout_rate = 0.2f;
  EXPECT_THROW(validate(config), CheckError);
  config.client_dropout_rate = 0.0f;
  config.async_buffer_size = 0;
  EXPECT_THROW(validate(config), CheckError);
  config.async_buffer_size = 8;
  config.staleness_alpha = -0.5f;
  EXPECT_THROW(validate(config), CheckError);
}

TEST(ConfigValidation, CodecKnobsBoundsChecked) {
  FlConfig config = toy_config(4);
  config.wire_codec = comm::Codec::kTopK16;
  EXPECT_NO_THROW(validate(config));
  config.topk_rate = 0.0f;
  EXPECT_THROW(validate(config), CheckError);
  config.topk_rate = 1.5f;
  EXPECT_THROW(validate(config), CheckError);
  config.topk_rate = 1.0f;
  EXPECT_NO_THROW(validate(config));
  config.wire_codec = comm::Codec::kAuto;
  config.codec_error_budget = 0.0f;
  EXPECT_THROW(validate(config), CheckError);
  config.codec_error_budget = 2.0f;
  EXPECT_THROW(validate(config), CheckError);
  config.codec_error_budget = 0.01f;
  EXPECT_NO_THROW(validate(config));
  // An enum value that is not a codec (e.g. a corrupted config) fails fast.
  config.wire_codec = static_cast<comm::Codec>(9);
  EXPECT_THROW(validate(config), CheckError);
}

TEST(ConfigValidation, AggShardsBoundsChecked) {
  FlConfig config = toy_config(4);
  EXPECT_NO_THROW(validate(config));  // default agg_shards = 1
  config.agg_shards = 0;
  EXPECT_THROW(validate(config), CheckError);
  config.agg_shards = 4;
  EXPECT_NO_THROW(validate(config));
  // More shards than sampled clients: some shards could never fold.
  config.agg_shards = 5;
  EXPECT_THROW(validate(config), CheckError);
}

TEST(ConfigValidation, AsyncBufferMustDivideByAggShards) {
  FlConfig config = toy_config(8);
  config.async_mode = true;
  config.async_buffer_size = 8;
  config.agg_shards = 4;
  EXPECT_NO_THROW(validate(config));
  config.agg_shards = 3;  // 8 % 3 != 0: uneven shard load every window
  EXPECT_THROW(validate(config), CheckError);
  config.async_mode = false;  // sync mode has no window-divisibility rule
  EXPECT_NO_THROW(validate(config));
}

TEST(ConfigValidation, DeviceClassRangesChecked) {
  FlConfig config = toy_config(4);
  config.device_classes.push_back({"ok", 0.1f, 5, 0.75f, 24});
  EXPECT_NO_THROW(validate(config));
  config.device_classes.push_back({"bad-rate", 1.5f, 0, 1.0f, 0});
  EXPECT_THROW(validate(config), CheckError);
  config.device_classes.pop_back();
  config.device_classes.push_back({"no-period", 0.0f, 0, 0.5f, 0});
  EXPECT_THROW(validate(config), CheckError);
}

// --- staleness weighting -----------------------------------------------------

TEST(StalenessWeight, MatchesClosedForm) {
  EXPECT_FLOAT_EQ(staleness_weight(0, 0.5f), 1.0f);
  EXPECT_FLOAT_EQ(staleness_weight(7, 0.0f), 1.0f);  // alpha 0 disables
  EXPECT_FLOAT_EQ(staleness_weight(1, 1.0f), 0.5f);
  EXPECT_FLOAT_EQ(staleness_weight(3, 0.5f), 0.5f);  // 1/sqrt(4)
  EXPECT_FLOAT_EQ(staleness_weight(3, 1.0f), 0.25f);
  EXPECT_THROW(staleness_weight(-1, 0.5f), CheckError);
}

// --- buffered asynchronous aggregation ---------------------------------------

FlConfig async_toy_config(int clients) {
  FlConfig config = toy_config(clients);
  config.async_mode = true;
  config.rounds = 4;  // commits, not barriered rounds
  config.async_buffer_size = 3;
  config.clients_per_round = 3;  // in-flight request budget
  return config;
}

TEST(AsyncAggregation, CommitsEveryBufferSizeFolds) {
  const int clients = 6;
  FlConfig config = async_toy_config(clients);
  ToyAlgorithm algorithm(config);
  const FedDataset fed = toy_fed(clients);
  const RunResult result = run_federated(algorithm, fed, false);
  ASSERT_EQ(result.history.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const RoundStats& commit = result.history[static_cast<std::size_t>(i)];
    EXPECT_EQ(commit.round, i);
    EXPECT_EQ(commit.committed_version, i + 1);
    EXPECT_EQ(commit.participants, config.async_buffer_size);
    EXPECT_EQ(commit.timeouts, 0);  // sync-only counter stays zero
    EXPECT_EQ(commit.dropped, 0);
  }
  // First window folds only version-0 updates; afterwards the pipeline runs
  // one version behind for the two slots dispatched before each commit.
  EXPECT_FLOAT_EQ(result.history[0].staleness_mean, 0.0f);
  EXPECT_EQ(result.history[0].staleness_max, 0);
  for (int i = 1; i < 4; ++i) {
    const RoundStats& commit = result.history[static_cast<std::size_t>(i)];
    EXPECT_FLOAT_EQ(commit.staleness_mean, 2.0f / 3.0f) << "commit " << i;
    EXPECT_EQ(commit.staleness_max, 1) << "commit " << i;
  }
}

TEST(AsyncAggregation, DeterministicAcrossThreadCountsUnderChurn) {
  const int clients = 9;
  const FedDataset fed = toy_fed(clients);
  auto run = [&](int threads) {
    FlConfig config = toy_config(clients);
    config.async_mode = true;
    config.rounds = 5;
    config.async_buffer_size = 2;
    config.clients_per_round = 4;
    config.max_client_retries = 1;
    config.threads = threads;
    // Three device classes: reliable, flaky+slow, and a diurnal class that
    // is offline for half of the committed versions.
    config.device_classes = {{"fast", 0.0f, 0, 1.0f, 0},
                             {"flaky", 0.3f, 25, 1.0f, 0},
                             {"night", 0.0f, 10, 0.5f, 4}};
    ToyAlgorithm algorithm(config);
    return run_federated(algorithm, fed, false);
  };
  const RunResult reference = run(1);
  ASSERT_EQ(reference.history.size(), 5u);
  for (const int threads : {3, 8}) {
    const RunResult other = run(threads);
    EXPECT_EQ(other.final_state.values(), reference.final_state.values())
        << "threads=" << threads;
    ASSERT_EQ(other.history.size(), reference.history.size());
    for (std::size_t i = 0; i < reference.history.size(); ++i) {
      const RoundStats& a = reference.history[i];
      const RoundStats& b = other.history[i];
      EXPECT_EQ(b.participants, a.participants) << "commit " << i;
      EXPECT_EQ(b.failures, a.failures) << "commit " << i;
      EXPECT_EQ(b.retries, a.retries) << "commit " << i;
      EXPECT_EQ(b.late_dropped, a.late_dropped) << "commit " << i;
      EXPECT_EQ(b.committed_version, a.committed_version) << "commit " << i;
      EXPECT_FLOAT_EQ(b.staleness_mean, a.staleness_mean) << "commit " << i;
      EXPECT_EQ(b.staleness_max, a.staleness_max) << "commit " << i;
      EXPECT_FLOAT_EQ(b.mean_update_norm, a.mean_update_norm)
          << "commit " << i;
    }
  }
}

TEST(AsyncAggregation, StragglersDrainWithoutFoldingIntoLaterVersions) {
  const int clients = 8;
  const FedDataset fed = toy_fed(clients);
  for (const int threads : {1, 3, 8}) {
    FlConfig config = toy_config(clients);
    config.async_mode = true;
    config.rounds = 5;
    config.async_buffer_size = 2;
    config.clients_per_round = 4;
    config.threads = threads;
    config.fault_latency_ms = 30;  // scramble arrival order
    ToyAlgorithm algorithm(config);
    const RunResult result = run_federated(algorithm, fed, false);
    ASSERT_EQ(result.history.size(), 5u);
    int folds = 0;
    int late = 0;
    for (const RoundStats& commit : result.history) {
      folds += commit.participants;
      late += commit.late_dropped;
      EXPECT_EQ(commit.failures, 0);
    }
    // Exactly rounds * buffer_size updates ever fold — a reply left in
    // flight at the final commit is never aggregated into a later version.
    EXPECT_EQ(folds, config.rounds * config.async_buffer_size)
        << "threads=" << threads;
    // Every other dispatch resolves exactly once, as a drained straggler:
    // the in-flight window minus the seq whose fold triggered the final
    // commit.
    EXPECT_EQ(late, config.clients_per_round - 1) << "threads=" << threads;
  }
}

TEST(AsyncAggregation, StalenessDiscountsShiftTheAggregate) {
  // alpha > 0 down-weights stale folds, so the trajectory must differ from
  // the alpha = 0 run under the same schedule — proof the weight is applied
  // — while staying deterministic for a fixed alpha.
  const int clients = 6;
  const FedDataset fed = toy_fed(clients);
  auto run = [&](float alpha) {
    FlConfig config = async_toy_config(clients);
    config.staleness_alpha = alpha;
    ToyAlgorithm algorithm(config);
    return run_federated(algorithm, fed, false).final_state.values();
  };
  EXPECT_EQ(run(0.5f), run(0.5f));
  EXPECT_NE(run(0.0f), run(0.5f));
}

// --- pinned round-engine outputs ---------------------------------------------
//
// Each run below pins the FNV-1a hash of the final global state plus every
// RoundStats field that is a pure function of the seed. The constants were
// recorded before the sync and async loops were folded into one engine, so
// any drift in sampler, dropout or fault-stream consumption, fold order,
// weights or stats roll-up shows up here. Router byte columns and deadline
// runs are left out: both depend on wall-clock timing.

std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const float value : values) {
    const auto bits = std::bit_cast<std::uint32_t>(value);
    for (int b = 0; b < 32; b += 8) {
      hash ^= (bits >> b) & 0xFFu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

// One line per history entry; floats print as hexfloat, so equality is
// bitwise.
std::vector<std::string> pinned_history(const RunResult& result) {
  std::vector<std::string> lines;
  for (const RoundStats& r : result.history) {
    std::ostringstream line;
    line << std::hexfloat << "round " << r.round << " p" << r.participants
         << " drop" << r.dropped << " fail" << r.failures << " retry"
         << r.retries << " tmo" << r.timeouts << " late" << r.late_dropped
         << " wire=" << r.update_bytes_wire << " f32=" << r.update_bytes_f32
         << " codecs";
    for (const std::uint32_t count : r.codec_counts) line << ' ' << count;
    line << " div " << r.mean_divergence << " norm " << r.mean_update_norm
         << " v" << r.committed_version << " stale " << r.staleness_mean
         << '/' << r.staleness_max;
    lines.push_back(line.str());
  }
  return lines;
}

void expect_pinned(const RunResult& result, std::uint64_t state_hash,
                   const std::vector<std::string>& history) {
  const std::uint64_t hash = fnv1a(result.final_state.values());
  EXPECT_EQ(hash, state_hash) << "final state hash 0x" << std::hex << hash;
  EXPECT_EQ(pinned_history(result), history);
}

#if defined(CALIBRE_SANITIZED_BUILD)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif

// Calibre's model bits (the final state and the divergence and norm means)
// depend on how the build vectorizes the SSL training math: a sanitized
// build trains to different floats than the release build the constants
// were recorded in. There only the engine-driven columns are compared.
void expect_pinned_calibre(const RunResult& result, std::uint64_t state_hash,
                           const std::vector<std::string>& history) {
  if (!kSanitizedBuild) {
    expect_pinned(result, state_hash, history);
    return;
  }
  const auto engine_columns = [](std::vector<std::string> lines) {
    const std::regex model_columns(R"(div \S+ norm \S+)");
    for (std::string& line : lines) {
      line = std::regex_replace(line, model_columns, "div - norm -");
    }
    return lines;
  };
  EXPECT_EQ(engine_columns(pinned_history(result)), engine_columns(history));
}

// --- pinned FedDataset contents ------------------------------------------------
//
// FNV-1a over every participating and novel train/test shard (labels,
// latents, inputs) and every SSL pool, in client order. The constants were
// recorded while shards were still copied out eagerly, so they pin that
// materialising a client from the shared splits and its index lists yields
// the same bits. Labels and latents come straight from the generator; the
// inputs pass through a GEMM, so a sanitized build (see above) compares the
// layout hash only.

struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void add(std::uint32_t bits) {
    for (int b = 0; b < 32; b += 8) {
      hash ^= (bits >> b) & 0xFFu;
      hash *= 0x100000001b3ULL;
    }
  }
  void add(const Tensor& t) {
    add(static_cast<std::uint32_t>(t.rows()));
    add(static_cast<std::uint32_t>(t.cols()));
    for (std::int64_t i = 0; i < t.size(); ++i) {
      add(std::bit_cast<std::uint32_t>(t.data()[i]));
    }
  }
  void add(const std::vector<int>& labels) {
    add(static_cast<std::uint32_t>(labels.size()));
    for (const int label : labels) add(static_cast<std::uint32_t>(label));
  }
};

class FedDataGolden : public FedDataBuilder {
 protected:
  // Builds from `synth` over the fixture's partition (4 participating, 2
  // novel clients) and checks both hashes.
  void expect_pinned_fed(const data::SyntheticDataset& synth,
                         std::uint64_t layout_hash,
                         std::uint64_t pixel_hash) {
    rng::Generator gen(11);
    const FedDataset fed = build_fed_dataset(synth, partition_, 4, gen);
    Fnv1a layout;
    Fnv1a pixels;
    const auto add_shard = [&](const data::Dataset& shard) {
      layout.add(shard.labels);
      layout.add(shard.latents);
      pixels.add(shard.x);
    };
    for (int c = 0; c < fed.num_train_clients(); ++c) {
      add_shard(fed.train_shard(c));
      add_shard(fed.test_shard(c));
    }
    for (int n = 0; n < fed.num_novel_clients(); ++n) {
      add_shard(fed.novel_train_shard(n));
      add_shard(fed.novel_test_shard(n));
    }
    for (int c = 0; c < fed.num_train_clients(); ++c) {
      (fed.pool_is_latent ? layout : pixels).add(fed.client_ssl_pool(c));
    }
    EXPECT_EQ(layout.hash, layout_hash)
        << "layout hash 0x" << std::hex << layout.hash;
    if (!kSanitizedBuild) {
      EXPECT_EQ(pixels.hash, pixel_hash)
          << "pixel hash 0x" << std::hex << pixels.hash;
    }
  }
};

TEST_F(FedDataGolden, LatentPoolsWithUnlabeledShare) {
  expect_pinned_fed(synth_, 0xd4a02625d7209295ULL, 0x4121b6fbc50b1f01ULL);
}

TEST_F(FedDataGolden, LabeledOnlyPools) {
  data::SyntheticConfig config = synth_.config;
  config.unlabeled_samples = 0;
  expect_pinned_fed(data::make_synthetic(config), 0xfcedcf825c464a4fULL,
                    0x4121b6fbc50b1f01ULL);
}

// A richer toy than ToyAlgorithm: a 48-float state, per-(client, round)
// seeded updates, client-dependent weights and a "divergence" scalar, folded
// by the native weighted aggregator.
class PinnedToyAlgorithm : public Algorithm {
 public:
  using Algorithm::Algorithm;
  std::string name() const override { return "PinnedToy"; }
  nn::ModelState initialize() override {
    std::vector<float> values(48);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = 0.1f * static_cast<float>(i % 7) - 0.3f;
    }
    return nn::ModelState(std::move(values));
  }
  ClientUpdate local_update(const nn::ModelState& global,
                            const ClientContext& ctx) override {
    rng::Generator gen(ctx.seed);
    std::vector<float> values = global.values();
    for (float& value : values) {
      value += 0.05f * static_cast<float>(gen.normal()) +
               0.01f * static_cast<float>(ctx.client_id);
    }
    ClientUpdate update;
    update.state = nn::ModelState(std::move(values));
    update.weight = 1.0f + static_cast<float>(ctx.client_id % 3);
    update.scalars["divergence"] =
        0.1f + 0.02f * static_cast<float>(ctx.client_id);
    return update;
  }
  std::unique_ptr<StreamingAggregator> make_aggregator(
      const nn::ModelState&, int) override {
    return std::make_unique<WeightedStreamingAggregator>();
  }
  double personalize(const nn::ModelState&,
                     const PersonalizationContext&) override {
    return 0.5;
  }
};

FlConfig pinned_toy_config() {
  FlConfig config = toy_config(10);
  config.rounds = 4;
  config.clients_per_round = 6;
  return config;
}

RunResult run_pinned_toy(const FlConfig& config) {
  PinnedToyAlgorithm algorithm(config);
  const FedDataset fed = toy_fed(config.num_train_clients);
  return run_federated(algorithm, fed, false);
}

// Calibre (SimCLR) on a tiny Dirichlet federation: 8 train clients plus one
// novel client, so its divergence-weighted fold is pinned too.
struct PinnedWorld {
  data::SyntheticDataset synth;
  FedDataset fed;
  FlConfig config;
};

const PinnedWorld& pinned_world() {
  static const PinnedWorld* world = [] {
    auto* w = new PinnedWorld();
    data::SyntheticConfig dataset_config;
    dataset_config.num_classes = 4;
    dataset_config.input_dim = 16;
    dataset_config.latent_dim = 6;
    dataset_config.train_samples = 400;
    dataset_config.test_samples = 200;
    dataset_config.unlabeled_samples = 80;
    dataset_config.seed = 177;
    w->synth = data::make_synthetic(dataset_config);
    data::PartitionConfig partition_config;
    partition_config.num_clients = 9;
    partition_config.samples_per_client = 30;
    partition_config.test_samples_per_client = 12;
    rng::Generator partition_gen(178);
    const data::Partition partition = data::partition_dirichlet(
        w->synth.train, w->synth.test, partition_config, 0.3, partition_gen);
    rng::Generator fed_gen(179);
    w->fed = build_fed_dataset(w->synth, partition, 8, fed_gen);
    w->config.encoder.input_dim = 16;
    w->config.encoder.hidden_dims = {16};
    w->config.encoder.feature_dim = 8;
    w->config.num_classes = 4;
    w->config.rounds = 3;
    w->config.clients_per_round = 4;
    w->config.local_epochs = 1;
    w->config.num_train_clients = 8;
    w->config.threads = 2;
    return w;
  }();
  return *world;
}

RunResult run_pinned_calibre(const FlConfig& config) {
  const auto algorithm = algos::make_algorithm("Calibre (SimCLR)", config);
  return run_federated(*algorithm, pinned_world().fed, false);
}

std::vector<DeviceClass> pinned_device_classes() {
  return {{"fast", 0.0f, 0, 1.0f, 0},
          {"flaky", 0.35f, 5, 1.0f, 0},
          {"night", 0.1f, 3, 0.5f, 2}};
}

TEST(RunnerGolden, SyncCalibrePlain) {
  const RunResult result = run_pinned_calibre(pinned_world().config);
  expect_pinned_calibre(
      result, 0xc28fe2dcdc928d19ULL,
      {"round 0 p4 drop0 fail0 retry0 tmo0 late0 wire=70664 f32=70664 codecs 0 "
       "4 0 0 0 0 div 0x1.c37688p-2 norm 0x1.11ccecp+3 v0 stale 0x0p+0/0",
       "round 1 p4 drop0 fail0 retry0 tmo0 late0 wire=70664 f32=70664 codecs 0 "
       "4 0 0 0 0 div 0x1.cc7ce2p-2 norm 0x1.11b78ap+3 v0 stale 0x0p+0/0",
       "round 2 p4 drop0 fail0 retry0 tmo0 late0 wire=70664 f32=70664 codecs 0 "
       "4 0 0 0 0 div 0x1.c0b4cp-2 norm 0x1.11b3cap+3 v0 stale 0x0p+0/0"});
}

TEST(RunnerGolden, SyncDropout) {
  FlConfig config = pinned_toy_config();
  config.client_dropout_rate = 0.3f;
  expect_pinned(
      run_pinned_toy(config), 0xbaa2acf30df36003ULL,
      {"round 0 p4 drop2 fail0 retry0 tmo0 late0 wire=904 f32=904 codecs 0 4 0 "
       "0 0 0 div 0x1.b851ecp-3 norm 0x1.77445ap+0 v0 stale 0x0p+0/0",
       "round 1 p5 drop1 fail0 retry0 tmo0 late0 wire=1130 f32=1130 codecs 0 5 "
       "0 0 0 0 div 0x1.c28f5cp-3 norm 0x1.a14096p+0 v0 stale 0x0p+0/0",
       "round 2 p6 drop0 fail0 retry0 tmo0 late0 wire=1356 f32=1356 codecs 0 6 "
       "0 0 0 0 div 0x1.851eb8p-3 norm 0x1.cdbf44p+0 v0 stale 0x0p+0/0",
       "round 3 p4 drop2 fail0 retry0 tmo0 late0 wire=904 f32=904 codecs 0 4 0 "
       "0 0 0 div 0x1.a3d70ap-3 norm 0x1.055d68p+1 v0 stale 0x0p+0/0"});
}

TEST(RunnerGolden, SyncFaultsRetriesDeviceClasses) {
  FlConfig config = pinned_toy_config();
  config.max_client_retries = 1;
  config.device_classes = pinned_device_classes();
  expect_pinned(
      run_pinned_toy(config), 0xd77a4080175554b0ULL,
      {"round 0 p5 drop0 fail3 retry2 tmo0 late0 wire=1130 f32=1130 codecs 0 5 "
       "0 0 0 0 div 0x1.6872bp-3 norm 0x1.6bb614p+0 v0 stale 0x0p+0/0",
       "round 1 p6 drop0 fail1 retry1 tmo0 late0 wire=1356 f32=1356 codecs 0 6 "
       "0 0 0 0 div 0x1.d70a3ep-3 norm 0x1.86da56p+0 v0 stale 0x0p+0/0",
       "round 2 p3 drop0 fail6 retry3 tmo0 late0 wire=678 f32=678 codecs 0 3 0 "
       "0 0 0 div 0x1.7e4b18p-3 norm 0x1.ae856ap+0 v0 stale 0x0p+0/0",
       "round 3 p6 drop0 fail1 retry1 tmo0 late0 wire=1356 f32=1356 codecs 0 6 "
       "0 0 0 0 div 0x1.7e4b18p-3 norm 0x1.da38fcp+0 v0 stale 0x0p+0/0"});
}

TEST(RunnerGolden, SyncCalibreTopK16TwoShards) {
  FlConfig config = pinned_world().config;
  config.wire_codec = comm::Codec::kTopK16;
  config.agg_shards = 2;
  expect_pinned_calibre(
      run_pinned_calibre(config), 0x100dcf160a56fa7ULL,
      {"round 0 p4 drop0 fail0 retry0 tmo0 late0 wire=6812 f32=70664 codecs 0 "
       "0 0 0 4 0 div 0x1.c38258p-2 norm 0x1.11cc1ep+3 v0 stale 0x0p+0/0",
       "round 1 p4 drop0 fail0 retry0 tmo0 late0 wire=6812 f32=70664 codecs 0 "
       "0 0 0 4 0 div 0x1.ca4feap-2 norm 0x1.11b9e8p+3 v0 stale 0x0p+0/0",
       "round 2 p4 drop0 fail0 retry0 tmo0 late0 wire=6812 f32=70664 codecs 0 "
       "0 0 0 4 0 div 0x1.c6e214p-2 norm 0x1.11bdacp+3 v0 stale 0x0p+0/0"});
}

TEST(RunnerGolden, AsyncStalenessAlpha) {
  FlConfig config = pinned_toy_config();
  config.async_mode = true;
  config.rounds = 5;
  config.clients_per_round = 4;
  config.async_buffer_size = 3;
  config.staleness_alpha = 0.5f;
  config.fault_latency_ms = 5;  // scrambles arrival order
  expect_pinned(
      run_pinned_toy(config), 0x514b8d9de9a81fc3ULL,
      {"round 0 p3 drop0 fail0 retry0 tmo0 late0 wire=678 f32=678 codecs 0 3 0 "
       "0 0 0 div 0x1.70a3d6p-3 norm 0x1.68fbd6p+0 v1 stale 0x0p+0/0",
       "round 1 p3 drop0 fail0 retry0 tmo0 late0 wire=678 f32=678 codecs 0 3 0 "
       "0 0 0 div 0x1.0369dp-2 norm 0x1.829c1p+0 v2 stale 0x1p+0/1",
       "round 2 p3 drop0 fail0 retry0 tmo0 late0 wire=678 f32=678 codecs 0 3 0 "
       "0 0 0 div 0x1.47ae14p-3 norm 0x1.843bfep+0 v3 stale 0x1p+0/1",
       "round 3 p3 drop0 fail0 retry0 tmo0 late0 wire=678 f32=678 codecs 0 3 0 "
       "0 0 0 div 0x1.7e4b18p-3 norm 0x1.9f75fcp+0 v4 stale 0x1p+0/1",
       "round 4 p3 drop0 fail0 retry0 tmo0 late3 wire=678 f32=678 codecs 0 3 0 "
       "0 0 0 div 0x1.a740dap-3 norm 0x1.b30e94p+0 v5 stale 0x1p+0/1"});
}

TEST(RunnerGolden, AsyncCalibreFaultsTopK16TwoShards) {
  FlConfig config = pinned_world().config;
  config.async_mode = true;
  config.rounds = 4;
  config.async_buffer_size = 4;
  config.agg_shards = 2;
  config.max_client_retries = 1;
  config.device_classes = pinned_device_classes();
  config.wire_codec = comm::Codec::kTopK16;
  expect_pinned_calibre(
      run_pinned_calibre(config), 0x99ef15c03d263e77ULL,
      {"round 0 p4 drop0 fail2 retry1 tmo0 late0 wire=6812 f32=70664 codecs 0 "
       "0 0 0 4 0 div 0x1.c50588p-2 norm 0x1.11c69cp+3 v1 stale 0x0p+0/0",
       "round 1 p4 drop0 fail1 retry1 tmo0 late0 wire=6812 f32=70664 codecs 0 "
       "0 0 0 4 0 div 0x1.c3afb2p-2 norm 0x1.11bc3p+3 v2 stale 0x1.8p-1/1",
       "round 2 p4 drop0 fail2 retry1 tmo0 late0 wire=6812 f32=70664 codecs 0 "
       "0 0 0 4 0 div 0x1.ad7d28p-2 norm 0x1.11baa6p+3 v3 stale 0x1p-1/1",
       "round 3 p4 drop0 fail0 retry0 tmo0 late3 wire=6812 f32=70664 codecs 0 "
       "0 0 0 4 0 div 0x1.b8576p-2 norm 0x1.11a852p+3 v4 stale 0x1.8p-1/1"});
}

// calibre_cli --load personalizes a saved state through
// personalize_clients. A fresh algorithm personalizing a run's final state
// must reproduce the run's own accuracies, novel clients and the
// personalization cap included.
TEST(PersonalizeClients, FreshAlgorithmReproducesRunAccuracies) {
  FlConfig config = pinned_world().config;
  config.personalize_cap = 5;
  const auto trained = algos::make_algorithm("Calibre (SimCLR)", config);
  const RunResult result =
      run_federated(*trained, pinned_world().fed, /*personalize_novel=*/true);
  ASSERT_EQ(result.train_accuracies.size(), 5u);
  ASSERT_EQ(result.novel_accuracies.size(), 1u);

  const auto fresh = algos::make_algorithm("Calibre (SimCLR)", config);
  RunResult personalized;
  personalize_clients(*fresh, result.final_state, pinned_world().fed,
                      /*personalize_novel=*/true, personalized);
  const auto bits = [](const std::vector<double>& values) {
    std::vector<std::uint64_t> out;
    for (const double value : values) {
      out.push_back(std::bit_cast<std::uint64_t>(value));
    }
    return out;
  };
  EXPECT_EQ(bits(personalized.train_accuracies),
            bits(result.train_accuracies));
  EXPECT_EQ(bits(personalized.novel_accuracies),
            bits(result.novel_accuracies));
}

TEST(DeriveSeed, DeterministicAndDistinct) {
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t round = 0; round < 10; ++round) {
    for (std::uint64_t client = 0; client < 10; ++client) {
      seeds.insert(derive_seed(42, round, client));
    }
  }
  EXPECT_EQ(seeds.size(), 100u);
}

}  // namespace
}  // namespace calibre::fl
