// Tests for the Calibre core: prototype losses, divergence weighting, and
// the pFL-SSL / Calibre algorithms' state handling.
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "algos/fedema.h"
#include "common/check.h"
#include "core/calibre.h"
#include "core/divergence.h"
#include "core/prototype_loss.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fed_data.h"
#include "fl/runner.h"
#include "nn/optim.h"
#include "ssl/simclr.h"

namespace calibre::core {
namespace {

using tensor::Tensor;

nn::EncoderConfig small_encoder() {
  nn::EncoderConfig config;
  config.input_dim = 12;
  config.hidden_dims = {16};
  config.feature_dim = 8;
  return config;
}

ssl::SslConfig small_ssl() {
  ssl::SslConfig config;
  config.proj_hidden = 12;
  config.proj_dim = 6;
  return config;
}

ssl::SslForward make_forward(ssl::SimClr& method, std::uint64_t seed,
                             int n = 16) {
  rng::Generator gen(seed);
  const Tensor v1 = Tensor::randn(n, 12, gen);
  const Tensor v2 = Tensor::randn(n, 12, gen);
  return method.forward(v1, v2);
}

TEST(PrototypeLoss, BothTermsPresentAndFinite) {
  ssl::SimClr method(small_encoder(), small_ssl(), 1);
  const ssl::SslForward fwd = make_forward(method, 2);
  PrototypeLossConfig config;
  rng::Generator gen(3);
  const PrototypeLosses losses = compute_prototype_losses(fwd, config, gen);
  ASSERT_TRUE(losses.l_n);
  ASSERT_TRUE(losses.l_p);
  EXPECT_TRUE(std::isfinite(losses.l_n->value(0, 0)));
  EXPECT_TRUE(std::isfinite(losses.l_p->value(0, 0)));
  EXPECT_GT(losses.batch_divergence, 0.0f);
}

TEST(PrototypeLoss, AblationFlagsHonored) {
  ssl::SimClr method(small_encoder(), small_ssl(), 4);
  const ssl::SslForward fwd = make_forward(method, 5);
  rng::Generator gen(6);
  PrototypeLossConfig no_ln;
  no_ln.use_ln = false;
  const PrototypeLosses only_lp = compute_prototype_losses(fwd, no_ln, gen);
  EXPECT_FALSE(only_lp.l_n);
  EXPECT_TRUE(only_lp.l_p);
  PrototypeLossConfig no_lp;
  no_lp.use_lp = false;
  const PrototypeLosses only_ln = compute_prototype_losses(fwd, no_lp, gen);
  EXPECT_TRUE(only_ln.l_n);
  EXPECT_FALSE(only_ln.l_p);
}

TEST(PrototypeLoss, TinyBatchDegradesGracefully) {
  ssl::SimClr method(small_encoder(), small_ssl(), 7);
  const ssl::SslForward fwd = make_forward(method, 8, /*n=*/3);
  rng::Generator gen(9);
  const PrototypeLosses losses =
      compute_prototype_losses(fwd, PrototypeLossConfig{}, gen);
  EXPECT_FALSE(losses.l_n);
  EXPECT_FALSE(losses.l_p);
}

TEST(PrototypeLoss, BothLnFormsAreFiniteAndDifferentiable) {
  ssl::SimClr method(small_encoder(), small_ssl(), 10);
  for (const LnForm form : {LnForm::kProtoNce, LnForm::kPaper}) {
    const ssl::SslForward fwd = make_forward(method, 11);
    PrototypeLossConfig config;
    config.ln_form = form;
    config.use_lp = false;
    rng::Generator gen(12);
    const PrototypeLosses losses = compute_prototype_losses(fwd, config, gen);
    ASSERT_TRUE(losses.l_n);
    for (const ag::VarPtr& p : method.trainable_parameters()) p->zero_grad();
    ag::backward(losses.l_n);
    // Gradient reaches the encoder.
    double grad_norm = 0.0;
    for (const ag::VarPtr& p : method.encoder().parameters()) {
      grad_norm += p->grad.squared_norm();
    }
    EXPECT_GT(grad_norm, 0.0);
  }
}

TEST(PrototypeLoss, FixedCentroidsPath) {
  ssl::SimClr method(small_encoder(), small_ssl(), 13);
  const ssl::SslForward fwd = make_forward(method, 14);
  rng::Generator gen(15);
  Tensor centroids = Tensor::randn(4, 8, gen);
  const PrototypeLosses losses = compute_prototype_losses(
      fwd, PrototypeLossConfig{}, gen, &centroids);
  ASSERT_TRUE(losses.l_n);
  ASSERT_TRUE(losses.l_p);
  EXPECT_TRUE(std::isfinite(losses.l_n->value(0, 0)));
}

TEST(PrototypeLoss, RegularizersAreMinimizable) {
  // Gradient descent on l_n + l_p alone must reduce the combined objective:
  // the regularizers are trainable signals, not noise. (The euclidean
  // KMeans divergence is not monotone here because the losses act on
  // cosine-normalised features, so the loss value itself is asserted.)
  ssl::SimClr method(small_encoder(), small_ssl(), 16);
  nn::Sgd optimizer(method.trainable_parameters(), {0.05f, 0.9f, 0.0f});
  rng::Generator data_gen(17);
  const Tensor v1 = Tensor::randn(16, 12, data_gen);
  const Tensor v2 = Tensor::randn(16, 12, data_gen);
  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int step = 0; step < 25; ++step) {
    rng::Generator gen(18);  // same KMeans stream every step
    optimizer.zero_grad();
    const ssl::SslForward fwd = method.forward(v1, v2);
    const PrototypeLosses losses =
        compute_prototype_losses(fwd, PrototypeLossConfig{}, gen);
    ASSERT_TRUE(losses.l_n && losses.l_p);
    const ag::VarPtr loss = ag::add(losses.l_n, losses.l_p);
    ag::backward(loss);
    optimizer.step();
    if (step == 0) first_loss = loss->value(0, 0);
    last_loss = loss->value(0, 0);
    ASSERT_TRUE(std::isfinite(last_loss));
  }
  EXPECT_LT(last_loss, first_loss);
}

// --- divergence ---------------------------------------------------------------

TEST(Divergence, WeightsNormalisedAndOrdered) {
  const std::vector<float> divergences = {0.1f, 0.4f, 0.2f};
  const std::vector<float> samples = {1.0f, 1.0f, 1.0f};
  const std::vector<float> weights =
      divergence_weights(divergences, samples, DivergenceMode::kInverse);
  double total = 0.0;
  for (const float w : weights) total += w;
  EXPECT_NEAR(total, 1.0, 1e-6);
  // Inverse mode: lowest divergence -> highest weight.
  EXPECT_GT(weights[0], weights[2]);
  EXPECT_GT(weights[2], weights[1]);
  // Proportional mode: reversed ordering.
  const std::vector<float> proportional =
      divergence_weights(divergences, samples, DivergenceMode::kProportional);
  EXPECT_LT(proportional[0], proportional[2]);
  EXPECT_LT(proportional[2], proportional[1]);
}

TEST(Divergence, EqualDivergencesReduceToSampleWeights) {
  const std::vector<float> divergences = {0.3f, 0.3f};
  const std::vector<float> samples = {1.0f, 3.0f};
  const std::vector<float> weights =
      divergence_weights(divergences, samples);
  EXPECT_NEAR(weights[0], 0.25f, 1e-5f);
  EXPECT_NEAR(weights[1], 0.75f, 1e-5f);
}

TEST(Divergence, Validation) {
  EXPECT_THROW(divergence_weights({}, {}), CheckError);
  EXPECT_THROW(divergence_weights({0.1f}, {1.0f, 2.0f}), CheckError);
  EXPECT_THROW(divergence_weights({-0.1f}, {1.0f}), CheckError);
}

TEST(Divergence, ClientDivergencePositive) {
  ssl::SimClr method(small_encoder(), small_ssl(), 19);
  rng::Generator gen(20);
  const Tensor inputs = Tensor::randn(30, 12, gen);
  const float divergence = client_divergence(method, inputs, 5, gen);
  EXPECT_GT(divergence, 0.0f);
  // Tighter (duplicated) inputs give smaller divergence.
  Tensor duplicated(30, 12);
  for (std::int64_t r = 0; r < 30; ++r) {
    for (std::int64_t c = 0; c < 12; ++c) {
      duplicated(r, c) = inputs(r % 3, c);
    }
  }
  const float tight = client_divergence(method, duplicated, 5, gen);
  EXPECT_LT(tight, divergence);
}

// --- calibre naming / aggregation ------------------------------------------------

TEST(Calibre, NameReflectsAblation) {
  fl::FlConfig config;
  config.encoder = small_encoder();
  CalibreConfig full;
  EXPECT_EQ(Calibre(config, ssl::Kind::kSimClr, full).name(),
            "Calibre (SimCLR)");
  CalibreConfig ln_only;
  ln_only.prototype.use_lp = false;
  EXPECT_EQ(Calibre(config, ssl::Kind::kSwav, ln_only).name(),
            "Calibre (SwAV) [Ln]");
  CalibreConfig none;
  none.prototype.use_ln = false;
  none.prototype.use_lp = false;
  none.divergence_weighted_aggregation = false;
  EXPECT_EQ(Calibre(config, ssl::Kind::kSmog, none).name(),
            "Calibre (SMoG) [none] [fedavg]");
}

TEST(Calibre, AggregateUsesDivergences) {
  fl::FlConfig config;
  config.encoder = small_encoder();
  Calibre calibre(config, ssl::Kind::kSimClr, CalibreConfig{});
  fl::ClientUpdate tight;
  tight.state = nn::ModelState(std::vector<float>{1.0f});
  tight.weight = 1.0f;
  tight.scalars["divergence"] = 0.01f;
  fl::ClientUpdate loose;
  loose.state = nn::ModelState(std::vector<float>{3.0f});
  loose.weight = 1.0f;
  loose.scalars["divergence"] = 10.0f;
  const nn::ModelState merged =
      calibre.aggregate(nn::ModelState(), {tight, loose}, 0);
  // The tight client dominates: result close to 1, far from the mean 2.
  EXPECT_LT(merged.values()[0], 1.1f);
}

TEST(Calibre, AggregateFallsBackToFedAvgWhenDisabled) {
  fl::FlConfig config;
  config.encoder = small_encoder();
  CalibreConfig calibre_config;
  calibre_config.divergence_weighted_aggregation = false;
  Calibre calibre(config, ssl::Kind::kSimClr, calibre_config);
  fl::ClientUpdate a;
  a.state = nn::ModelState(std::vector<float>{1.0f});
  a.weight = 1.0f;
  a.scalars["divergence"] = 0.01f;
  fl::ClientUpdate b;
  b.state = nn::ModelState(std::vector<float>{3.0f});
  b.weight = 1.0f;
  b.scalars["divergence"] = 10.0f;
  const nn::ModelState merged =
      calibre.aggregate(nn::ModelState(), {a, b}, 0);
  EXPECT_FLOAT_EQ(merged.values()[0], 2.0f);
}

// --- method reuse -------------------------------------------------------------
//
// PflSsl lends each call a method from a free list instead of building one.
// A reused method must compute exactly what a freshly built one computes:
// client B's results after client A's call on the same instance must equal
// B's results on a new instance, bit for bit.

struct ReuseWorld {
  data::SyntheticDataset synth;
  fl::FedDataset fed;
  // The participating clients' shards and SSL pools, materialised once so
  // contexts can point at them.
  std::vector<data::Dataset> train;
  std::vector<data::Dataset> test;
  std::vector<Tensor> ssl_pools;
  fl::FlConfig config;
  ssl::SslConfig ssl;
};

const ReuseWorld& reuse_world() {
  static const ReuseWorld* world = [] {
    auto* w = new ReuseWorld();
    data::SyntheticConfig dataset_config;
    dataset_config.num_classes = 3;
    dataset_config.input_dim = 12;
    dataset_config.latent_dim = 5;
    dataset_config.train_samples = 240;
    dataset_config.test_samples = 120;
    dataset_config.unlabeled_samples = 40;
    dataset_config.seed = 81;
    w->synth = data::make_synthetic(dataset_config);
    data::PartitionConfig partition_config;
    partition_config.num_clients = 5;
    partition_config.samples_per_client = 30;
    partition_config.test_samples_per_client = 12;
    rng::Generator partition_gen(82);
    const data::Partition partition = data::partition_dirichlet(
        w->synth.train, w->synth.test, partition_config, 0.5, partition_gen);
    rng::Generator fed_gen(83);
    w->fed = fl::build_fed_dataset(w->synth, partition, 4, fed_gen);
    for (int c = 0; c < w->fed.num_train_clients(); ++c) {
      w->train.push_back(w->fed.train_shard(c));
      w->test.push_back(w->fed.test_shard(c));
      w->ssl_pools.push_back(w->fed.client_ssl_pool(c));
    }

    w->config.encoder = small_encoder();
    w->config.num_classes = 3;
    w->config.rounds = 2;
    w->config.clients_per_round = 3;
    w->config.num_train_clients = 4;
    // Two epochs of 16-, 16- and 8-row batches over a 40-row pool: six
    // optimizer steps, so EMA targets move, the SMoG groups drift, and 160
    // keys wrap the 48-slot MoCo queue, leaving its cursor mid-queue before
    // the next client's call.
    w->config.local_epochs = 2;
    w->config.batch_size = 16;
    w->config.seed = 84;
    w->ssl = small_ssl();
    w->ssl.moco_queue_size = 48;
    w->ssl.num_prototypes = 5;
    return w;
  }();
  return *world;
}

fl::ClientContext client_context(int client, std::uint64_t seed) {
  const ReuseWorld& world = reuse_world();
  fl::ClientContext ctx;
  ctx.client_id = client;
  ctx.train = &world.train[static_cast<std::size_t>(client)];
  ctx.ssl_pool = &world.ssl_pools[static_cast<std::size_t>(client)];
  ctx.oracle = &world.fed.oracle;
  ctx.seed = seed;
  return ctx;
}

fl::PersonalizationContext personalization_context(int client,
                                                   std::uint64_t seed) {
  const ReuseWorld& world = reuse_world();
  fl::PersonalizationContext ctx;
  ctx.client_id = client;
  ctx.train = &world.train[static_cast<std::size_t>(client)];
  ctx.test = &world.test[static_cast<std::size_t>(client)];
  ctx.seed = seed;
  return ctx;
}

std::vector<std::uint32_t> bits(const std::vector<float>& values) {
  std::vector<std::uint32_t> out(values.size());
  std::memcpy(out.data(), values.data(), values.size() * sizeof(float));
  return out;
}

std::vector<std::uint32_t> bits(const Tensor& t) {
  return bits(std::vector<float>(t.data(), t.data() + t.size()));
}

void expect_same_update(const fl::ClientUpdate& got,
                        const fl::ClientUpdate& want,
                        const std::string& name) {
  EXPECT_TRUE(bits(got.state.values()) == bits(want.state.values())) << name;
  EXPECT_EQ(bits({got.weight}), bits({want.weight})) << name;
  ASSERT_EQ(got.scalars.size(), want.scalars.size()) << name;
  for (const auto& [key, value] : want.scalars) {
    ASSERT_TRUE(got.scalars.count(key)) << name << " lacks " << key;
    EXPECT_EQ(bits({got.scalars.at(key)}), bits({value})) << name << " " << key;
  }
}

using AlgorithmFactory = std::function<std::unique_ptr<PflSsl>()>;

// pFL-X and Calibre (X) for every SSL kind, plus FedEMA.
std::vector<AlgorithmFactory> reuse_algorithms() {
  const ReuseWorld& world = reuse_world();
  std::vector<AlgorithmFactory> out;
  for (const ssl::Kind kind :
       {ssl::Kind::kSimClr, ssl::Kind::kByol, ssl::Kind::kSimSiam,
        ssl::Kind::kMoCoV2, ssl::Kind::kSwav, ssl::Kind::kSmog}) {
    out.emplace_back([&world, kind] {
      return std::make_unique<PflSsl>(world.config, kind, world.ssl);
    });
    out.emplace_back([&world, kind] {
      return std::make_unique<Calibre>(world.config, kind, CalibreConfig{},
                                       world.ssl);
    });
  }
  out.emplace_back(
      [&world] { return std::make_unique<algos::FedEma>(world.config); });
  return out;
}

TEST(MethodReuse, LocalUpdateOnAReusedMethodMatchesAFreshOne) {
  for (const AlgorithmFactory& make : reuse_algorithms()) {
    const auto reused = make();
    const std::string name = reused->name();
    const nn::ModelState global = reused->initialize();
    const fl::ClientUpdate a = reused->local_update(global, client_context(0, 5));
    const fl::ClientUpdate b = reused->local_update(global, client_context(1, 6));
    // One serial caller: one method, lent twice.
    EXPECT_EQ(reused->idle_methods(), 1u) << name;
    EXPECT_FALSE(bits(a.state.values()) == bits(b.state.values())) << name;

    const auto fresh = make();
    EXPECT_EQ(bits(fresh->initialize().values()), bits(global.values()))
        << name;
    expect_same_update(b, fresh->local_update(global, client_context(1, 6)),
                       name);
  }
}

TEST(MethodReuse, PersonalizeOnAReusedMethodMatchesAFreshOne) {
  for (const AlgorithmFactory& make : reuse_algorithms()) {
    const auto reused = make();
    const std::string name = reused->name();
    const nn::ModelState global = reused->initialize();
    // A trained state, so personalization does not probe the initial one.
    const nn::ModelState trained =
        reused->local_update(global, client_context(2, 7)).state;
    (void)reused->personalize(trained, personalization_context(0, 8));
    const double got = reused->personalize(trained, personalization_context(1, 9));
    const Tensor& x = reuse_world().test[1].x;
    const Tensor got_features = reused->extract_features(trained, x);
    EXPECT_EQ(reused->idle_methods(), 1u) << name;

    const double want =
        make()->personalize(trained, personalization_context(1, 9));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << name;
    EXPECT_TRUE(bits(got_features) ==
                bits(make()->extract_features(trained, x)))
        << name;
  }
}

// Throws from the last hook of its first local update, after every step has
// moved the method's private state.
class ThrowsOnce : public PflSsl {
 public:
  using PflSsl::PflSsl;

 protected:
  void finalize_update(ssl::SslMethod& /*method*/,
                       const fl::ClientContext& /*ctx*/,
                       rng::Generator& /*gen*/,
                       fl::ClientUpdate& /*update*/) override {
    if (thrown_) return;
    thrown_ = true;
    throw std::runtime_error("injected failure");
  }

 private:
  bool thrown_ = false;
};

TEST(MethodReuse, AThrowingCallReturnsItsMethodAndTheNextCallIsExact) {
  const ReuseWorld& world = reuse_world();
  for (const ssl::Kind kind :
       {ssl::Kind::kSimClr, ssl::Kind::kByol, ssl::Kind::kSimSiam,
        ssl::Kind::kMoCoV2, ssl::Kind::kSwav, ssl::Kind::kSmog}) {
    const std::string name = ssl::kind_name(kind);
    ThrowsOnce reused(world.config, kind, world.ssl);
    const nn::ModelState global = reused.initialize();
    EXPECT_THROW(reused.local_update(global, client_context(0, 5)),
                 std::runtime_error)
        << name;
    EXPECT_EQ(reused.idle_methods(), 1u) << name << ": method was lost";
    const fl::ClientUpdate b = reused.local_update(global, client_context(1, 6));
    // Still one: the call reused the returned method instead of building.
    EXPECT_EQ(reused.idle_methods(), 1u) << name;

    PflSsl fresh(world.config, kind, world.ssl);
    expect_same_update(b, fresh.local_update(global, client_context(1, 6)),
                       name);
  }
}

// Federation-level determinism for the methods with private state: the
// device threads share one free list, so which method a client gets depends
// on scheduling, and the results must not.
TEST(MethodReuse, FederationIsIdenticalAcrossThreadCounts) {
  const ReuseWorld& world = reuse_world();
  for (const ssl::Kind kind :
       {ssl::Kind::kByol, ssl::Kind::kMoCoV2, ssl::Kind::kSmog}) {
    auto run = [&](int threads) {
      fl::FlConfig config = world.config;
      config.threads = threads;
      PflSsl algorithm(config, kind, world.ssl);
      fl::RunResult result = fl::run_federated(algorithm, world.fed, true);
      EXPECT_LE(algorithm.idle_methods(), static_cast<std::size_t>(threads));
      return result;
    };
    const fl::RunResult one = run(1);
    const fl::RunResult three = run(3);
    const std::string name = ssl::kind_name(kind);
    EXPECT_TRUE(bits(one.final_state.values()) ==
                bits(three.final_state.values()))
        << name;
    EXPECT_EQ(one.train_accuracies, three.train_accuracies) << name;
    EXPECT_EQ(one.novel_accuracies, three.novel_accuracies) << name;
  }
}

}  // namespace
}  // namespace calibre::core
