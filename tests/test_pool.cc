// Tests for the pooled tensor storage layer (tensor/pool.h) and the fused
// graph layer that rides on it: recycling correctness (no stale reads),
// per-thread cache isolation across a worker pool, the reset() live-buffer
// guard, the CALIBRE_TENSOR_POOL kill-switch semantics, agreement of every
// fused primitive with the composite graph it replaced, and bitwise
// determinism of a fixed-seed Calibre run with the pool on vs. off.
#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/calibre.h"
#include "data/synthetic.h"
#include "fl/runner.h"
#include "tensor/pool.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace calibre {
namespace {

using tensor::Tensor;

// The pool switch is process-wide; every test that flips it restores it so
// the rest of the suite sees the default.
struct PoolGuard {
  bool prev = tensor::pool::enabled();
  ~PoolGuard() { tensor::pool::set_enabled(prev); }
};

// The main test thread holds long-lived tensors (gtest fixtures, statics),
// so pool-lifecycle assertions run on a fresh thread whose cache starts
// empty and dies with the thread. Exceptions propagate to the caller.
template <typename Fn>
void on_fresh_thread(Fn&& fn) {
  std::exception_ptr error;
  std::thread worker([&] {
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  if (error) std::rethrow_exception(error);
}

TEST(TensorPool, RecycledBuffersHonorTheZeroInitContract) {
  PoolGuard guard;
  on_fresh_thread([] {
    tensor::pool::set_enabled(true);
    tensor::pool::reset_thread_stats();
    {
      Tensor poisoned(32, 32);
      poisoned.fill(123.0f);
    }  // released into the free list holding 123s
    Tensor zeros(32, 32);  // same bucket: must be served from the free list
    const tensor::pool::Stats stats = tensor::pool::thread_stats();
    EXPECT_GE(stats.hits, 1u) << "expected the poisoned buffer to recycle";
    for (std::int64_t i = 0; i < zeros.size(); ++i) {
      ASSERT_EQ(zeros.data()[i], 0.0f) << "stale data at " << i;
    }
  });
}

TEST(TensorPool, FreeListsServeSameBucketRequests) {
  on_fresh_thread([] {
    tensor::pool::set_enabled(true);
    tensor::pool::reset_thread_stats();
    { Tensor a(64, 1); }  // 64-float bucket: miss, then release
    { Tensor b(33, 1); }  // rounds up to the same 64-float bucket: hit
    const tensor::pool::Stats stats = tensor::pool::thread_stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(tensor::pool::outstanding(), 0);
  });
}

// Regression for the bucket math at class boundaries: a request one past a
// power of two must roll into the next class, an exact power of two must
// share the class with the rounded-up requests below it, and the floor
// class stays distinct. Guards the shift arithmetic in bucket_index /
// bucket_floats against off-by-one rewrites.
TEST(TensorPool, BucketMathAtPowerOfTwoBoundaries) {
  on_fresh_thread([] {
    tensor::pool::set_enabled(true);
    tensor::pool::reset_thread_stats();
    float* nine = tensor::pool::acquire(9);  // miss: 16-float class
    tensor::pool::release(nine, 9);
    float* sixteen = tensor::pool::acquire(16);  // same class: hit
    tensor::pool::release(sixteen, 16);
    float* seventeen = tensor::pool::acquire(17);  // next class: miss
    tensor::pool::release(seventeen, 17);
    float* eight = tensor::pool::acquire(8);  // floor class: miss
    tensor::pool::release(eight, 8);
    const tensor::pool::Stats stats = tensor::pool::thread_stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(tensor::pool::outstanding(), 0);
  });
}

TEST(TensorPool, ResetIsRejectedWhileBuffersAreLive) {
  on_fresh_thread([] {
    tensor::pool::set_enabled(true);
    {
      Tensor live(8, 8);
      EXPECT_GT(tensor::pool::outstanding(), 0);
      EXPECT_THROW(tensor::pool::reset(), CheckError);
    }
    // All buffers returned: reset now succeeds and empties the cache.
    tensor::pool::reset();
    EXPECT_EQ(tensor::pool::thread_stats().cached_bytes, 0u);
  });
}

TEST(TensorPool, ThreadCachesDoNotAliasAcrossWorkerPool) {
  // Two workers acquire buffers concurrently and hold them while both
  // address sets are collected: per-thread free lists must never hand the
  // same storage to two threads.
  common::ThreadPool workers(2);
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  std::vector<std::set<const float*>> held(2);

  const auto task = [&](int which) {
    tensor::pool::reset_thread_stats();
    constexpr std::size_t kFloats = 256;
    std::vector<float*> buffers;
    for (int i = 0; i < 8; ++i) {
      buffers.push_back(tensor::pool::acquire(kFloats));
    }
    EXPECT_EQ(tensor::pool::thread_stats().misses, 8u)
        << "worker stats must count only this thread's traffic";
    {
      std::unique_lock<std::mutex> lock(mutex);
      for (const float* p : buffers) held[which].insert(p);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == 2; });  // both sets live at once
    }
    for (float* p : buffers) tensor::pool::release(p, kFloats);
  };
  auto f0 = workers.submit([&] { task(0); });
  auto f1 = workers.submit([&] { task(1); });
  f0.get();
  f1.get();

  std::vector<const float*> overlap;
  std::set_intersection(held[0].begin(), held[0].end(), held[1].begin(),
                        held[1].end(), std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty())
      << overlap.size() << " buffers were live on both threads at once";
}

TEST(TensorPool, KillSwitchRestoresSeedStorageSemantics) {
  PoolGuard guard;
  on_fresh_thread([] {
    tensor::pool::set_enabled(false);
    tensor::pool::reset_thread_stats();
    { Tensor t(16, 16); }
    { Tensor u(16, 16); }  // must NOT recycle: caching is off
    const tensor::pool::Stats stats = tensor::pool::thread_stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.releases, 0u);
    // Disabled acquisitions are zeroed (std::vector value-init, the seed's
    // behavior) even through the uninit fast path.
    Tensor raw = Tensor::uninit(16, 16);
    for (std::int64_t i = 0; i < raw.size(); ++i) {
      ASSERT_EQ(raw.data()[i], 0.0f);
    }
  });
}

// --- fused vs. composite graphs ---------------------------------------------
//
// Reference builders: each fused primitive's composite form, the graph of
// elementary ops the library built before the fused layer existed. Both
// forms compute the same function in a different operation order, so they
// agree to a tolerance, not bitwise.

ag::VarPtr composite_log_softmax(const ag::VarPtr& a) {
  // Shift by the row max as a constant (softmax is shift invariant, so the
  // gradient of the shifted expression equals the true gradient), then
  // log-sum-exp through the elementary ops.
  const ag::VarPtr shift = ag::constant(tensor::row_max(a->value));
  const ag::VarPtr shifted = ag::sub(a, shift);
  const ag::VarPtr lse = ag::log(ag::row_sum(ag::exp(shifted)));
  return ag::sub(shifted, lse);
}

ag::VarPtr composite_softmax(const ag::VarPtr& a) {
  return ag::exp(composite_log_softmax(a));
}

ag::VarPtr composite_l2_normalize(const ag::VarPtr& a, float eps = 1e-8f) {
  return ag::div(a, ag::sqrt(ag::add_scalar(ag::row_sum(ag::square(a)), eps)));
}

ag::VarPtr composite_ntxent_logits(const ag::VarPtr& z, float temperature) {
  const std::int64_t n = z->value.rows();
  const ag::VarPtr sim = ag::mul_scalar(ag::matmul(z, ag::transpose(z)),
                                        1.0f / temperature);
  Tensor diag_mask(n, n);
  for (std::int64_t i = 0; i < n; ++i) diag_mask(i, i) = -1e9f;
  return ag::add(sim, ag::constant(diag_mask));
}

ag::VarPtr composite_affine(const ag::VarPtr& x, const ag::VarPtr& w,
                            const ag::VarPtr& b) {
  const ag::VarPtr product = ag::matmul(x, w);
  return b != nullptr ? ag::add(product, b) : product;
}

ag::VarPtr composite_layer_norm(const ag::VarPtr& x, const ag::VarPtr& gamma,
                                const ag::VarPtr& beta, float eps) {
  const ag::VarPtr mean = ag::row_mean(x);            // [N,1]
  const ag::VarPtr centered = ag::sub(x, mean);       // [N,D]
  const ag::VarPtr variance = ag::row_mean(ag::square(centered));
  const ag::VarPtr stddev = ag::sqrt(ag::add_scalar(variance, eps));
  const ag::VarPtr normalized = ag::div(centered, stddev);
  return ag::add(ag::mul(normalized, gamma), beta);
}

// Builds a small graph with `build(leaves, fused)`, runs backward from a
// scalar loss, and returns {loss value, every leaf gradient}.
template <typename Build>
std::vector<std::vector<float>> eval_graph(bool fused, Build&& build) {
  std::vector<ag::VarPtr> leaves;
  const ag::VarPtr loss = build(leaves, fused);
  ag::backward(loss);
  std::vector<std::vector<float>> out;
  out.push_back(loss->value.to_vector());
  for (const ag::VarPtr& leaf : leaves) out.push_back(leaf->grad.to_vector());
  return out;
}

template <typename Build>
void expect_fused_matches_composite(Build&& build, float tol) {
  const auto fused = eval_graph(true, build);
  const auto composite = eval_graph(false, build);
  ASSERT_EQ(fused.size(), composite.size());
  for (std::size_t t = 0; t < fused.size(); ++t) {
    ASSERT_EQ(fused[t].size(), composite[t].size()) << "tensor " << t;
    for (std::size_t i = 0; i < fused[t].size(); ++i) {
      EXPECT_NEAR(fused[t][i], composite[t][i], tol)
          << "tensor " << t << " element " << i;
    }
  }
}

TEST(FusedGraphs, LogSoftmaxMatchesComposite) {
  expect_fused_matches_composite(
      [](std::vector<ag::VarPtr>& leaves, bool fused) {
        rng::Generator gen(11);
        const auto x = ag::parameter(Tensor::randn(5, 7, gen));
        leaves = {x};
        return ag::mean_all(ag::square(fused ? ag::log_softmax(x)
                                             : composite_log_softmax(x)));
      },
      1e-4f);
}

TEST(FusedGraphs, SoftmaxMatchesComposite) {
  expect_fused_matches_composite(
      [](std::vector<ag::VarPtr>& leaves, bool fused) {
        rng::Generator gen(12);
        const auto x = ag::parameter(Tensor::randn(4, 9, gen));
        leaves = {x};
        return ag::mean_all(
            ag::square(fused ? ag::softmax(x) : composite_softmax(x)));
      },
      1e-5f);
}

TEST(FusedGraphs, L2NormalizeMatchesComposite) {
  expect_fused_matches_composite(
      [](std::vector<ag::VarPtr>& leaves, bool fused) {
        rng::Generator gen(13);
        const auto x = ag::parameter(Tensor::randn(6, 8, gen));
        leaves = {x};
        return ag::mean_all(ag::square(fused ? ag::l2_normalize(x)
                                             : composite_l2_normalize(x)));
      },
      1e-5f);
}

TEST(FusedGraphs, NtxentLogitsMatchesComposite) {
  expect_fused_matches_composite(
      [](std::vector<ag::VarPtr>& leaves, bool fused) {
        rng::Generator gen(14);
        const auto z = ag::parameter(Tensor::randn(8, 6, gen));
        leaves = {z};
        const auto probs =
            fused ? ag::softmax(ag::ntxent_logits(ag::l2_normalize(z), 0.5f))
                  : composite_softmax(composite_ntxent_logits(
                        composite_l2_normalize(z), 0.5f));
        return ag::mean_all(ag::square(probs));
      },
      1e-4f);
}

TEST(FusedGraphs, AffineMatchesComposite) {
  expect_fused_matches_composite(
      [](std::vector<ag::VarPtr>& leaves, bool fused) {
        rng::Generator gen(15);
        const auto x = ag::parameter(Tensor::randn(5, 4, gen));
        const auto w = ag::parameter(Tensor::randn(4, 3, gen));
        const auto b = ag::parameter(Tensor::randn(1, 3, gen));
        leaves = {x, w, b};
        return ag::mean_all(ag::square(fused ? ag::affine(x, w, b)
                                             : composite_affine(x, w, b)));
      },
      1e-4f);
}

TEST(FusedGraphs, AffineWithoutBiasMatchesComposite) {
  expect_fused_matches_composite(
      [](std::vector<ag::VarPtr>& leaves, bool fused) {
        rng::Generator gen(16);
        const auto x = ag::parameter(Tensor::randn(5, 4, gen));
        const auto w = ag::parameter(Tensor::randn(4, 3, gen));
        leaves = {x, w};
        return ag::mean_all(
            ag::square(fused ? ag::affine(x, w, nullptr)
                             : composite_affine(x, w, nullptr)));
      },
      1e-4f);
}

TEST(FusedGraphs, LayerNormMatchesComposite) {
  expect_fused_matches_composite(
      [](std::vector<ag::VarPtr>& leaves, bool fused) {
        rng::Generator gen(17);
        const auto x = ag::parameter(Tensor::randn(6, 10, gen));
        const auto gamma = ag::parameter(Tensor::rand_uniform(
            1, 10, gen, 0.5f, 1.5f));
        const auto beta = ag::parameter(Tensor::randn(1, 10, gen));
        leaves = {x, gamma, beta};
        return ag::mean_all(ag::square(
            fused ? ag::layer_norm(x, gamma, beta, 1e-5f)
                  : composite_layer_norm(x, gamma, beta, 1e-5f)));
      },
      1e-4f);
}

// --- bitwise determinism ------------------------------------------------------

struct RunMetrics {
  std::vector<float> final_state;
  std::vector<double> accuracies;
};

// A fixed-seed 2-round SimCLR+Calibre federation driven directly through the
// Algorithm interface (client order fixed, no comm-layer timing), so the only
// varying input between invocations is the pool switch.
RunMetrics run_two_round_calibre(bool pooled) {
  tensor::pool::set_enabled(pooled);

  data::SyntheticConfig dataset_config = data::cifar10_like();
  dataset_config.train_samples = 240;
  dataset_config.test_samples = 120;
  const data::SyntheticDataset synth = data::make_synthetic(dataset_config);

  fl::FlConfig config;
  config.encoder.input_dim = synth.train.input_dim();
  config.num_classes = 10;
  config.rounds = 2;
  config.local_epochs = 1;
  config.batch_size = 16;
  config.seed = 99;
  core::Calibre algo(config, ssl::Kind::kSimClr);

  constexpr int kClients = 3;
  rng::Generator pool_gen(123);
  std::vector<Tensor> ssl_pools;
  for (int c = 0; c < kClients; ++c) {
    ssl_pools.push_back(
        Tensor::randn(48, config.encoder.input_dim, pool_gen));
  }

  nn::ModelState state = algo.initialize();
  for (int round = 0; round < config.rounds; ++round) {
    std::vector<fl::ClientUpdate> updates;
    for (int c = 0; c < kClients; ++c) {
      fl::ClientContext ctx;
      ctx.client_id = c;
      ctx.round = round;
      ctx.train = &synth.train;
      ctx.ssl_pool = &ssl_pools[static_cast<std::size_t>(c)];
      ctx.seed = fl::derive_seed(config.seed,
                                 static_cast<std::uint64_t>(round),
                                 static_cast<std::uint64_t>(c));
      updates.push_back(algo.local_update(state, ctx));
    }
    state = algo.aggregate(state, updates, round);
  }

  RunMetrics metrics;
  metrics.final_state = state.values();
  for (int c = 0; c < kClients; ++c) {
    fl::PersonalizationContext ctx;
    ctx.client_id = c;
    ctx.train = &synth.train;
    ctx.test = &synth.test;
    ctx.seed = fl::derive_seed(config.seed, 1000,
                               static_cast<std::uint64_t>(c));
    metrics.accuracies.push_back(algo.personalize(state, ctx));
  }
  return metrics;
}

TEST(TensorPool, FixedSeedCalibreRunIsBitwiseIdenticalPoolOnVsOff) {
  PoolGuard guard;
  const RunMetrics with_pool = run_two_round_calibre(/*pooled=*/true);
  const RunMetrics without_pool = run_two_round_calibre(/*pooled=*/false);

  ASSERT_EQ(with_pool.final_state.size(), without_pool.final_state.size());
  for (std::size_t i = 0; i < with_pool.final_state.size(); ++i) {
    ASSERT_EQ(with_pool.final_state[i], without_pool.final_state[i])
        << "final global state diverges at parameter " << i;
  }
  ASSERT_EQ(with_pool.accuracies.size(), without_pool.accuracies.size());
  for (std::size_t c = 0; c < with_pool.accuracies.size(); ++c) {
    EXPECT_EQ(with_pool.accuracies[c], without_pool.accuracies[c])
        << "personalized accuracy diverges for client " << c;
  }
}

}  // namespace
}  // namespace calibre
