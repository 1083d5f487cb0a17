// Microbenchmarks of the substrate (google-benchmark): tensor matmul, the
// autograd step, NT-Xent, the Calibre prototype losses, KMeans, model-state
// serialization, and the comm router round-trip. These quantify the cost of
// the building blocks every experiment binary is built from.
//
// In addition to the google-benchmark suite, main() always times the kernel
// layer (blocked GEMM, fused-transpose variants, GEMM-based pairwise
// distances, KMeans assignment, NT-Xent) against the seed's scalar
// reference kernels, plus the fixed-point server fold against its
// per-element int128 loop, and dumps a machine-readable BENCH_kernels.json
// so future PRs have a perf trajectory to regress against. Run with
// --benchmark_filter=NONE to get just the JSON dump.
//
// --suite personalize times the personalization stage of bench_e2e's wide
// workloads as one sweep against per-client encodes (calls without a
// sweep) and writes BENCH_personalize.json; with --smoke it runs a tiny
// shape and only checks that the two give identical accuracies.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "bench/without_sweep.h"
#include "cluster/kmeans.h"
#include "comm/codec.h"
#include "comm/router.h"
#include "common/thread_pool.h"
#include "core/calibre.h"
#include "core/pfl_ssl.h"
#include "core/prototype_loss.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fed_data.h"
#include "fl/runner.h"
#include "fl/update_codec.h"
#include "flapi/algorithm.h"
#include "flapi/fixed_accum.h"
#include "flapi/probe.h"
#include "metrics/tsne.h"
#include "nn/losses.h"
#include "nn/networks.h"
#include "nn/optim.h"
#include "ssl/simclr.h"
#include "tensor/kernels.h"
#include "tensor/pool.h"

// Heap bytes requested through the global operator new on this thread, so
// a bench can report what one call allocates. Every array, nothrow and
// sized form of new/delete forwards to this replaced pair. noinline keeps
// callers seeing new/delete pairs rather than new/free.
thread_local std::uint64_t t_heap_bytes = 0;

__attribute__((noinline)) void* operator new(std::size_t size) {
  t_heap_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace calibre;

void BM_TensorMatmul(benchmark::State& state) {
  const auto n = state.range(0);
  rng::Generator gen(1);
  const auto a = tensor::Tensor::randn(n, n, gen);
  const auto b = tensor::Tensor::randn(n, n, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_TensorMatmul)->Arg(32)->Arg(128);

// --- kernel-layer benchmarks --------------------------------------------------

void BM_GemmBlocked(benchmark::State& state) {
  const auto n = state.range(0);
  const auto k = state.range(1);
  const auto m = state.range(2);
  rng::Generator gen(21);
  const auto a = tensor::Tensor::randn(n, k, gen);
  const auto b = tensor::Tensor::randn(k, m, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * k * m);
}
BENCHMARK(BM_GemmBlocked)->Args({256, 512, 512})->Args({128, 128, 128});

void BM_GemmNaive(benchmark::State& state) {
  const auto n = state.range(0);
  const auto k = state.range(1);
  const auto m = state.range(2);
  rng::Generator gen(21);
  const auto a = tensor::Tensor::randn(n, k, gen);
  const auto b = tensor::Tensor::randn(k, m, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::kernels::matmul_naive(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * k * m);
}
BENCHMARK(BM_GemmNaive)->Args({256, 512, 512})->Args({128, 128, 128});

void BM_GemmNT(benchmark::State& state) {
  const auto n = state.range(0);
  rng::Generator gen(22);
  const auto a = tensor::Tensor::randn(n, 512, gen);
  const auto b = tensor::Tensor::randn(n, 512, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul_nt(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * 512 * n);
}
BENCHMARK(BM_GemmNT)->Arg(256);

void BM_GemmTN(benchmark::State& state) {
  const auto n = state.range(0);
  rng::Generator gen(23);
  const auto a = tensor::Tensor::randn(512, n, gen);
  const auto b = tensor::Tensor::randn(512, n, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul_tn(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * 512 * n);
}
BENCHMARK(BM_GemmTN)->Arg(256);

void BM_PairwiseSqDists(benchmark::State& state) {
  rng::Generator gen(24);
  const auto points = tensor::Tensor::randn(2048, 128, gen);
  const auto centroids = tensor::Tensor::randn(10, 128, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::pairwise_sq_dists(points, centroids));
  }
  state.SetItemsProcessed(state.iterations() * 2 * 2048 * 128 * 10);
}
BENCHMARK(BM_PairwiseSqDists);

void BM_KMeansAssign(benchmark::State& state) {
  rng::Generator gen(25);
  const auto points = tensor::Tensor::randn(2048, 128, gen);
  const auto centroids = tensor::Tensor::randn(10, 128, gen);
  for (auto _ : state) {
    float mean_distance = 0.0f;
    benchmark::DoNotOptimize(
        cluster::assign_to_centroids(points, centroids, &mean_distance));
  }
  state.SetItemsProcessed(state.iterations() * 2048 * 10);
}
BENCHMARK(BM_KMeansAssign);

void BM_NtXentForwardBackward(benchmark::State& state) {
  const auto batch = state.range(0);
  rng::Generator gen(2);
  const auto h = tensor::Tensor::randn(2 * batch, 32, gen);
  for (auto _ : state) {
    const ag::VarPtr leaf = ag::parameter(h);
    const ag::VarPtr loss = nn::ntxent(leaf, 0.5f);
    ag::backward(loss);
    benchmark::DoNotOptimize(leaf->grad);
  }
}
BENCHMARK(BM_NtXentForwardBackward)->Arg(32)->Arg(128);

void BM_EncoderTrainStep(benchmark::State& state) {
  rng::Generator gen(3);
  nn::EncoderConfig config;
  nn::MlpEncoder encoder(config, gen);
  nn::Sgd optimizer(encoder.parameters(), {0.05f, 0.9f, 1e-4f});
  const auto x = tensor::Tensor::randn(32, config.input_dim, gen);
  const auto target = tensor::Tensor::randn(32, config.feature_dim, gen);
  for (auto _ : state) {
    optimizer.zero_grad();
    ag::backward(ag::mse(encoder.forward(ag::constant(x)), target));
    optimizer.step();
  }
}
BENCHMARK(BM_EncoderTrainStep);

void BM_SimClrLossStep(benchmark::State& state) {
  nn::EncoderConfig encoder_config;
  ssl::SslConfig ssl_config;
  ssl::SimClr method(encoder_config, ssl_config, 4);
  rng::Generator gen(5);
  const auto v1 = tensor::Tensor::randn(32, encoder_config.input_dim, gen);
  const auto v2 = tensor::Tensor::randn(32, encoder_config.input_dim, gen);
  nn::Sgd optimizer(method.trainable_parameters(), {0.05f, 0.9f, 0.0f});
  for (auto _ : state) {
    optimizer.zero_grad();
    ag::backward(method.forward(v1, v2).loss);
    optimizer.step();
  }
}
BENCHMARK(BM_SimClrLossStep);

void BM_CalibrePrototypeLosses(benchmark::State& state) {
  nn::EncoderConfig encoder_config;
  ssl::SslConfig ssl_config;
  ssl::SimClr method(encoder_config, ssl_config, 6);
  rng::Generator gen(7);
  const auto v1 = tensor::Tensor::randn(32, encoder_config.input_dim, gen);
  const auto v2 = tensor::Tensor::randn(32, encoder_config.input_dim, gen);
  const ssl::SslForward fwd = method.forward(v1, v2);
  core::PrototypeLossConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::compute_prototype_losses(fwd, config, gen));
  }
}
BENCHMARK(BM_CalibrePrototypeLosses);

void BM_KMeans(benchmark::State& state) {
  rng::Generator gen(8);
  const auto points = tensor::Tensor::randn(state.range(0), 64, gen);
  cluster::KMeansConfig config;
  config.k = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::kmeans(points, config, gen));
  }
}
BENCHMARK(BM_KMeans)->Arg(64)->Arg(512);

void BM_ModelStateSerialize(benchmark::State& state) {
  rng::Generator gen(9);
  nn::EncoderConfig config;
  nn::MlpEncoder encoder(config, gen);
  const auto model_state =
      nn::ModelState::from_parameters(encoder.parameters());
  for (auto _ : state) {
    const auto bytes = model_state.to_bytes();
    benchmark::DoNotOptimize(nn::ModelState::from_bytes(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(model_state.size()) * 4);
}
BENCHMARK(BM_ModelStateSerialize);

void BM_RouterRoundTrip(benchmark::State& state) {
  comm::Router router(2, [](int, int, const comm::Payload& request) {
    return request;
  });
  std::vector<std::uint8_t> payload(64 * 1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.dispatch(0, 0, payload).get());
  }
  state.SetBytesProcessed(state.iterations() * 2 * 64 * 1024);
}
BENCHMARK(BM_RouterRoundTrip);

void BM_Tsne(benchmark::State& state) {
  rng::Generator gen(10);
  const auto points = tensor::Tensor::randn(100, 32, gen);
  metrics::TsneConfig config;
  config.iterations = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::tsne(points, config, gen));
  }
}
BENCHMARK(BM_Tsne);

// --- BENCH_kernels.json -------------------------------------------------------
//
// Timed head-to-head of the blocked kernel layer against the seed's scalar
// reference kernels (preserved verbatim in tensor/kernels.cc). Written on
// every run so the perf trajectory is machine-readable across PRs.

struct KernelEntry {
  std::string name;
  double flops = 0.0;          // useful flops per call (0 = not a flop kernel)
  double seconds = 0.0;        // best-of-reps wall time, optimized kernel
  double baseline_seconds = 0.0;  // best-of-reps wall time, seed scalar kernel
};

// Best-of-`reps` wall time of fn(), with one warmup call. Best-of is the
// right statistic on a shared machine: noise only ever adds time.
double time_best(const std::function<void()>& fn, int reps) {
  fn();  // warmup
  double best = std::numeric_limits<double>::max();
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

// The seed's KMeans assignment: per-pair bounds-checked scalar loops, kept
// here as the baseline the blocked GEMM path is measured against.
std::vector<int> assign_naive(const tensor::Tensor& points,
                              const tensor::Tensor& centroids) {
  const tensor::Tensor dists =
      tensor::kernels::pairwise_sq_dists_naive(points, centroids);
  std::vector<int> assignments(static_cast<std::size_t>(points.rows()), 0);
  for (std::int64_t i = 0; i < dists.rows(); ++i) {
    float best = dists(i, 0);
    int arg = 0;
    for (std::int64_t c = 1; c < dists.cols(); ++c) {
      if (dists(i, c) < best) {
        best = dists(i, c);
        arg = static_cast<int>(c);
      }
    }
    assignments[static_cast<std::size_t>(i)] = arg;
  }
  return assignments;
}

std::vector<KernelEntry> collect_kernel_entries() {
  rng::Generator gen(97);
  std::vector<KernelEntry> entries;

  // GEMM 256x512x512 — the ISSUE acceptance shape (target >=3x vs seed).
  {
    const auto a = tensor::Tensor::randn(256, 512, gen);
    const auto b = tensor::Tensor::randn(512, 512, gen);
    KernelEntry e;
    e.name = "gemm_256x512x512";
    e.flops = 2.0 * 256 * 512 * 512;
    e.seconds = time_best(
        [&] { benchmark::DoNotOptimize(tensor::matmul(a, b)); }, 5);
    e.baseline_seconds = time_best(
        [&] { benchmark::DoNotOptimize(tensor::kernels::matmul_naive(a, b)); },
        3);
    entries.push_back(e);
  }

  // Fused-transpose variants vs transpose-copy + naive GEMM (what the
  // autograd backward passes did before the kernel layer).
  {
    const auto a = tensor::Tensor::randn(256, 512, gen);
    const auto b = tensor::Tensor::randn(256, 512, gen);
    KernelEntry e;
    e.name = "matmul_nt_256x512x256";
    e.flops = 2.0 * 256 * 512 * 256;
    e.seconds = time_best(
        [&] { benchmark::DoNotOptimize(tensor::matmul_nt(a, b)); }, 5);
    e.baseline_seconds = time_best(
        [&] {
          benchmark::DoNotOptimize(
              tensor::kernels::matmul_naive(a, tensor::transpose(b)));
        },
        3);
    entries.push_back(e);
  }
  {
    const auto a = tensor::Tensor::randn(512, 256, gen);
    const auto b = tensor::Tensor::randn(512, 256, gen);
    KernelEntry e;
    e.name = "matmul_tn_256x512x256";
    e.flops = 2.0 * 256 * 512 * 256;
    e.seconds = time_best(
        [&] { benchmark::DoNotOptimize(tensor::matmul_tn(a, b)); }, 5);
    e.baseline_seconds = time_best(
        [&] {
          benchmark::DoNotOptimize(
              tensor::kernels::matmul_naive(tensor::transpose(a), b));
        },
        3);
    entries.push_back(e);
  }

  // Layer products (n x k x m, B is k*m floats): the 1024-wide encoder's
  // 32-row batch and a 96-row one, above the kernels' panel-packing gate
  // (2^19 floats); its 1024x256 layer at 2^18 and a 128-wide layer, below
  // it. Then narrow outputs (m = 10 < 16 columns, the kernels' C^T path): a
  // 32-row batch and a 200-row shard against 10 prototypes or a 10-class
  // head, at 64- and 256-dim features; gemm_tn is the head's dW. No seed
  // baseline: these rows track the blocked kernels against their own
  // history.
  for (const auto& [n, k, m] : {std::array<std::int64_t, 3>{32, 1024, 1024},
                                std::array<std::int64_t, 3>{96, 1024, 1024},
                                std::array<std::int64_t, 3>{32, 1024, 256},
                                std::array<std::int64_t, 3>{32, 128, 128},
                                std::array<std::int64_t, 3>{32, 64, 10},
                                std::array<std::int64_t, 3>{200, 64, 10},
                                std::array<std::int64_t, 3>{32, 256, 10}}) {
    const std::string shape = std::to_string(n) + "x" + std::to_string(k) +
                              "x" + std::to_string(m);
    const double flops = 2.0 * static_cast<double>(n * k * m);
    const auto x = tensor::Tensor::randn(n, k, gen);
    const auto xt = tensor::Tensor::randn(k, n, gen);
    const auto w = tensor::Tensor::randn(k, m, gen);
    const auto wt = tensor::Tensor::randn(m, k, gen);
    const auto time_row = [&](const char* kind, const auto& product) {
      KernelEntry e;
      e.name = std::string(kind) + "_" + shape;
      e.flops = flops;
      // A narrow product takes microseconds: more calls for its best-of.
      e.seconds = time_best([&] { benchmark::DoNotOptimize(product()); },
                            m < 16 ? 51 : 7);
      entries.push_back(e);
    };
    time_row("gemm_nn", [&] { return tensor::matmul(x, w); });
    time_row("gemm_nt", [&] { return tensor::matmul_nt(x, wt); });
    time_row("gemm_tn", [&] { return tensor::matmul_tn(xt, w); });
  }

  // Whole KMeans runs (k-means++ seeding, then Lloyd iterations, k = 10) on
  // a 32-row batch of encodings and a 200-row shard, as Calibre's prototype
  // losses and divergence run them. The flop count is that of the distance
  // products: one one-column product per seeding step, one k-column
  // product per iteration and one for the final assignment.
  for (const std::int64_t n : {std::int64_t{32}, std::int64_t{200}}) {
    const auto points = tensor::Tensor::randn(n, 64, gen);
    const auto run = [&] {
      rng::Generator kmeans_gen(99);
      return cluster::kmeans(points, cluster::KMeansConfig{}, kmeans_gen);
    };
    const int iterations = run().iterations;
    KernelEntry e;
    e.name = "kmeans_" + std::to_string(n) + "x64_k10";
    e.flops = 2.0 * static_cast<double>(n * 64) * (9 + 10 * (iterations + 1));
    e.seconds = time_best([&] { benchmark::DoNotOptimize(run()); }, 21);
    entries.push_back(e);
  }

  // Pairwise squared distances + KMeans assignment on the ISSUE acceptance
  // shape: 2048 points x 128 dims vs 10 centroids (target >=2x vs seed).
  {
    const auto points = tensor::Tensor::randn(2048, 128, gen);
    const auto centroids = tensor::Tensor::randn(10, 128, gen);
    {
      KernelEntry e;
      e.name = "pairwise_sq_dists_2048x128_k10";
      e.flops = 2.0 * 2048 * 128 * 10;
      e.seconds = time_best(
          [&] {
            benchmark::DoNotOptimize(
                tensor::pairwise_sq_dists(points, centroids));
          },
          7);
      e.baseline_seconds = time_best(
          [&] {
            benchmark::DoNotOptimize(
                tensor::kernels::pairwise_sq_dists_naive(points, centroids));
          },
          5);
      entries.push_back(e);
    }
    {
      KernelEntry e;
      e.name = "kmeans_assign_2048x128_k10";
      e.flops = 2.0 * 2048 * 128 * 10;
      e.seconds = time_best(
          [&] {
            float mean_distance = 0.0f;
            benchmark::DoNotOptimize(
                cluster::assign_to_centroids(points, centroids,
                                             &mean_distance));
          },
          7);
      e.baseline_seconds = time_best(
          [&] { benchmark::DoNotOptimize(assign_naive(points, centroids)); },
          5);
      entries.push_back(e);
    }
  }

  // NT-Xent forward+backward trajectory entry. No scalar baseline exists
  // for the full autograd graph, so the JSON writer omits the baseline and
  // speedup fields for this entry instead of reporting zeros. The flop
  // count covers the three dominating GEMMs (z·zᵀ forward, G·z + Gᵀ·z
  // backward), so gflops understates the true rate slightly.
  {
    rng::Generator g2(98);
    const auto h = tensor::Tensor::randn(256, 64, g2);
    KernelEntry e;
    e.name = "ntxent_fwd_bwd_256x64";
    e.flops = 3.0 * 2.0 * 256.0 * 256.0 * 64.0;
    e.seconds = time_best(
        [&] {
          const ag::VarPtr leaf = ag::parameter(h);
          const ag::VarPtr loss = nn::ntxent(leaf, 0.5f);
          ag::backward(loss);
          benchmark::DoNotOptimize(leaf->grad);
        },
        5);
    entries.push_back(e);
  }

  return entries;
}

// One "{...}" JSON object line for a kernel entry. Entries without a
// baseline (baseline_seconds == 0) drop the baseline/speedup fields rather
// than reporting meaningless zeros.
std::string kernel_entry_json(const KernelEntry& e, bool last) {
  const double gflops =
      e.seconds > 0.0 && e.flops > 0.0 ? e.flops / e.seconds / 1e9 : 0.0;
  char buffer[512];
  if (e.baseline_seconds > 0.0) {
    const double baseline_gflops =
        e.flops > 0.0 ? e.flops / e.baseline_seconds / 1e9 : 0.0;
    const double speedup =
        e.seconds > 0.0 ? e.baseline_seconds / e.seconds : 0.0;
    std::snprintf(buffer, sizeof(buffer),
                  "      {\"name\": \"%s\", \"flops\": %.0f, "
                  "\"seconds\": %.6e, \"gflops\": %.3f, "
                  "\"baseline_seconds\": %.6e, \"baseline_gflops\": %.3f, "
                  "\"speedup\": %.2f}%s\n",
                  e.name.c_str(), e.flops, e.seconds, gflops,
                  e.baseline_seconds, baseline_gflops, speedup,
                  last ? "" : ",");
    std::printf("[kernels] %-32s %8.3f GFLOP/s  (baseline %8.3f, %.2fx)\n",
                e.name.c_str(), gflops, baseline_gflops, speedup);
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "      {\"name\": \"%s\", \"flops\": %.0f, "
                  "\"seconds\": %.6e, \"gflops\": %.3f}%s\n",
                  e.name.c_str(), e.flops, e.seconds, gflops,
                  last ? "" : ",");
    std::printf("[kernels] %-32s %8.3f GFLOP/s  (no baseline)\n",
                e.name.c_str(), gflops);
  }
  return buffer;
}

// The fixed-point server fold (flapi/fixed_accum.h), in ns per parameter:
// one weighted fold into the 64.64 accumulator, and the finish() readback,
// at FedAvg's 32 k-param model (accumulator fits in L2) and the wide
// encoder's 1.39 M params (it does not). The baseline is the per-element
// loop the SIMD kernel replaced: fixedpoint::quantize / to_double on a
// vector<__int128>, whose int128 conversions are libgcc calls. Single
// threaded, like the fold itself; the accumulator is preallocated, so page
// faults stay out of both sides.
struct FoldEntry {
  std::string name;
  std::size_t params = 0;
  double ns_per_param = 0.0;
  double baseline_ns_per_param = 0.0;
};

std::vector<FoldEntry> collect_fold_entries() {
  namespace fp = fl::fixedpoint;
  constexpr int kFolds = 8;  // weighted folds per timed call
  rng::Generator gen(96);
  std::vector<FoldEntry> entries;
  for (const std::size_t params : {std::size_t{32768}, std::size_t{1390000}}) {
    std::vector<float> x(params);
    for (float& v : x) v = static_cast<float>(gen.normal(0.0, 0.1));
    fp::Accumulator acc;
    acc.assign_zero(params);
    std::vector<fp::Acc> ref(params, 0);
    const double ns = 1e9 / static_cast<double>(params);

    FoldEntry fold{"fold_" + std::to_string(params), params};
    fold.ns_per_param = ns / kFolds * time_best(
        [&] {
          for (int k = 0; k < kFolds; ++k) {
            acc.add_scaled(x.data(), 1.0 + 0.125 * k);
          }
        },
        5);
    fold.baseline_ns_per_param = ns / kFolds * time_best(
        [&] {
          for (int k = 0; k < kFolds; ++k) {
            const double w = 1.0 + 0.125 * k;
            for (std::size_t i = 0; i < params; ++i) {
              ref[i] += fp::quantize(w * static_cast<double>(x[i]));
            }
          }
          benchmark::DoNotOptimize(ref.data());
        },
        3);
    entries.push_back(fold);

    std::vector<float> out(params);
    FoldEntry finish{"finish_" + std::to_string(params), params};
    finish.ns_per_param = ns * time_best(
        [&] {
          acc.read(3.0, out.data());
          benchmark::DoNotOptimize(out.data());
        },
        5);
    finish.baseline_ns_per_param = ns * time_best(
        [&] {
          for (std::size_t i = 0; i < params; ++i) {
            out[i] = static_cast<float>(fp::to_double(ref[i]) / 3.0);
          }
          benchmark::DoNotOptimize(out.data());
        },
        3);
    entries.push_back(finish);
  }
  return entries;
}

// Times the kernel suite twice — single-threaded (parallelism forced off)
// and at default parallelism — and the fold rows once, and writes them all
// to one JSON file:
//   {"runs": [{"threads": 1, "entries": [...]},
//             {"threads": N, "entries": [...]}],
//    "fold": [...]}
void dump_kernel_json(const char* path) {
  std::ofstream out(path);
  out << "{\n  \"generated_by\": \"bench_micro\",\n  \"hardware_threads\": "
      << std::thread::hardware_concurrency() << ",\n  \"runs\": [\n";
  const int default_threads =
      static_cast<int>(common::ThreadPool::default_parallelism());
  const struct {
    int threads;
    std::int64_t override_value;
  } runs[] = {{1, -1}, {default_threads, 0}};
  for (std::size_t r = 0; r < 2; ++r) {
    std::printf("[kernels] --- threads=%d ---\n", runs[r].threads);
    tensor::kernels::set_parallel_threshold_override(runs[r].override_value);
    const std::vector<KernelEntry> entries = collect_kernel_entries();
    out << "    {\"threads\": " << runs[r].threads << ", \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out << kernel_entry_json(entries[i], i + 1 == entries.size());
    }
    out << "    ]}" << (r + 1 < 2 ? "," : "") << "\n";
  }
  tensor::kernels::set_parallel_threshold_override(0);
  out << "  ],\n  \"fold\": [\n";
  const std::vector<FoldEntry> folds = collect_fold_entries();
  for (std::size_t i = 0; i < folds.size(); ++i) {
    const FoldEntry& e = folds[i];
    const double speedup = e.baseline_ns_per_param / e.ns_per_param;
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"params\": %zu, "
                  "\"ns_per_param\": %.3f, \"baseline_ns_per_param\": %.3f, "
                  "\"speedup\": %.2f}%s\n",
                  e.name.c_str(), e.params, e.ns_per_param,
                  e.baseline_ns_per_param, speedup,
                  i + 1 == folds.size() ? "" : ",");
    out << buffer;
    std::printf("[kernels] %-32s %8.3f ns/param  (baseline %8.3f, %.2fx)\n",
                e.name.c_str(), e.ns_per_param, e.baseline_ns_per_param,
                speedup);
  }
  out << "  ]\n}\n";
  std::printf("[kernels] wrote %s\n", path);
}

// --- BENCH_train_step.json ---------------------------------------------------
//
// End-to-end cost of one full PflSsl::local_update (Algorithm 1's client
// step: augment two views, SSL forward, backward, SGD step) per SSL method,
// plus Calibre (SimCLR) with its prototype losses and divergence, in two
// configurations:
//  * "pooled"   — the tensor pool on (this tree's training step);
//  * "pool_off" — CALIBRE_TENSOR_POOL kill-switch off (every buffer freshly
//                 allocated and zeroed), isolating the pool.
// steps/sec counts optimizer steps; allocations/step is the pool's miss
// counter (real heap allocations on the calling thread) divided by the
// optimizer steps in one call.

struct TrainStepRun {
  double seconds_per_call = 0.0;
  double steps_per_sec = 0.0;
  double allocs_per_step = 0.0;
};

struct TrainStepEntry {
  std::string method;
  int steps_per_call = 0;
  TrainStepRun pooled;
  TrainStepRun pool_off;
};

// One client's inputs as the calibre_cifar10 workload sees them: 256 rows
// of the cifar10 preset as the SSL pool, whose views the preset's oracle
// renders from the class latents, and 200 of them as the labeled shard.
// Only Calibre reads the shard: it clusters the shard's encodings for the
// divergence it ships.
struct TrainStepClient {
  data::SyntheticDataset synth;
  data::Dataset pool;
  data::Dataset shard;
};

const TrainStepClient& train_step_client() {
  static const TrainStepClient client = [] {
    TrainStepClient c;
    c.synth = data::make_synthetic(data::preset_by_name("cifar10"));
    std::vector<int> rows(256);
    std::iota(rows.begin(), rows.end(), 0);
    c.pool = c.synth.train.subset(rows);
    rows.resize(200);
    c.shard = c.synth.train.subset(rows);
    return c;
  }();
  return client;
}

fl::FlConfig train_step_config() {
  fl::FlConfig config;
  config.encoder.input_dim = train_step_client().synth.train.input_dim();
  config.local_epochs = 1;
  config.batch_size = 32;
  config.seed = 1234;
  return config;
}

// `algo` is built from train_step_config().
TrainStepEntry time_train_step(fl::Algorithm& algo, std::string method) {
  const fl::FlConfig config = train_step_config();
  const nn::ModelState global = algo.initialize();
  const TrainStepClient& client = train_step_client();
  const tensor::Tensor& ssl_pool = client.pool.latents;
  fl::ClientContext ctx;
  ctx.client_id = 0;
  ctx.round = 0;
  ctx.train = &client.shard;
  ctx.ssl_pool = &ssl_pool;
  ctx.oracle = &client.synth.oracle;
  ctx.seed = 77;

  TrainStepEntry entry;
  entry.method = std::move(method);
  entry.steps_per_call =
      static_cast<int>((ssl_pool.rows() + config.batch_size - 1) /
                       config.batch_size) *
      config.local_epochs;

  const auto one_call = [&] {
    benchmark::DoNotOptimize(algo.local_update(global, ctx));
  };
  const auto measure = [&](bool pooled) {
    tensor::pool::set_enabled(pooled);
    one_call();  // warmup: populates (or drains) the free lists
    tensor::pool::reset_thread_stats();
    one_call();
    const tensor::pool::Stats stats = tensor::pool::thread_stats();
    TrainStepRun run;
    run.allocs_per_step = static_cast<double>(stats.misses) /
                          static_cast<double>(entry.steps_per_call);
    // Best of 25: a call is a few ms, and on a shared machine best-of-5
    // still moved some rows by 1.5x between runs.
    run.seconds_per_call = time_best(one_call, 25);
    run.steps_per_sec =
        static_cast<double>(entry.steps_per_call) / run.seconds_per_call;
    return run;
  };
  entry.pool_off = measure(/*pooled=*/false);
  entry.pooled = measure(/*pooled=*/true);
  return entry;
}

// The wide row: pFL-SimCLR on the 48-1024-1024-256 encoder of bench_e2e's
// wide workloads, one 32-row batch per call as there, single-threaded
// kernels. "reused" times
// repeated local_update calls on one algorithm instance, which lends every
// call the method the first call built. "rebuilt" gives every call a new
// instance, so every call builds its method — the per-call cost before
// methods were reused, plus the copy of the initial values a first build
// takes.
struct WideTrainStepEntry {
  int steps_per_call = 0;
  double reused_seconds_per_call = 0.0;
  double rebuilt_seconds_per_call = 0.0;
};

WideTrainStepEntry time_wide_train_step() {
  fl::FlConfig config;
  config.encoder.hidden_dims = {1024, 1024};
  config.encoder.feature_dim = 256;
  config.local_epochs = 1;
  config.batch_size = 32;
  config.seed = 1234;
  core::PflSsl algo(config, ssl::Kind::kSimClr);
  const nn::ModelState global = algo.initialize();

  rng::Generator gen(56);
  const tensor::Tensor ssl_pool =
      tensor::Tensor::randn(32, config.encoder.input_dim, gen);
  fl::ClientContext ctx;
  ctx.ssl_pool = &ssl_pool;
  ctx.seed = 78;

  const auto reused = [&] {
    benchmark::DoNotOptimize(algo.local_update(global, ctx));
  };
  const auto rebuilt = [&] {
    core::PflSsl fresh(config, ssl::Kind::kSimClr);
    benchmark::DoNotOptimize(fresh.local_update(global, ctx));
  };
  const auto seconds = [](const std::function<void()>& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Single-threaded kernels: on a shared machine the parallel GEMMs' spread
  // would hide the build's share of a call.
  tensor::kernels::set_parallel_threshold_override(-1);
  reused();  // warmup: the first call builds the method
  // Best of 20, alternating the two, so drift in machine speed reaches
  // both alike.
  WideTrainStepEntry entry;
  entry.steps_per_call = 1;
  entry.reused_seconds_per_call = std::numeric_limits<double>::max();
  entry.rebuilt_seconds_per_call = std::numeric_limits<double>::max();
  for (int r = 0; r < 20; ++r) {
    entry.reused_seconds_per_call =
        std::min(entry.reused_seconds_per_call, seconds(reused));
    entry.rebuilt_seconds_per_call =
        std::min(entry.rebuilt_seconds_per_call, seconds(rebuilt));
  }
  tensor::kernels::set_parallel_threshold_override(0);
  return entry;
}

void dump_train_step_json(const char* path) {
  const ssl::Kind kinds[] = {ssl::Kind::kSimClr, ssl::Kind::kByol,
                             ssl::Kind::kSimSiam};
  std::vector<TrainStepEntry> entries;
  for (const ssl::Kind kind : kinds) {
    core::PflSsl algo(train_step_config(), kind);
    entries.push_back(time_train_step(algo, ssl::kind_name(kind)));
  }
  // Calibre adds the prototype losses (a KMeans over every batch's
  // encodings, L_n's logits against the prototypes, L_p's NT-Xent over
  // them) and the divergence (a KMeans over the shard's encodings).
  core::Calibre calibre(train_step_config(), ssl::Kind::kSimClr);
  entries.push_back(time_train_step(calibre, "Calibre (SimCLR)"));
  const WideTrainStepEntry wide = time_wide_train_step();

  std::ofstream out(path);
  out << "{\n  \"generated_by\": \"bench_micro\",\n"
      << "  \"suite\": \"train_step\",\n"
      << "  \"threads\": " << common::ThreadPool::default_parallelism()
      << ",\n  \"local_epochs\": 1,\n  \"batch_size\": 32,\n"
      << "  \"pool_rows\": 256,\n  \"methods\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TrainStepEntry& e = entries[i];
    const double pool_only_speedup =
        e.pool_off.steps_per_sec > 0.0
            ? e.pooled.steps_per_sec / e.pool_off.steps_per_sec
            : 0.0;
    char buffer[1024];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"method\": \"%s\", \"steps_per_call\": %d,\n"
        "     \"pooled\": {\"seconds_per_call\": %.6e, "
        "\"steps_per_sec\": %.2f, \"allocs_per_step\": %.1f},\n"
        "     \"pool_off\": {\"seconds_per_call\": %.6e, "
        "\"steps_per_sec\": %.2f, \"allocs_per_step\": %.1f},\n"
        "     \"pool_only_speedup\": %.2f}%s\n",
        e.method.c_str(), e.steps_per_call, e.pooled.seconds_per_call,
        e.pooled.steps_per_sec, e.pooled.allocs_per_step,
        e.pool_off.seconds_per_call, e.pool_off.steps_per_sec,
        e.pool_off.allocs_per_step, pool_only_speedup,
        i + 1 < entries.size() ? "," : "");
    out << buffer;
    std::printf(
        "[train_step] %-10s %8.1f steps/s pooled vs %8.1f pool-off "
        "(%.2fx), %5.1f vs %5.1f allocs/step\n",
        e.method.c_str(), e.pooled.steps_per_sec, e.pool_off.steps_per_sec,
        pool_only_speedup, e.pooled.allocs_per_step,
        e.pool_off.allocs_per_step);
  }
  const double reuse_speedup =
      wide.rebuilt_seconds_per_call / wide.reused_seconds_per_call;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "  ],\n  \"wide\": {\"method\": \"SimCLR\", \"threads\": 1, "
      "\"encoder\": \"48-1024-1024-256\", \"pool_rows\": 32, "
      "\"steps_per_call\": %d,\n"
      "    \"reused_seconds_per_call\": %.6e, "
      "\"rebuilt_seconds_per_call\": %.6e, \"reuse_speedup\": %.2f}\n}\n",
      wide.steps_per_call, wide.reused_seconds_per_call,
      wide.rebuilt_seconds_per_call, reuse_speedup);
  out << buffer;
  std::printf(
      "[train_step] wide SimCLR 48-1024-1024-256: %.2f ms/call reused vs "
      "%.2f ms/call rebuilt (%.2fx)\n",
      wide.reused_seconds_per_call * 1e3, wide.rebuilt_seconds_per_call * 1e3,
      reuse_speedup);
  std::printf("[train_step] wrote %s\n", path);
}

// --- BENCH_comm.json ---------------------------------------------------------
//
// Wire-layer cost of a federated round. Three measurements:
//  * broadcast: serializing the global state once and sharing the snapshot
//    across K requests (this tree's runner) vs serializing per client (the
//    pre-snapshot runner), at K = 8 / 64 / 256, plus the serialization count
//    and logical/physical bytes measured through a real Router;
//  * codecs: encode/decode throughput of f32 / f16 / delta16 / topk16 /
//    int8a on an encoder-sized client update, with the round-trip relative
//    error norm (topk16 at the default 1/16 keep rate);
//  * per-round bytes by codec at a fixed K, against the f32 baseline;
//  * ef_encode: one client's steady-state error-feedback topk16 encode
//    (fl::UpdateEncoder, k = 1/16) at the wide workloads' 1.37M-parameter
//    encoder, in ms and in heap bytes per encode. The smoke gate fails if
//    an encode allocates a model-sized buffer;
//  * auto_encode: the same encode under --wire-codec auto, whose exact
//    checks decode candidates into one reused buffer (codec = the codec
//    the chooser picked).

nn::ModelState bench_model_state() {
  rng::Generator gen(9);
  nn::EncoderConfig config;
  nn::MlpEncoder encoder(config, gen);
  return nn::ModelState::from_parameters(encoder.parameters());
}

struct BroadcastEntry {
  int clients = 0;
  double per_client_seconds = 0.0;  // K serializations, K buffers
  double snapshot_seconds = 0.0;    // 1 serialization + K refcounts
  std::uint64_t serializations = 0; // unique buffers through a real Router
  std::uint64_t logical_bytes = 0;
  std::uint64_t physical_bytes = 0;
};

BroadcastEntry time_broadcast(const nn::ModelState& state, int clients) {
  BroadcastEntry entry;
  entry.clients = clients;
  std::size_t sink = 0;
  entry.per_client_seconds = time_best(
      [&] {
        for (int k = 0; k < clients; ++k) {
          const comm::Payload payload(state.to_bytes());
          sink += payload.size();
        }
      },
      5);
  entry.snapshot_seconds = time_best(
      [&] {
        const comm::Payload snapshot(state.to_bytes());
        for (int k = 0; k < clients; ++k) {
          const comm::Payload shared = snapshot;
          sink += shared.size();
        }
      },
      5);
  benchmark::DoNotOptimize(sink);

  // Serialization count and dedup savings measured through a real broadcast.
  // Requests are counted on the dispatching thread; the handlers wait at a
  // gate until the counters are read, so the stats cover the broadcast
  // alone, not the replies.
  std::promise<void> gate;
  const std::shared_future<void> opened = gate.get_future().share();
  comm::Router router(2, [&](int, int, const comm::Payload& request) {
    opened.wait();
    benchmark::DoNotOptimize(request.bytes().data());
    return comm::Payload();
  });
  const comm::Payload snapshot(state.to_bytes());
  std::vector<std::future<comm::Outcome>> pending;
  for (int c = 0; c < clients; ++c) {
    pending.push_back(router.dispatch(c, 0, snapshot));
  }
  const comm::TrafficStats stats = router.stats();
  entry.serializations = stats.broadcast_serializations;
  entry.logical_bytes = stats.logical_bytes;
  entry.physical_bytes = stats.physical_bytes;
  gate.set_value();
  for (std::future<comm::Outcome>& dispatch : pending) dispatch.wait();
  return entry;
}

struct CodecEntry {
  std::string name;
  std::uint64_t broadcast_bytes = 0;  // encoded global state
  std::uint64_t update_bytes = 0;     // encoded client update
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
  double rel_error = 0.0;             // ||decode(encode(u)) - u|| / ||u||
  std::uint64_t round_bytes = 0;      // K * (broadcast + update + headers)
};

struct EfEncodeEntry {
  std::string chosen;  // the concrete codec the encode wrote
  std::size_t params = 0;
  std::size_t topk = 0;
  std::uint64_t wire_bytes = 0;
  double seconds = 0.0;           // best-of steady-state encode
  std::uint64_t heap_bytes = 0;   // requested by one steady-state encode
};

// `codec` is kTopK16 (ef_encode) or kAuto (auto_encode: the chooser's
// estimates and exact checks on top of the same error feedback).
EfEncodeEntry time_ef_encode(comm::Codec codec) {
  fl::FlConfig config;
  config.encoder.hidden_dims = {1024, 1024};
  config.encoder.feature_dim = 256;
  config.wire_codec = codec;
  config.topk_rate = 1.0f / 16.0f;
  // A budget topk16 passes on its estimate but fails on its exact check
  // (relative error ~0.18 on this update), so the chooser checks two
  // candidates exactly before int8a fits: the case where the checks share
  // one decode buffer.
  config.codec_error_budget = 0.15f;
  rng::Generator gen(9);
  nn::MlpEncoder encoder(config.encoder, gen);
  const nn::ModelState base =
      nn::ModelState::from_parameters(encoder.parameters());
  fl::ClientUpdate update;
  {
    std::vector<float> values = base.values();
    for (float& v : values) v += 0.01f * static_cast<float>(gen.normal());
    update.state = nn::ModelState(std::move(values));
  }
  update.weight = 32.0f;
  update.scalars["divergence"] = 0.25f;

  fl::UpdateEncoder ef(config);
  EfEncodeEntry entry;
  entry.params = base.size();
  entry.topk = ef.topk_for(base.size());
  // The first encode creates the client's residual buffer; time_best's
  // warmup call is that first encode, so every timed call is steady state.
  entry.seconds = time_best(
      [&] { benchmark::DoNotOptimize(ef.encode(update, &base, 0)); }, 10);
  const std::uint64_t before = t_heap_bytes;
  comm::Codec chosen = codec;
  const std::vector<std::uint8_t> bytes = ef.encode(update, &base, 0, &chosen);
  entry.heap_bytes = t_heap_bytes - before;
  entry.wire_bytes = bytes.size();
  entry.chosen = comm::codec_name(chosen);
  return entry;
}

bool dump_comm_json(const char* path) {
  const nn::ModelState state = bench_model_state();
  const double state_mb =
      static_cast<double>(state.size()) * sizeof(float) / 1e6;

  std::vector<BroadcastEntry> broadcasts;
  for (const int clients : {8, 64, 256}) {
    broadcasts.push_back(time_broadcast(state, clients));
  }

  // A realistic client update: the global state plus a small local drift —
  // the regime delta16 is built for.
  rng::Generator gen(31);
  const tensor::Tensor drift =
      tensor::Tensor::randn(1, static_cast<std::int64_t>(state.size()), gen);
  fl::ClientUpdate update;
  {
    std::vector<float> values = state.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] += 0.01f * drift(0, static_cast<std::int64_t>(i));
    }
    update.state = nn::ModelState(std::move(values));
  }
  update.weight = 32.0f;
  update.scalars["divergence"] = 0.25f;

  constexpr int kRoundClients = 10;
  std::vector<CodecEntry> codecs;
  for (const comm::Codec codec :
       {comm::Codec::kF32, comm::Codec::kF16, comm::Codec::kDelta16,
        comm::Codec::kTopK16, comm::Codec::kInt8A}) {
    CodecEntry entry;
    entry.name = comm::codec_name(codec);
    // Broadcast under the delta-referenced codecs has no prior reference,
    // so it degrades to f16 — exactly what the runner ships. The update's
    // delta base is that broadcast as both sides decode it.
    const std::vector<std::uint8_t> broadcast_bytes = state.to_bytes(codec);
    const nn::ModelState base = nn::ModelState::from_bytes(broadcast_bytes);
    const nn::ModelState* update_base =
        codec == comm::Codec::kF32 ? nullptr : &base;
    entry.broadcast_bytes = broadcast_bytes.size();
    const std::size_t topk =
        codec == comm::Codec::kTopK16
            ? std::max<std::size_t>(1, state.size() / 16)
            : 0;
    std::vector<std::uint8_t> update_bytes =
        fl::serialize_update(update, codec, update_base, topk);
    entry.update_bytes = update_bytes.size();
    entry.encode_seconds = time_best(
        [&] {
          benchmark::DoNotOptimize(
              fl::serialize_update(update, codec, update_base, topk));
        },
        5);
    entry.decode_seconds = time_best(
        [&] {
          benchmark::DoNotOptimize(
              fl::deserialize_update(update_bytes, update_base));
        },
        5);
    const fl::ClientUpdate decoded =
        fl::deserialize_update(update_bytes, update_base);
    double err = 0.0, ref = 0.0;
    for (std::size_t i = 0; i < update.state.size(); ++i) {
      const double d = static_cast<double>(decoded.state.values()[i]) -
                       update.state.values()[i];
      err += d * d;
      ref += static_cast<double>(update.state.values()[i]) *
             update.state.values()[i];
    }
    entry.rel_error = ref > 0.0 ? std::sqrt(err) / std::sqrt(ref) : 0.0;
    entry.round_bytes =
        static_cast<std::uint64_t>(kRoundClients) *
        (entry.broadcast_bytes + entry.update_bytes +
         2 * comm::kHeaderBytes);
    codecs.push_back(entry);
  }

  std::ofstream out(path);
  out << "{\n  \"generated_by\": \"bench_micro\",\n"
      << "  \"suite\": \"comm\",\n"
      << "  \"model_params\": " << state.size() << ",\n"
      << "  \"round_clients\": " << kRoundClients << ",\n"
      << "  \"broadcast\": [\n";
  for (std::size_t i = 0; i < broadcasts.size(); ++i) {
    const BroadcastEntry& e = broadcasts[i];
    const double speedup = e.snapshot_seconds > 0.0
                               ? e.per_client_seconds / e.snapshot_seconds
                               : 0.0;
    const double saved =
        e.logical_bytes > 0
            ? 100.0 * static_cast<double>(e.logical_bytes - e.physical_bytes) /
                  static_cast<double>(e.logical_bytes)
            : 0.0;
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"clients\": %d, \"per_client_seconds\": %.6e, "
                  "\"snapshot_seconds\": %.6e, \"speedup\": %.2f, "
                  "\"serializations\": %llu, \"logical_bytes\": %llu, "
                  "\"physical_bytes\": %llu, \"dedup_saved_pct\": %.1f}%s\n",
                  e.clients, e.per_client_seconds, e.snapshot_seconds, speedup,
                  static_cast<unsigned long long>(e.serializations),
                  static_cast<unsigned long long>(e.logical_bytes),
                  static_cast<unsigned long long>(e.physical_bytes), saved,
                  i + 1 < broadcasts.size() ? "," : "");
    out << buffer;
    std::printf(
        "[comm] broadcast K=%-3d  %.3f ms per-client vs %.3f ms snapshot "
        "(%.1fx, %llu serialization%s, %.1f%% bytes deduplicated)\n",
        e.clients, e.per_client_seconds * 1e3, e.snapshot_seconds * 1e3,
        speedup, static_cast<unsigned long long>(e.serializations),
        e.serializations == 1 ? "" : "s", saved);
  }
  out << "  ],\n  \"codecs\": [\n";
  const std::uint64_t f32_round_bytes = codecs.front().round_bytes;
  for (std::size_t i = 0; i < codecs.size(); ++i) {
    const CodecEntry& e = codecs[i];
    const double reduction =
        f32_round_bytes > 0
            ? 100.0 *
                  static_cast<double>(f32_round_bytes - e.round_bytes) /
                  static_cast<double>(f32_round_bytes)
            : 0.0;
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"name\": \"%s\", \"broadcast_bytes\": %llu, "
        "\"update_bytes\": %llu, \"encode_seconds\": %.6e, "
        "\"decode_seconds\": %.6e, \"encode_mb_per_s\": %.1f, "
        "\"decode_mb_per_s\": %.1f, \"round_trip_rel_error\": %.3e, "
        "\"round_bytes\": %llu, \"reduction_vs_f32_pct\": %.1f}%s\n",
        e.name.c_str(), static_cast<unsigned long long>(e.broadcast_bytes),
        static_cast<unsigned long long>(e.update_bytes), e.encode_seconds,
        e.decode_seconds,
        e.encode_seconds > 0.0 ? state_mb / e.encode_seconds : 0.0,
        e.decode_seconds > 0.0 ? state_mb / e.decode_seconds : 0.0,
        e.rel_error, static_cast<unsigned long long>(e.round_bytes),
        reduction, i + 1 < codecs.size() ? "," : "");
    out << buffer;
    std::printf(
        "[comm] codec %-8s %7.1f KB/round-trip, encode %6.1f MB/s, "
        "decode %6.1f MB/s, rel err %.2e, round bytes %.1f KB "
        "(%.1f%% vs f32)\n",
        e.name.c_str(),
        static_cast<double>(e.broadcast_bytes + e.update_bytes) / 1e3,
        e.encode_seconds > 0.0 ? state_mb / e.encode_seconds : 0.0,
        e.decode_seconds > 0.0 ? state_mb / e.decode_seconds : 0.0,
        e.rel_error, static_cast<double>(e.round_bytes) / 1e3, reduction);
  }
  const EfEncodeEntry ef = time_ef_encode(comm::Codec::kTopK16);
  const EfEncodeEntry chooser = time_ef_encode(comm::Codec::kAuto);
  const std::uint64_t model_bytes = ef.params * sizeof(float);
  out << "  ],\n";
  for (const auto& [key, e] :
       {std::pair{"ef_encode", &ef}, std::pair{"auto_encode", &chooser}}) {
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "  \"%s\": {\"codec\": \"%s\", \"params\": %zu, "
                  "\"topk\": %zu, \"wire_bytes\": %llu, "
                  "\"ms_per_encode\": %.3f, \"heap_bytes_per_encode\": %llu, "
                  "\"model_bytes\": %llu}%s\n",
                  key, e->chosen.c_str(), e->params, e->topk,
                  static_cast<unsigned long long>(e->wire_bytes),
                  e->seconds * 1e3,
                  static_cast<unsigned long long>(e->heap_bytes),
                  static_cast<unsigned long long>(model_bytes),
                  e == &ef ? "," : "");
    out << buffer;
    std::printf(
        "[comm] %s (%s) %zu params (k %zu): %.2f ms, %.2f MB heap per "
        "encode (model %.2f MB)\n",
        key, e->chosen.c_str(), e->params, e->topk, e->seconds * 1e3,
        static_cast<double>(e->heap_bytes) / 1e6,
        static_cast<double>(model_bytes) / 1e6);
  }
  out << "}\n";
  std::printf("[comm] wrote %s\n", path);
  if (ef.heap_bytes >= model_bytes) {
    std::fprintf(stderr,
                 "[comm] FAILED: an error-feedback encode allocated %llu "
                 "bytes, at least one model-sized buffer\n",
                 static_cast<unsigned long long>(ef.heap_bytes));
    return false;
  }
  return true;
}

// --- personalize suite ------------------------------------------------------
//
// The personalization stage of bench_e2e's wide workloads: pFL-SimCLR on the
// 48-1024-1024-256 encoder, 128 + 48 clients of 32 train and 64 test rows
// (Dirichlet 0.3 over the cifar10 preset), three device threads. It runs
// twice over one state: as one sweep, whose distinct rows fit the budget,
// so core::PflSsl encodes each of them once into its feature table, and
// through bench::WithoutSweep, where every client encodes its own rows.
// The two must give identical accuracies.
//
// It then splits the sweep's work in two and times each part on its own:
// the table encode (every distinct row once, in the table's 64-row slices)
// and the per-client gather and linear probe (with the stage's seeds, so
// the accuracies must again be identical).

struct PersonalizeShape {
  int train_clients = 128;
  int novel_clients = 48;
  int samples = 32;
  int test_samples = 64;
  std::vector<std::int64_t> hidden_dims = {1024, 1024};
  std::int64_t feature_dim = 256;
  int trials = 9;
};

// CPU seconds of every thread of the process.
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Median and quartiles of a set of trials.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

Spread spread_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
  };
  return {at(0.5), at(0.25), at(0.75)};
}

std::string spread_json(const Spread& s) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "{\"median\": %.4f, \"q1\": %.4f, \"q3\": %.4f}", s.median,
                s.q1, s.q3);
  return buffer;
}

// The sweep's two parts, run apart on the calling thread over one state,
// with serial kernels so each part's CPU time is its own work.
struct PersonalizeSplit {
  double encode_cpu_s = 0.0;
  double probe_cpu_s = 0.0;
  std::vector<std::uint64_t> accuracy_bits;  // train clients, then novel
};

PersonalizeSplit run_personalize_split(const fl::FlConfig& config,
                                       const nn::ModelState& state,
                                       const fl::FedDataset& fed,
                                       const std::vector<int>& train_rows,
                                       const std::vector<int>& test_rows) {
  constexpr std::size_t kSliceRows = 64;  // core::PflSsl's table slices
  const auto feature_dim = static_cast<std::size_t>(config.encoder.feature_dim);
  PersonalizeSplit split;
  tensor::kernels::set_parallel_threshold_override(-1);
  double cpu0 = process_cpu_seconds();
  // Built like core::PflSsl's methods, so the features are the stage's.
  const auto method = ssl::make_method(ssl::Kind::kSimClr, config.encoder,
                                       ssl::SslConfig{}, config.seed);
  state.apply_to(method->shared_parameters());
  const auto encode_all = [&](const tensor::Tensor& x,
                              const std::vector<int>& rows) {
    std::vector<float> table(rows.size() * feature_dim);
    for (std::size_t first = 0; first < rows.size(); first += kSliceRows) {
      const std::size_t count = std::min(kSliceRows, rows.size() - first);
      const tensor::Tensor encoded = method->encode(tensor::take_rows(
          x, std::span<const int>(rows.data() + first, count)));
      std::copy_n(encoded.data(), encoded.size(),
                  table.data() + first * feature_dim);
    }
    return table;
  };
  const std::vector<float> train_table =
      encode_all(fed.base_train.x, train_rows);
  const std::vector<float> test_table = encode_all(fed.base_test.x, test_rows);
  split.encode_cpu_s = process_cpu_seconds() - cpu0;

  cpu0 = process_cpu_seconds();
  const auto gather = [&](const std::vector<float>& table,
                          const std::vector<int>& distinct,
                          std::span<const int> rows) {
    tensor::Tensor out(static_cast<std::int64_t>(rows.size()),
                       static_cast<std::int64_t>(feature_dim));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto at = static_cast<std::size_t>(
          std::lower_bound(distinct.begin(), distinct.end(), rows[i]) -
          distinct.begin());
      std::copy_n(table.data() + at * feature_dim, feature_dim,
                  out.data() + i * feature_dim);
    }
    return out;
  };
  const int train_clients = fed.num_train_clients();
  for (std::size_t c = 0; c < fed.train_indices.size(); ++c) {
    const bool novel = static_cast<int>(c) >= train_clients;
    const int id = novel ? static_cast<int>(c) - train_clients
                         : static_cast<int>(c);
    const data::Dataset train = fed.base_train.subset(fed.train_indices[c]);
    const data::Dataset test = fed.base_test.subset(fed.test_indices[c]);
    const double accuracy = fl::linear_probe_accuracy(
        gather(train_table, train_rows, fed.train_indices[c]), train.labels,
        gather(test_table, test_rows, fed.test_indices[c]), test.labels,
        config.num_classes, config.probe,
        fl::derive_seed(config.seed, novel ? 0xB22 : 0xA11,
                        static_cast<std::uint64_t>(id)));
    split.accuracy_bits.push_back(std::bit_cast<std::uint64_t>(accuracy));
  }
  split.probe_cpu_s = process_cpu_seconds() - cpu0;
  tensor::kernels::set_parallel_threshold_override(0);
  return split;
}

// Returns false when the two groupings, or the split, disagree on any
// accuracy. With `smoke` it runs a tiny shape once and writes nothing.
bool dump_personalize_json(const char* path, bool smoke) {
  PersonalizeShape shape;
  if (smoke) {
    shape.train_clients = 8;
    shape.novel_clients = 4;
    shape.samples = 16;
    shape.test_samples = 16;
    shape.hidden_dims = {64, 64};
    shape.feature_dim = 32;
    shape.trials = 0;
  }
  const data::SyntheticDataset synth =
      data::make_synthetic(data::preset_by_name("cifar10"));
  data::PartitionConfig partition_config;
  partition_config.num_clients = shape.train_clients + shape.novel_clients;
  partition_config.samples_per_client = shape.samples;
  partition_config.test_samples_per_client = shape.test_samples;
  rng::Generator partition_gen(71);
  const data::Partition partition = data::partition_dirichlet(
      synth.train, synth.test, partition_config, 0.3, partition_gen);
  rng::Generator fed_gen(72);
  fl::FedDataset fed =
      fl::build_fed_dataset(synth, partition, shape.train_clients, fed_gen);
  if (smoke) {
    // A Dirichlet partition hands out disjoint rows. Client 1 takes the
    // first half of client 0's rows in place of its own, so the smoke's
    // table serves rows that two clients share.
    const auto share_rows = [](const data::IndexLists& lists) {
      std::vector<std::vector<int>> out;
      for (std::size_t c = 0; c < lists.size(); ++c) {
        out.emplace_back(lists[c].begin(), lists[c].end());
      }
      std::copy_n(out[0].begin(), out[0].size() / 2, out[1].begin());
      return data::IndexLists::from_lists(out);
    };
    fed.train_indices = share_rows(fed.train_indices);
    fed.test_indices = share_rows(fed.test_indices);
  }

  fl::FlConfig config;
  config.encoder.input_dim = synth.train.input_dim();
  config.encoder.hidden_dims = shape.hidden_dims;
  config.encoder.feature_dim = shape.feature_dim;
  config.num_classes = synth.train.num_classes;
  config.num_train_clients = shape.train_clients;
  config.threads = 3;
  config.seed = 73;
  core::PflSsl algorithm(config, ssl::Kind::kSimClr);
  bench::WithoutSweep without(algorithm);
  const nn::ModelState state = algorithm.initialize();

  std::size_t rows_referenced = 0;
  std::vector<int> train_rows;
  std::vector<int> test_rows;
  for (std::size_t c = 0; c < fed.train_indices.size(); ++c) {
    rows_referenced += fed.train_indices[c].size() + fed.test_indices[c].size();
    train_rows.insert(train_rows.end(), fed.train_indices[c].begin(),
                      fed.train_indices[c].end());
    test_rows.insert(test_rows.end(), fed.test_indices[c].begin(),
                     fed.test_indices[c].end());
  }
  for (std::vector<int>* rows : {&train_rows, &test_rows}) {
    std::sort(rows->begin(), rows->end());
    rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
  }
  const std::size_t rows_distinct = train_rows.size() + test_rows.size();

  struct Grouping {
    const char* name;
    fl::Algorithm* algorithm;
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    std::vector<std::uint64_t> accuracy_bits;
  } groupings[] = {{"sweep", &algorithm, {}, {}, {}},
                   {"per_client", &without, {}, {}, {}}};
  // One untimed run of each first (it builds the methods and records the
  // accuracies), then the timed trials, alternating the two so drift in
  // machine speed reaches both alike.
  for (int trial = -1; trial < shape.trials; ++trial) {
    for (Grouping& g : groupings) {
      const double cpu0 = process_cpu_seconds();
      const auto wall0 = std::chrono::steady_clock::now();
      fl::RunResult result;
      fl::personalize_clients(*g.algorithm, state, fed,
                              /*personalize_novel=*/true, result);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall0)
                              .count();
      const double cpu = process_cpu_seconds() - cpu0;
      if (trial < 0) {
        for (const auto* set :
             {&result.train_accuracies, &result.novel_accuracies}) {
          for (const double a : *set) {
            g.accuracy_bits.push_back(std::bit_cast<std::uint64_t>(a));
          }
        }
        continue;
      }
      g.wall_s.push_back(wall);
      g.cpu_s.push_back(cpu);
    }
  }
  std::vector<double> encode_cpu_s;
  std::vector<double> probe_cpu_s;
  bool split_identical = true;
  for (int trial = -1; trial < shape.trials; ++trial) {
    const PersonalizeSplit split =
        run_personalize_split(config, state, fed, train_rows, test_rows);
    split_identical =
        split_identical && split.accuracy_bits == groupings[0].accuracy_bits;
    if (trial < 0) continue;
    encode_cpu_s.push_back(split.encode_cpu_s);
    probe_cpu_s.push_back(split.probe_cpu_s);
  }
  const bool identical =
      groupings[0].accuracy_bits == groupings[1].accuracy_bits &&
      split_identical;
  // The sweep was tabled when the table's peak held every distinct row;
  // then those are the rows it encoded, else every client encoded its own.
  const bool tabled =
      algorithm.peak_table_floats() ==
      rows_distinct * static_cast<std::size_t>(shape.feature_dim);
  std::printf(
      "[personalize] %zu clients, %zu rows referenced, %zu distinct (%s), "
      "accuracies %s, split %s\n",
      fed.train_indices.size(), rows_referenced, rows_distinct,
      tabled ? "tabled" : "not tabled",
      groupings[0].accuracy_bits == groupings[1].accuracy_bits ? "identical"
                                                               : "DIFFER",
      split_identical ? "identical" : "DIFFERS");
  if (smoke) return identical;

  std::ofstream out(path);
  out << "{\n  \"generated_by\": \"bench_micro\",\n"
      << "  \"suite\": \"personalize\",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n  \"threads\": " << config.threads
      << ",\n  \"method\": \"pFL-SimCLR\",\n"
      << "  \"encoder\": \"48-1024-1024-256\",\n"
      << "  \"clients\": " << fed.train_indices.size()
      << ",\n  \"rows_referenced\": " << rows_referenced
      << ",\n  \"rows_distinct\": " << rows_distinct
      << ",\n  \"tabled\": " << (tabled ? "true" : "false")
      << ",\n  \"table_peak_floats\": " << algorithm.peak_table_floats()
      << ",\n  \"trials\": " << shape.trials
      << ",\n  \"accuracies_identical\": " << (identical ? "true" : "false")
      << ",\n  \"groupings\": [\n";
  for (std::size_t i = 0; i < 2; ++i) {
    const Grouping& g = groupings[i];
    const Spread wall = spread_of(g.wall_s);
    const Spread cpu = spread_of(g.cpu_s);
    const std::size_t rows_encoded =
        i == 0 && tabled ? rows_distinct : rows_referenced;
    out << "    {\"grouping\": \"" << g.name
        << "\", \"rows_encoded\": " << rows_encoded
        << ",\n     \"stage_wall_s\": " << spread_json(wall)
        << ",\n     \"stage_cpu_s\": " << spread_json(cpu) << "}"
        << (i == 0 ? "," : "") << "\n";
    std::printf(
        "[personalize] %-10s stage wall %.3f s [%.3f, %.3f], cpu %.3f s "
        "[%.3f, %.3f]\n",
        g.name, wall.median, wall.q1, wall.q3, cpu.median, cpu.q1, cpu.q3);
  }
  const Spread encode = spread_of(encode_cpu_s);
  const Spread probe = spread_of(probe_cpu_s);
  out << "  ],\n  \"split\": {\"threads\": 1"
      << ",\n    \"encode_cpu_s\": " << spread_json(encode)
      << ",\n    \"gather_probe_cpu_s\": " << spread_json(probe)
      << ",\n    \"accuracies_identical\": "
      << (split_identical ? "true" : "false") << "}\n}\n";
  std::printf(
      "[personalize] split: encode cpu %.3f s [%.3f, %.3f], gather+probe "
      "cpu %.3f s [%.3f, %.3f]\n",
      encode.median, encode.q1, encode.q3, probe.median, probe.q1, probe.q3);
  std::printf("[personalize] wrote %s\n", path);
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  // --suite {kernels|train_step|comm|personalize|all} selects which JSON
  // dump(s) run after the google-benchmark suite; --smoke shrinks the
  // personalize suite to a CI-sized check. Parsed (and stripped) before
  // benchmark::Initialize so the library never sees the flags.
  std::string suite = "all";
  bool smoke = false;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--suite=", 0) == 0) {
      suite = arg.substr(8);
    } else if (arg == "--suite" && i + 1 < argc) {
      suite = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  if (suite != "all" && suite != "kernels" && suite != "train_step" &&
      suite != "comm" && suite != "personalize") {
    std::fprintf(stderr,
                 "unknown --suite '%s' (expected "
                 "kernels|train_step|comm|personalize|all)\n",
                 suite.c_str());
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (suite == "all" || suite == "kernels") {
    dump_kernel_json("BENCH_kernels.json");
  }
  if (suite == "all" || suite == "train_step") {
    dump_train_step_json("BENCH_train_step.json");
  }
  if ((suite == "all" || suite == "comm") &&
      !dump_comm_json("BENCH_comm.json")) {
    return 1;
  }
  if ((suite == "all" || suite == "personalize") &&
      !dump_personalize_json("BENCH_personalize.json", smoke)) {
    return 1;
  }
  return 0;
}
