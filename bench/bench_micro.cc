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
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "cluster/kmeans.h"
#include "comm/codec.h"
#include "comm/router.h"
#include "common/thread_pool.h"
#include "core/pfl_ssl.h"
#include "core/prototype_loss.h"
#include "flapi/algorithm.h"
#include "flapi/fixed_accum.h"
#include "metrics/tsne.h"
#include "nn/losses.h"
#include "nn/networks.h"
#include "nn/optim.h"
#include "ssl/simclr.h"
#include "tensor/kernels.h"
#include "tensor/pool.h"

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
  comm::Router router(2);
  router.register_endpoint(0, [&](const comm::Message& request) {
    comm::Message response;
    response.type = comm::MessageType::kTrainResponse;
    response.sender = 0;
    response.receiver = comm::kServerEndpoint;
    response.payload = request.payload;
    router.send(std::move(response));
  });
  std::vector<std::uint8_t> payload(64 * 1024, 0xAB);
  for (auto _ : state) {
    comm::Message request;
    request.type = comm::MessageType::kTrainRequest;
    request.receiver = 0;
    request.payload = payload;
    router.send(std::move(request));
    benchmark::DoNotOptimize(router.server_mailbox().pop());
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
  out << "{\n  \"generated_by\": \"bench_micro\",\n  \"runs\": [\n";
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
// in two configurations:
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

TrainStepEntry time_train_step(ssl::Kind kind) {
  fl::FlConfig config;
  config.local_epochs = 1;
  config.batch_size = 32;
  config.seed = 1234;
  core::PflSsl algo(config, kind);
  const nn::ModelState global = algo.initialize();

  rng::Generator gen(55);
  const tensor::Tensor ssl_pool =
      tensor::Tensor::randn(256, config.encoder.input_dim, gen);
  fl::ClientContext ctx;
  ctx.client_id = 0;
  ctx.round = 0;
  ctx.ssl_pool = &ssl_pool;
  ctx.seed = 77;

  TrainStepEntry entry;
  entry.method = ssl::kind_name(kind);
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
    run.seconds_per_call = time_best(one_call, 5);
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
  for (const ssl::Kind kind : kinds) entries.push_back(time_train_step(kind));
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
//  * per-round bytes by codec at a fixed K, against the f32 baseline.

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

  // Serialization count and dedup savings measured through a real broadcast:
  // counters advance on the sending thread, so stats are final after the
  // send loop even while handlers drain on the pool.
  comm::Router router(2);
  for (int c = 0; c < clients; ++c) {
    router.register_endpoint(c, [](const comm::Message& request) {
      benchmark::DoNotOptimize(request.payload.bytes().data());
    });
  }
  const comm::Payload snapshot(state.to_bytes());
  for (int c = 0; c < clients; ++c) {
    comm::Message request;
    request.type = comm::MessageType::kTrainRequest;
    request.sender = comm::kServerEndpoint;
    request.receiver = c;
    request.payload = snapshot;
    router.send(std::move(request));
  }
  const comm::TrafficStats stats = router.stats();
  entry.serializations = stats.broadcast_serializations;
  entry.logical_bytes = stats.logical_bytes;
  entry.physical_bytes = stats.physical_bytes;
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

void dump_comm_json(const char* path) {
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
         2 * comm::Message::kHeaderBytes);
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
  out << "  ]\n}\n";
  std::printf("[comm] wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // --suite {kernels|train_step|comm|all} selects which JSON dump(s) run
  // after the google-benchmark suite. Parsed (and stripped) before
  // benchmark::Initialize so the library never sees the flag.
  std::string suite = "all";
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--suite=", 0) == 0) {
      suite = arg.substr(8);
    } else if (arg == "--suite" && i + 1 < argc) {
      suite = argv[++i];
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  if (suite != "all" && suite != "kernels" && suite != "train_step" &&
      suite != "comm") {
    std::fprintf(
        stderr,
        "unknown --suite '%s' (expected kernels|train_step|comm|all)\n",
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
  if (suite == "all" || suite == "comm") {
    dump_comm_json("BENCH_comm.json");
  }
  return 0;
}
