// bench_codec — the compression frontier: accuracy/fairness vs wire bytes
// across every update codec on one fixed-seed federation.
//
// Runs the same FedAvg workbench once per codec (f32, f16, delta16, topk16,
// int8a, auto) and reports collected wire bytes, the update compression
// ratio, probe accuracy with fairness, and throughput. Three HARD gates
// (exit 2 on violation) anchor the PR's claims:
//
//   1. Bit-identity: the f32 run's final-state hash must equal the constant
//      captured before the codec work landed — the default path never
//      drifts — and the topk16 and auto runs must hash to their recorded
//      constants, so error-feedback encoder rewrites stay bit-identical.
//   2. Compression: topk16 (with error feedback) and int8a must shrink the
//      folded updates to <= 25% / <= 26% of their f32 wire bytes. (int8a's
//      floor is 1 byte per coordinate + per-block params ~ 25.8% of f32 —
//      the gate reflects that honestly rather than rounding down.)
//   3. Accuracy: every lossy codec lands within half a probe-accuracy point
//      of the f32 run, and `auto` must never cost more wire bytes than f32.
//      The auto run is additionally re-run at a different thread count and
//      must reproduce the same final hash and per-round codec choices.
//
//   bench_codec               # -> BENCH_codec.json
//   bench_codec --smoke       # identical scale (the gates need the fixed
//                             # workbench); kept for CI-lane symmetry
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "metrics/fairness.h"
#include "metrics/stats.h"

namespace calibre::bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

// Final-state hash of the f32 run captured on the pre-codec tree; the
// compression work must never move the default path off these bits.
constexpr std::uint64_t kExpectedF32Hash = 0x89149e2ffb0b8859ULL;
// Final-state hashes of the error-feedback runs (topk16, and auto, which
// mixes int8a with delta16), captured before the topk16 encoder moved to an
// in-place radix select: encoder rewrites must keep these bits too.
constexpr std::uint64_t kExpectedTopK16Hash = 0xe68575b46c93c48bULL;
constexpr std::uint64_t kExpectedAutoHash = 0xc2d3d247c21009bcULL;
constexpr double kAccuracyTolerance = 0.005;  // half a probe point

std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const float v : values) {
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 32; b += 8) {
      hash ^= (bits >> b) & 0xFFu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

Workbench codec_workbench() {
  Setting setting;
  setting.dataset = "cifar10";
  setting.partition = "dirichlet";
  Scale scale;
  scale.train_clients = 16;
  scale.novel_clients = 0;
  scale.rounds = 20;
  scale.clients_per_round = 5;
  scale.samples_per_client = 150;
  scale.test_samples_per_client = 100;
  scale.local_epochs = 2;
  scale.seed = 42;
  Workbench bench = build_workbench(setting, scale);
  bench.config.threads = 2;
  return bench;
}

struct CodecRun {
  std::string name;
  std::uint64_t collected = 0;   // logical collected bytes, all rounds
  std::uint64_t wire = 0;        // folded updates, encoded bytes
  std::uint64_t f32_equiv = 0;   // same updates in the f32 layout
  double accuracy = 0.0;
  double variance = 0.0;
  double jain = 0.0;
  std::uint64_t hash = 0;
  double seconds = 0.0;
  // Summed chooser decision record (slot = codec tag); per-round counts for
  // the determinism gate.
  std::array<std::uint64_t, 6> codec_totals{};
  std::vector<std::array<std::uint32_t, 6>> per_round_codecs;
};

CodecRun run_codec(comm::Codec codec, int threads) {
  const Workbench bench = codec_workbench();
  fl::FlConfig config = bench.config;
  config.wire_codec = codec;
  config.threads = threads;
  const auto algorithm = algos::make_algorithm("FedAvg", config);
  const SteadyClock::time_point start = SteadyClock::now();
  const fl::RunResult result = fl::run_federated(*algorithm, bench.fed, false);
  CodecRun run;
  run.name = comm::codec_name(codec);
  run.seconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  for (const fl::RoundStats& r : result.history) {
    run.collected += r.bytes_collected;
    run.wire += r.update_bytes_wire;
    run.f32_equiv += r.update_bytes_f32;
    for (std::size_t tag = 0; tag < r.codec_counts.size(); ++tag) {
      run.codec_totals[tag] += r.codec_counts[tag];
    }
    run.per_round_codecs.push_back(r.codec_counts);
  }
  const auto stats = metrics::compute_stats(result.train_accuracies);
  const auto fairness = metrics::compute_fairness(result.train_accuracies);
  run.accuracy = stats.mean;
  run.variance = fairness.variance;
  run.jain = fairness.jain_index;
  run.hash = fnv1a(result.final_state.values());
  return run;
}

int run(const std::string& out_path) {
  const comm::Codec codecs[] = {comm::Codec::kF32,    comm::Codec::kF16,
                                comm::Codec::kDelta16, comm::Codec::kTopK16,
                                comm::Codec::kInt8A,  comm::Codec::kAuto};
  std::vector<CodecRun> runs;
  for (const comm::Codec codec : codecs) {
    runs.push_back(run_codec(codec, /*threads=*/2));
    const CodecRun& run = runs.back();
    std::printf(
        "[codec] %-8s collected %9llu B  update ratio %.3f  acc %.4f  "
        "jain %.4f  %6.2fs  hash %016llx\n",
        run.name.c_str(), static_cast<unsigned long long>(run.collected),
        run.f32_equiv ? static_cast<double>(run.wire) /
                            static_cast<double>(run.f32_equiv)
                      : 1.0,
        run.accuracy, run.jain, run.seconds,
        static_cast<unsigned long long>(run.hash));
  }
  const CodecRun& f32 = runs[0];
  const CodecRun& topk = runs[3];
  const CodecRun& int8 = runs[4];
  const CodecRun& auto_run = runs[5];

  bool ok = true;
  const auto gate = [&ok](bool pass, const char* what) {
    if (!pass) {
      std::fprintf(stderr, "[codec] GATE FAILED: %s\n", what);
      ok = false;
    }
  };
  gate(f32.hash == kExpectedF32Hash,
       "f32 final-state hash moved off the pre-codec constant");
  gate(topk.hash == kExpectedTopK16Hash,
       "topk16 final-state hash moved off its recorded constant");
  gate(auto_run.hash == kExpectedAutoHash,
       "auto final-state hash moved off its recorded constant");
  const auto ratio = [&f32](const CodecRun& run) {
    return static_cast<double>(run.wire) / static_cast<double>(f32.wire);
  };
  gate(ratio(topk) <= 0.25, "topk16 update bytes exceed 25% of f32");
  gate(ratio(int8) <= 0.26, "int8a update bytes exceed 26% of f32");
  gate(auto_run.wire <= f32.wire, "auto costs more wire bytes than f32");
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const CodecRun& lossy = runs[i];
    if (std::abs(lossy.accuracy - f32.accuracy) > kAccuracyTolerance) {
      std::fprintf(stderr,
                   "[codec] GATE FAILED: %s accuracy %.4f drifts more than "
                   "%.3f from f32's %.4f\n",
                   lossy.name.c_str(), lossy.accuracy, kAccuracyTolerance,
                   f32.accuracy);
      ok = false;
    }
  }
  // The chooser must be a pure function of the stream: a different thread
  // count may not change the bits or the per-round codec decisions.
  const CodecRun auto_rerun = run_codec(comm::Codec::kAuto, /*threads=*/4);
  gate(auto_rerun.hash == auto_run.hash,
       "auto run hash changed with the thread count");
  gate(auto_rerun.per_round_codecs == auto_run.per_round_codecs,
       "auto per-round codec choices changed with the thread count");

  std::ofstream out(out_path);
  out << "{\n  \"generated_by\": \"bench_codec\",\n"
      << "  \"f32_hash\": \"" << std::hex << f32.hash << std::dec << "\",\n"
      << "  \"gates_passed\": " << (ok ? "true" : "false") << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CodecRun& run = runs[i];
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"codec\": \"%s\", \"collected_bytes\": %llu, "
        "\"update_wire_bytes\": %llu, \"update_f32_bytes\": %llu, "
        "\"accuracy\": %.6f, \"variance\": %.6f, \"jain\": %.6f, "
        "\"seconds\": %.3f, \"hash\": \"%016llx\", \"chosen\": "
        "{\"f32\": %llu, \"f16\": %llu, \"delta16\": %llu, "
        "\"topk16\": %llu, \"int8a\": %llu}}%s\n",
        run.name.c_str(), static_cast<unsigned long long>(run.collected),
        static_cast<unsigned long long>(run.wire),
        static_cast<unsigned long long>(run.f32_equiv), run.accuracy,
        run.variance, run.jain, run.seconds,
        static_cast<unsigned long long>(run.hash),
        static_cast<unsigned long long>(run.codec_totals[1]),
        static_cast<unsigned long long>(run.codec_totals[2]),
        static_cast<unsigned long long>(run.codec_totals[3]),
        static_cast<unsigned long long>(run.codec_totals[4]),
        static_cast<unsigned long long>(run.codec_totals[5]),
        i + 1 < runs.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
  std::printf("[codec] wrote %s\n", out_path.c_str());

  if (!ok) return 2;
  std::printf("[codec] all gates passed\n");
  return 0;
}

}  // namespace
}  // namespace calibre::bench

int main(int argc, char** argv) {
  std::string out = "BENCH_codec.json";
  const calibre::flags::Parser args(argc, argv);
  if (!calibre::bench::read_flags(args, [&] {
        // --smoke is accepted and changes nothing: the gate constants are
        // tied to the fixed workbench, so the smoke run IS the full run
        // (~3 s for all codecs).
        args.has("smoke");
        out = args.get("out", out);
      })) {
    return 1;
  }
  return calibre::bench::run(out);
}
