// bench_hierarchy — partial-fold trees vs the flat fold.
//
// Synthesizes K f16-serialized client updates at a large model dimension
// and folds them through fl::ShardedFolder at shard counts {1, 2, 4, 8}:
// shard 1 is the flat fold, higher counts fold rank r into partial (r % N)
// and merge the partials in order at collect. A two-level topology (two
// edge folders of 4 shards each, edge roots merged via
// StreamingAggregator::merge) demonstrates the same algebra composing
// across aggregation tiers, the way a geo-distributed deployment would
// place edge aggregators in front of the server.
//
// The HARD gate is determinism, not speed: every configuration must hash
// bit-identical to the flat fold (the fixed-point accumulators in
// flapi/fixed_accum.h guarantee it), and the bench exits nonzero on any
// mismatch. Every configuration decodes and folds on the calling thread,
// as the round engine does, so the per-count times price what each extra
// partial costs: one more O(model) accumulator and one more merge pass.
//
//   bench_hierarchy               # full size -> BENCH_hierarchy.json
//   bench_hierarchy --smoke       # CI-sized, a couple of seconds
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "comm/payload.h"
#include "common/thread_pool.h"
#include "fl/shard_fold.h"
#include "tensor/rng.h"

namespace calibre::bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

struct HierarchyOptions {
  int dim = 1 << 18;    // floats per update
  int updates = 64;     // K folded per configuration
  std::string out = "BENCH_hierarchy.json";
};

// Minimal algorithm whose only job is handing ShardedFolder the default
// mergeable fold; the training-side entry points are never called here.
class BenchAlgo : public fl::Algorithm {
 public:
  BenchAlgo() : fl::Algorithm(fl::FlConfig{}) {}
  std::string name() const override { return "bench-hierarchy"; }
  nn::ModelState initialize() override { return nn::ModelState(); }
  fl::ClientUpdate local_update(const nn::ModelState&,
                                const fl::ClientContext&) override {
    return {};
  }
  double personalize(const nn::ModelState&,
                     const fl::PersonalizationContext&) override {
    return 0.0;
  }
};

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

struct FoldRun {
  int shards = 0;
  double seconds = 0.0;        // submit -> collect -> finish, wall clock
  double decode_seconds = 0.0; // wall clock inside the submit() calls
  double fold_seconds = 0.0;
  std::uint64_t hash = 0;
};

FoldRun run_sharded(BenchAlgo& algo, const std::vector<comm::Payload>& wire,
                    int shards) {
  const nn::ModelState global;
  const SteadyClock::time_point start = SteadyClock::now();
  fl::ShardedFolder folder(algo, global, /*round=*/0, shards);
  for (std::size_t rank = 0; rank < wire.size(); ++rank) {
    folder.submit(static_cast<int>(rank), wire[rank], nullptr, 1.0f);
  }
  std::unique_ptr<fl::StreamingAggregator> merged = folder.collect();
  const nn::ModelState state = merged->finish();

  FoldRun run;
  run.shards = shards;
  run.seconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  run.decode_seconds = folder.decode_seconds();
  run.fold_seconds = folder.fold_seconds();
  run.hash = fnv1a(state.values());
  return run;
}

// Two-level tree: the update stream splits across two edge folders (4
// shards each), whose merged roots combine server-side with one more
// merge(). Any disjoint partition of the updates must land on the flat
// fold's bits.
FoldRun run_two_level(BenchAlgo& algo, const std::vector<comm::Payload>& wire) {
  const nn::ModelState global;
  const int edge_shards = 4;
  const SteadyClock::time_point start = SteadyClock::now();
  fl::ShardedFolder edge_a(algo, global, 0, edge_shards);
  fl::ShardedFolder edge_b(algo, global, 0, edge_shards);
  const std::size_t half = wire.size() / 2;
  for (std::size_t rank = 0; rank < wire.size(); ++rank) {
    fl::ShardedFolder& edge = rank < half ? edge_a : edge_b;
    edge.submit(static_cast<int>(rank), wire[rank], nullptr, 1.0f);
  }
  std::unique_ptr<fl::StreamingAggregator> root = edge_a.collect();
  std::unique_ptr<fl::StreamingAggregator> other = edge_b.collect();
  root->merge(std::move(*other));
  const nn::ModelState state = root->finish();

  FoldRun run;
  run.shards = 2 * edge_shards;
  run.seconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  run.decode_seconds = edge_a.decode_seconds() + edge_b.decode_seconds();
  run.fold_seconds = edge_a.fold_seconds() + edge_b.fold_seconds();
  run.hash = fnv1a(state.values());
  return run;
}

int run(const HierarchyOptions& options) {
  // Deterministic synthetic updates, serialized once through the f16 wire
  // codec so every fold pays a realistic decode.
  rng::Generator gen(0x5AD5);
  std::vector<comm::Payload> wire;
  wire.reserve(static_cast<std::size_t>(options.updates));
  for (int k = 0; k < options.updates; ++k) {
    fl::ClientUpdate update;
    std::vector<float> values(static_cast<std::size_t>(options.dim));
    for (float& v : values) v = static_cast<float>(gen.normal());
    update.state = nn::ModelState(std::move(values));
    update.weight = static_cast<float>(1 + k % 7);
    update.scalars["divergence"] = static_cast<float>(gen.uniform());
    wire.emplace_back(fl::serialize_update(update, comm::Codec::kF16));
  }

  BenchAlgo algo;
  std::vector<FoldRun> runs;
  for (const int shards : {1, 2, 4, 8}) {
    if (shards > options.updates) continue;
    runs.push_back(run_sharded(algo, wire, shards));
  }
  const FoldRun two_level = run_two_level(algo, wire);
  const std::uint64_t flat_hash = runs.front().hash;

  const double updates = static_cast<double>(options.updates);
  bool hash_ok = true;
  for (const FoldRun& run : runs) {
    const bool match = run.hash == flat_hash;
    hash_ok = hash_ok && match;
    std::printf(
        "[hierarchy] shards %d  %7.3fs  %8.1f upd/s  decode %6.3fs  "
        "fold %6.3fs  hash %016llx %s\n",
        run.shards, run.seconds, updates / run.seconds, run.decode_seconds,
        run.fold_seconds, static_cast<unsigned long long>(run.hash),
        match ? "OK" : "MISMATCH");
  }
  const bool two_level_match = two_level.hash == flat_hash;
  hash_ok = hash_ok && two_level_match;
  std::printf(
      "[hierarchy] two-level (2 edges x 4 shards)  %7.3fs  hash %016llx %s\n",
      two_level.seconds, static_cast<unsigned long long>(two_level.hash),
      two_level_match ? "OK" : "MISMATCH");

  const std::size_t hardware = common::ThreadPool::default_parallelism();
  std::printf("[hierarchy] hardware threads: %zu\n", hardware);

  std::ofstream out(options.out);
  out << "{\n  \"generated_by\": \"bench_hierarchy\",\n"
      << "  \"dim\": " << options.dim << ",\n"
      << "  \"updates\": " << options.updates << ",\n"
      << "  \"hardware_threads\": " << hardware << ",\n"
      << "  \"flat_hash\": \"" << std::hex << flat_hash << std::dec << "\",\n"
      << "  \"all_hashes_match\": " << (hash_ok ? "true" : "false") << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const FoldRun& run = runs[i];
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"shards\": %d, \"seconds\": %.4f, "
                  "\"updates_per_sec\": %.1f, \"decode_seconds\": %.4f, "
                  "\"fold_seconds\": %.4f, \"hash\": \"%016llx\"},\n",
                  run.shards, run.seconds, updates / run.seconds,
                  run.decode_seconds, run.fold_seconds,
                  static_cast<unsigned long long>(run.hash));
    out << buffer;
  }
  {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"topology\": \"two-level\", \"edges\": 2, "
                  "\"shards_per_edge\": 4, \"seconds\": %.4f, "
                  "\"hash\": \"%016llx\"}\n",
                  two_level.seconds,
                  static_cast<unsigned long long>(two_level.hash));
    out << buffer;
  }
  out << "  ]\n}\n";
  std::printf("[hierarchy] wrote %s\n", options.out.c_str());

  if (!hash_ok) {
    std::fprintf(stderr,
                 "[hierarchy] FAIL: sharded fold is not bit-identical to the "
                 "flat fold\n");
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace calibre::bench

int main(int argc, char** argv) {
  using calibre::bench::HierarchyOptions;
  HierarchyOptions options;
  const calibre::flags::Parser args(argc, argv);
  if (!calibre::bench::read_flags(args, [&] {
        if (args.has("smoke")) {
          // CI-sized: still exercises every shard count and the two-level
          // merge, in a couple of seconds.
          options.dim = 1 << 13;
          options.updates = 16;
        }
        options.dim = args.get_int("dim", options.dim);
        options.updates = args.get_int("updates", options.updates);
        options.out = args.get("out", options.out);
      })) {
    return 1;
  }
  if (options.dim <= 0 || options.updates < 8) {
    std::fprintf(stderr, "need --dim > 0 and --updates >= 8\n");
    return 1;
  }
  return calibre::bench::run(options);
}
