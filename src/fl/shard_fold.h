// The streaming fold of one commit window, split into N mergeable shards.
//
// The runner's reorder buffer releases replies in selection-rank order. The
// server thread decodes each one (codec decompress + delta reconstruction)
// and folds it into shard (rank % N) as it is released. At collect() the
// shards' partial aggregators merge in ascending shard order into a single
// root aggregator, which the runner finish()es. N = 1 is the flat fold.
//
// Determinism: every native fold accumulates in exact fixed-point
// (flapi/fixed_accum.h), so the merged result is bit-identical to the flat
// fold for ANY shard count — the hash check in bench_hierarchy gates on
// exactly this. The window's update statistics are running sums added in
// submission (ascending-rank) order, so RoundStats match bit-for-bit too.
//
// Everything runs on the caller's thread: the fold is memory-bandwidth
// bound, so extra fold threads buy nothing (DESIGN.md §8.4). Memory: one
// decoded update exists outside the aggregators at a time; the O(model)
// partial accumulators are the only state that scales with the model.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/payload.h"
#include "flapi/algorithm.h"

namespace calibre::fl {

// Running sums over the updates folded in one window, in submission order.
struct FoldSums {
  double norm_total = 0.0;        // sum of decoded-update L2 norms
  double divergence_total = 0.0;  // sum of "divergence" scalars reported
  int divergence_count = 0;       // updates that reported one
  // Encoded payload bytes, the bytes the same updates occupy in the legacy
  // f32 layout, and folded updates per concrete codec tag (RoundStats
  // layout).
  std::uint64_t wire_bytes = 0;
  std::uint64_t f32_bytes = 0;
  std::array<std::uint32_t, 6> codec_counts{};
};

class ShardedFolder {
 public:
  // Creates `shards` partial aggregators via algorithm.make_aggregator(
  // global, round). shards > 1 requires a mergeable aggregator (CHECKed).
  ShardedFolder(Algorithm& algorithm, const nn::ModelState& global, int round,
                int shards);

  // Decodes one released reply and folds it into shard (rank % shards).
  // Ranks must ascend across calls. `base` is the delta-codec reference for
  // this reply's broadcast version (null for self-contained codecs);
  // `weight_scale` multiplies the decoded update's weight (async staleness
  // discount; 1.0f in sync mode).
  void submit(int rank, const comm::Payload& payload,
              const nn::ModelState* base, float weight_scale);

  // Merges the shards in ascending order into shard 0 and returns that
  // root. Called at most once; submit() is illegal afterwards. The caller
  // owns finish() — the folder never finishes an aggregator, merged or not.
  std::unique_ptr<StreamingAggregator> collect();

  const FoldSums& sums() const { return sums_; }

  // Wall-clock spent in deserialize_update / StreamingAggregator::fold.
  double decode_seconds() const { return decode_seconds_; }
  double fold_seconds() const { return fold_seconds_; }

 private:
  // One partial aggregator per shard. Named shard* so the streaming-fold
  // lint rule flags any finish() on one.
  std::vector<std::unique_ptr<StreamingAggregator>> shards_;
  FoldSums sums_;
  int last_rank_ = -1;
  bool collected_ = false;
  double decode_seconds_ = 0.0;
  double fold_seconds_ = 0.0;
};

}  // namespace calibre::fl
