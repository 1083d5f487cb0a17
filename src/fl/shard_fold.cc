#include "fl/shard_fold.h"

#include <chrono>
#include <utility>

#include "common/check.h"

namespace calibre::fl {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

ShardedFolder::ShardedFolder(Algorithm& algorithm, const nn::ModelState& global,
                             int round, int shards) {
  CALIBRE_CHECK_GE(shards, 1, "shard count");
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(algorithm.make_aggregator(global, round));
    CALIBRE_CHECK_MSG(shards == 1 || shards_.back()->mergeable(),
                      "sharded fold needs a mergeable aggregator; run this "
                      "algorithm with agg_shards = 1");
  }
}

void ShardedFolder::submit(int rank, const comm::Payload& payload,
                           const nn::ModelState* base, float weight_scale) {
  CALIBRE_CHECK_MSG(!collected_, "submit() after collect()");
  CALIBRE_CHECK_GT(rank, last_rank_, "ranks must ascend");
  last_rank_ = rank;
  const std::vector<std::uint8_t>& bytes = payload.bytes();
  sums_.wire_bytes += bytes.size();
  const auto tag = static_cast<std::size_t>(peek_update_codec(bytes));
  if (tag < sums_.codec_counts.size()) ++sums_.codec_counts[tag];

  const Clock::time_point start = Clock::now();
  ClientUpdate update = deserialize_update(bytes, base);
  const Clock::time_point decoded = Clock::now();
  update.weight *= weight_scale;
  const auto it = update.scalars.find("divergence");
  if (it != update.scalars.end()) {
    sums_.divergence_total += it->second;
    ++sums_.divergence_count;
  }
  sums_.norm_total += static_cast<double>(update.state.norm());
  sums_.f32_bytes += update_wire_size_f32(update);
  StreamingAggregator& shard =
      *shards_[static_cast<std::size_t>(rank) % shards_.size()];
  shard.fold(std::move(update));
  // Streaming invariant: a bounded-memory aggregator never buffers decoded
  // updates.
  if (shard.bounded_memory()) {
    CALIBRE_CHECK_EQ(shard.buffered_updates(), std::size_t{0},
                     "bounded-memory aggregator buffered decoded updates");
  }
  decode_seconds_ += seconds_between(start, decoded);
  fold_seconds_ += seconds_between(decoded, Clock::now());
}

std::unique_ptr<StreamingAggregator> ShardedFolder::collect() {
  CALIBRE_CHECK_MSG(!collected_, "collect() called twice");
  collected_ = true;
  // Shards fold left into shard 0 in ascending order. The fixed-point
  // accumulators make any tree shape produce the same bits, so the simplest
  // shape wins; a two-level edge-aggregator tree is exercised in
  // bench_hierarchy.
  std::unique_ptr<StreamingAggregator> root = std::move(shards_[0]);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    root->merge(std::move(*shards_[s]));
  }
  return root;
}

}  // namespace calibre::fl
