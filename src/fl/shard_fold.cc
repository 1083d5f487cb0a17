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
                             int round, int shards, common::ThreadPool* pool,
                             std::size_t capacity)
    : pool_(pool),
      submitted_(capacity, 0),
      norms_(capacity, 0.0),
      divergences_(capacity, 0.0f),
      has_div_(capacity, 0),
      wire_bytes_(capacity, 0),
      codec_tags_(capacity, 0),
      f32_bytes_(capacity, 0) {
  CALIBRE_CHECK_GE(shards, 1, "shard count");
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->agg = algorithm.make_aggregator(global, round);
    CALIBRE_CHECK_MSG(shards == 1 || shard->agg->mergeable(),
                      "sharded fold needs a mergeable aggregator; run this "
                      "algorithm with --agg-shards 1");
    shards_.push_back(std::move(shard));
  }
}

ShardedFolder::~ShardedFolder() {
  // An abandoned folder (a run that threw mid-window) may still have
  // workers touching this object; wait them out before the members die.
  std::unique_lock<std::mutex> lock(idle_mu_);
  idle_cv_.wait(lock, [&] { return active_shards_ == 0; });
}

void ShardedFolder::fold_item(Shard& shard, Item item) {
  const Clock::time_point start = Clock::now();
  ClientUpdate update =
      deserialize_update(item.payload.bytes(), item.base.get());
  const Clock::time_point decoded = Clock::now();
  update.weight *= item.weight_scale;
  const std::size_t rank = static_cast<std::size_t>(item.rank);
  const auto it = update.scalars.find("divergence");
  if (it != update.scalars.end()) {
    divergences_[rank] = it->second;
    has_div_[rank] = 1;
  }
  norms_[rank] = static_cast<double>(update.state.norm());
  f32_bytes_[rank] = update_wire_size_f32(update);
  shard.agg->fold(std::move(update));
  // Streaming invariant (same CHECK the flat path makes): a bounded-memory
  // aggregator never buffers decoded updates.
  if (shard.agg->bounded_memory()) {
    CALIBRE_CHECK_EQ(shard.agg->buffered_updates(), std::size_t{0},
                     "bounded-memory aggregator buffered decoded updates");
  }
  shard.decode_seconds += seconds_between(start, decoded);
  shard.fold_seconds += seconds_between(decoded, Clock::now());
}

void ShardedFolder::drain(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    Item item;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.queue.empty()) {
        shard.running = false;
        break;
      }
      item = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    // Unlocked: the strand invariant (at most one drain task per shard)
    // makes this task the aggregator's sole owner right now.
    fold_item(shard, std::move(item));
  }
  {
    // notify_all under the lock, deliberately: collect()/~ShardedFolder wake
    // the instant the count hits zero and may destroy this object — an
    // unlocked notify could still be touching the condvar at that point.
    std::lock_guard<std::mutex> lock(idle_mu_);
    --active_shards_;
    idle_cv_.notify_all();
  }
}

void ShardedFolder::submit(int rank, comm::Payload payload,
                           std::shared_ptr<const nn::ModelState> base,
                           float weight_scale) {
  CALIBRE_CHECK_MSG(!collected_, "submit() after collect()");
  CALIBRE_CHECK(rank >= 0 &&
                static_cast<std::size_t>(rank) < submitted_.size());
  CALIBRE_CHECK_EQ(submitted_[static_cast<std::size_t>(rank)], 0,
                   "rank submitted twice");
  submitted_[static_cast<std::size_t>(rank)] = 1;
  wire_bytes_[static_cast<std::size_t>(rank)] = payload.bytes().size();
  codec_tags_[static_cast<std::size_t>(rank)] =
      static_cast<std::uint8_t>(peek_update_codec(payload.bytes()));

  Item item;
  item.rank = rank;
  item.payload = std::move(payload);
  item.base = std::move(base);
  item.weight_scale = weight_scale;

  const std::size_t shard_index =
      static_cast<std::size_t>(rank) % shards_.size();
  Shard& shard = *shards_[shard_index];
  if (pool_ == nullptr) {
    // Inline mode: decode + fold on the caller thread, queue never used.
    fold_item(shard, std::move(item));
    return;
  }
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.queue.push_back(std::move(item));
    if (!shard.running) {
      shard.running = true;
      schedule = true;
    }
  }
  if (schedule) {
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      ++active_shards_;
    }
    pool_->submit([this, shard_index] { drain(shard_index); });
  }
}

std::unique_ptr<StreamingAggregator> ShardedFolder::collect() {
  CALIBRE_CHECK_MSG(!collected_, "collect() called twice");
  collected_ = true;
  {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [&] { return active_shards_ == 0; });
  }
  // Rank-ordered merge tree, degenerate form: shard partials fold left into
  // shard 0 in ascending shard order. The fixed-point accumulators make any
  // tree shape produce the same bits, so the simplest shape wins; a genuine
  // two-level edge-aggregator tree is exercised in bench_hierarchy.
  std::unique_ptr<StreamingAggregator> root = std::move(shards_[0]->agg);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    root->merge(std::move(*shards_[s]->agg));
  }
  return root;
}

double ShardedFolder::decode_seconds() const {
  double total = 0.0;
  for (const auto& shard : shards_) total += shard->decode_seconds;
  return total;
}

double ShardedFolder::fold_seconds() const {
  double total = 0.0;
  for (const auto& shard : shards_) total += shard->fold_seconds;
  return total;
}

}  // namespace calibre::fl
