// Sharded parallel fold trees for streaming aggregation.
//
// The runner's reorder buffer releases replies in selection-rank order, but
// decoding a reply (codec decompress + delta reconstruction) and folding it
// are the round's serial bottleneck: both ran on the server thread. A
// ShardedFolder splits that work across N shard aggregators: the server
// thread routes each released rank to shard (rank % N) — a cheap refcounted
// payload handoff — and shard workers decode + fold concurrently. At
// collect() the shard partials merge in ascending shard order into a single
// root aggregator, which the runner finish()es exactly as it finished the
// flat fold.
//
// Determinism: every native fold accumulates in exact fixed-point
// (flapi/fixed_accum.h), so the merged result is bit-identical to the flat
// single-threaded fold for ANY shard count and any schedule — the hash
// check in bench_hierarchy gates on exactly this. Per-rank stats (update
// norms, divergence scalars) are recorded into rank-indexed arrays and
// summed by the caller in rank order, so RoundStats match the flat path
// bit-for-bit too.
//
// Threading: classic strand pattern on the shared common::ThreadPool — each
// shard owns a FIFO queue drained by at most one in-flight pool task, so a
// shard's aggregator is only ever touched by one thread at a time, and
// ranks fold in submission (ascending-rank) order within their shard. With
// a null pool the folder degrades to inline decode+fold on the caller
// thread (same code path, zero threading), which is what the runner uses
// when sharding is off.
//
// Memory: at most `shards` decoded updates exist outside aggregators at any
// instant (one per active worker); queued items hold serialized payload
// handles only. The O(model)-per-shard accumulators are the only state that
// scales with the model.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/payload.h"
#include "common/thread_pool.h"
#include "flapi/algorithm.h"

namespace calibre::fl {

class ShardedFolder {
 public:
  // Creates `shards` shard aggregators via algorithm.make_aggregator(global,
  // round). `capacity` is the rank-index bound (sync: clients_per_round;
  // async: buffer size). `pool` runs the shard workers; nullptr folds inline
  // on the caller thread. shards > 1 requires a mergeable aggregator
  // (CHECKed).
  ShardedFolder(Algorithm& algorithm, const nn::ModelState& global, int round,
                int shards, common::ThreadPool* pool, std::size_t capacity);

  // Waits for in-flight shard work before tearing down (a window abandoned
  // by an exception lands here without collect()).
  ~ShardedFolder();

  ShardedFolder(const ShardedFolder&) = delete;
  ShardedFolder& operator=(const ShardedFolder&) = delete;

  // Hands one released reply to shard (rank % shards). Called from ONE
  // thread (the server loop) in ascending rank order; ranks are distinct and
  // < capacity. `base` is the delta-codec reference for this reply's
  // broadcast version (kept alive by the shared_ptr across the async
  // handoff; null for self-contained codecs); `weight_scale` multiplies the
  // decoded update's weight (async staleness discount; 1.0f in sync mode).
  void submit(int rank, comm::Payload payload,
              std::shared_ptr<const nn::ModelState> base, float weight_scale);

  // Waits until every shard queue drains, merges shard partials in
  // ascending shard order into shard 0's aggregator, and returns that root.
  // Called at most once; submit() is illegal afterwards. The caller owns
  // finish() — the folder never finishes an aggregator, merged or not.
  std::unique_ptr<StreamingAggregator> collect();

  // Per-rank fold records, valid after collect() (reads race with workers
  // before that). Indexed by submit() rank; entries for never-submitted
  // ranks are zero/false. Summing in ascending rank order reproduces the
  // flat path's stats accumulation order exactly.
  const std::vector<double>& norms() const { return norms_; }
  const std::vector<float>& divergences() const { return divergences_; }
  const std::vector<std::uint8_t>& has_divergence() const { return has_div_; }
  // Compression accounting per rank: encoded payload bytes and the codec
  // tag (recorded at submit(), before decode), plus the bytes the decoded
  // update would occupy in the legacy f32 layout (recorded by the fold
  // worker). Same validity rule as the stats above.
  const std::vector<std::uint64_t>& wire_bytes() const { return wire_bytes_; }
  const std::vector<std::uint8_t>& codec_tags() const { return codec_tags_; }
  const std::vector<std::uint64_t>& f32_bytes() const { return f32_bytes_; }

  // Wall-clock spent in deserialize_update / StreamingAggregator::fold
  // across all shards, valid after collect(). Under a parallel pool the
  // phases overlap, so these can exceed the elapsed collect time.
  double decode_seconds() const;
  double fold_seconds() const;

  int shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Item {
    int rank = 0;
    comm::Payload payload;
    std::shared_ptr<const nn::ModelState> base;
    float weight_scale = 1.0f;
  };
  // One strand: queue + aggregator + timers, all owned by whichever task
  // currently drains the queue (at most one, enforced by `running`).
  struct Shard {
    std::unique_ptr<StreamingAggregator> agg;
    std::deque<Item> queue;
    bool running = false;
    double decode_seconds = 0.0;
    double fold_seconds = 0.0;
    std::mutex mu;
  };

  void fold_item(Shard& shard, Item item);
  void drain(std::size_t shard_index);

  common::ThreadPool* pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::uint8_t> submitted_;
  std::vector<double> norms_;
  std::vector<float> divergences_;
  std::vector<std::uint8_t> has_div_;
  std::vector<std::uint64_t> wire_bytes_;
  std::vector<std::uint8_t> codec_tags_;
  std::vector<std::uint64_t> f32_bytes_;
  bool collected_ = false;

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  int active_shards_ = 0;  // shards with a drain task in flight
};

}  // namespace calibre::fl
