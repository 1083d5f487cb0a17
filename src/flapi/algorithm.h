// The pluggable FL algorithm interface.
//
// The Runner drives: initialize() -> rounds of {local_update on sampled
// clients, fold each update into make_aggregator()'s StreamingAggregator}
// -> personalize() on every client (participating and novel). All model
// movement between runner and algorithm is by value (ModelState), matching
// the serialization boundary of the comm layer.
//
// Thread safety: local_update and personalize are called concurrently for
// *distinct* clients; implementations guard any cross-client shared state
// (e.g. persistent per-client heads) with their own mutex.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "flapi/config.h"
#include "flapi/fixed_accum.h"
#include "nn/state.h"

namespace calibre::fl {

// What a client sends back after a local update.
struct ClientUpdate {
  nn::ModelState state;
  // Aggregation weight before normalisation (usually the sample count).
  float weight = 1.0f;
  // Algorithm-specific side channel (divergence rates, control-variate
  // norms, ...), serialized with the update.
  std::map<std::string, float> scalars;
};

// Wire helpers for ClientUpdate (used by the comm layer and tests).
//
// kF32 (the default) writes the legacy layout — f32 vector | weight |
// scalar map — bitwise identical to pre-codec builds. The other codecs
// prefix a codec magic and encode the state through comm/codec.h; `base` is
// the delta16/topk16 reference (the round's broadcast snapshot as decoded by
// the client), ignored by the other codecs, and `topk` is the kTopK16
// coordinate budget (see comm::encode_values). deserialize_update accepts
// both layouts by peeking the leading u32: a legacy payload starts with the
// low half of a u64 element count, which would have to exceed 3.3e9 elements
// to collide with the magic — far past what the count validation admits.
// `residual` (optional, update.state.size() floats, may alias the state's
// storage) receives state - decode(payload state), as comm::encode_values
// documents; the error-feedback encoder (fl/update_codec.h) passes its
// carried state here to turn it into the next residual in place.
std::vector<std::uint8_t> serialize_update(
    const ClientUpdate& update, comm::Codec codec = comm::Codec::kF32,
    const nn::ModelState* base = nullptr, std::size_t topk = 0,
    float* residual = nullptr);
ClientUpdate deserialize_update(const std::vector<std::uint8_t>& bytes,
                                const nn::ModelState* base = nullptr);

// The concrete codec a serialized update was encoded with (kF32 for the
// legacy layout). Cheap — reads at most the magic + tag, no decoding — so
// the fold path can attribute wire bytes per codec without touching the
// payload.
comm::Codec peek_update_codec(const std::vector<std::uint8_t>& bytes);

// Bytes the same update would occupy in the legacy f32 layout. The
// denominator of the compression ratios in RoundStats and the traffic
// report.
std::size_t update_wire_size_f32(const ClientUpdate& update);

// Everything a client device knows during one local update.
struct ClientContext {
  int client_id = 0;
  int round = 0;
  const data::Dataset* train = nullptr;     // labeled local shard
  const tensor::Tensor* ssl_pool = nullptr; // local SSL pool (labeled +
                                            // unlabeled share): class latents
                                            // when `oracle` is set, raw
                                            // inputs otherwise
  const data::ViewOracle* oracle = nullptr; // view generator (may be null)
  std::uint64_t seed = 0;                   // per-(client, round) stream
};

// One call of the personalization stage over many clients (built by
// personalize_clients): every evaluated client's rows as views into the
// shared base splits, in sweep order. Lets an algorithm share work between
// clients that read the same rows; an algorithm that does not is free to
// ignore it. Every position is personalized exactly once, and every call
// that carries the sweep passes the same global state.
struct PersonalizationSweep {
  std::uint64_t id = 0;  // unique within the process (next_sweep_id())
  const data::Dataset* train = nullptr;  // base splits the row spans index
  const data::Dataset* test = nullptr;
  // Per position: the client's id and its rows of `train` and `test`.
  std::vector<int> client_ids;
  std::vector<std::span<const int>> train_rows;
  std::vector<std::span<const int>> test_rows;

  std::size_t size() const { return client_ids.size(); }
};

// A fresh, never-zero sweep id.
std::uint64_t next_sweep_id();

// Everything a client knows during personalization/evaluation.
struct PersonalizationContext {
  int client_id = 0;
  const data::Dataset* train = nullptr;
  const data::Dataset* test = nullptr;
  std::uint64_t seed = 0;
  // The sweep this call belongs to and the client's position in it; null
  // for a call on its own. `train`/`test` hold the position's rows either
  // way.
  const PersonalizationSweep* sweep = nullptr;
  int sweep_position = 0;
};

// --- streaming aggregation ---------------------------------------------------
//
// The runner folds client updates into the next global state as they arrive
// (in dispatch order, enforced by its reorder buffer) instead of buffering
// all K of them and calling a batch aggregate. Every algorithm supplies a
// native streaming fold through make_aggregator(), so server memory stays
// O(model) regardless of how many clients participate. The batch
// aggregate() folds through make_aggregator() too, so the two agree bit for
// bit.
//
// Hierarchical folds: a mergeable aggregator additionally supports
// merge(), which combines a partial fold (over a DISJOINT subset of the
// round's updates) into this one as if its updates had been folded here.
// The native folds implement merge exactly — their accumulators are
// fixed-point integers (flapi/fixed_accum.h), so integer associativity
// makes every fold schedule (flat, N partials, multi-level edge-aggregator
// trees) bit-identical by construction.
class StreamingAggregator {
 public:
  virtual ~StreamingAggregator() = default;

  StreamingAggregator(const StreamingAggregator&) = delete;
  StreamingAggregator& operator=(const StreamingAggregator&) = delete;

  // Folds the next update. The caller guarantees rank order over the
  // updates that arrive (absent ranks are simply skipped).
  virtual void fold(ClientUpdate update) = 0;

  // Produces the next global state from everything folded so far. Called at
  // most once, after at least one fold().
  virtual nn::ModelState finish() = 0;

  // Combines `other` — a shard-local partial fold over a disjoint update
  // subset, created by make_aggregator() with the same (global, round) —
  // into this aggregator. Only legal before finish(); `other` is consumed
  // (left empty, never finished). An empty `other` is the merge identity,
  // and merging into an empty aggregator adopts `other`'s state. The
  // default CHECK-fails: a fold whose partial state does not compose (e.g.
  // one that buffers updates in rank order) cannot be split across shards,
  // so only mergeable() folds implement this.
  virtual void merge(StreamingAggregator&& other);

  // True when merge() is implemented. ShardedFolder CHECKs it before
  // splitting a window's folds across more than one partial (agg_shards).
  virtual bool mergeable() const { return false; }

  // Decoded updates held inside the aggregator: 0 for native streaming
  // folds. The runner CHECKs this against its decoded-update bound when
  // bounded_memory() is true.
  virtual std::size_t buffered_updates() const { return 0; }

  // True when memory stays O(model) for any participant count.
  virtual bool bounded_memory() const { return true; }

  int folded() const { return folded_; }

 protected:
  StreamingAggregator() = default;
  int folded_ = 0;
};

// Native streaming fold for the weighted-average family:
//   acc[j] += quantize(w_i * x_i[j])   (exact fixed-point, O(model))
//   finish: out[j] = float(acc[j] / sum_i quantize(w_i))
// `weight_of` maps an update to its unnormalised aggregation weight (> 0);
// the default reads ClientUpdate::weight. Normalisation happens once at
// finish(), which is what makes a weighted mean foldable without knowing
// the participant set (or total weight) up front. The accumulator is a
// fixed-point integer sum (flapi/fixed_accum.h), so merge() — shard partials
// added element-wise — is exactly associative and commutative: sharded and
// flat folds are bit-identical for any shard count.
class WeightedStreamingAggregator : public StreamingAggregator {
 public:
  using WeightFn = std::function<double(const ClientUpdate&)>;
  explicit WeightedStreamingAggregator(WeightFn weight_of = nullptr);

  void fold(ClientUpdate update) override;
  nn::ModelState finish() override;
  void merge(StreamingAggregator&& other) override;
  bool mergeable() const override { return true; }

 private:
  WeightFn weight_of_;
  fixedpoint::Accumulator acc_;
  fixedpoint::Acc total_weight_ = 0;
};

class Algorithm {
 public:
  explicit Algorithm(const FlConfig& config) : config_(config) {}
  virtual ~Algorithm() = default;

  Algorithm(const Algorithm&) = delete;
  Algorithm& operator=(const Algorithm&) = delete;

  virtual std::string name() const = 0;

  // Initial global state broadcast in round 0.
  virtual nn::ModelState initialize() = 0;

  // One local update starting from `global`; returns the client's update.
  virtual ClientUpdate local_update(const nn::ModelState& global,
                                    const ClientContext& ctx) = 0;

  // Combines a non-empty batch of updates into the next global state by
  // folding them, in order, through make_aggregator(global, round). The
  // batch entry point for tests and tools; the runner streams instead.
  virtual nn::ModelState aggregate(const nn::ModelState& global,
                                   const std::vector<ClientUpdate>& updates,
                                   int round);

  // Streaming aggregation entry point used by the round engine: a fresh
  // O(model) fold for the window that starts from `global`. Default: the
  // weighted mean by ClientUpdate::weight (WeightedStreamingAggregator).
  virtual std::unique_ptr<StreamingAggregator> make_aggregator(
      const nn::ModelState& global, int round);

  // Personalization + evaluation for one client; returns test accuracy.
  virtual double personalize(const nn::ModelState& global,
                             const PersonalizationContext& ctx) = 0;

  const FlConfig& config() const { return config_; }

 protected:
  FlConfig config_;
};

}  // namespace calibre::fl
