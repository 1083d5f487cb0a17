// Forwarding decorators that time an algorithm from outside the program.
//
// TimedAlgorithm wraps any fl::Algorithm and forwards every call unchanged;
// with a CallLog attached it also records the wall time and the calling
// thread's CPU time (CLOCK_THREAD_CPUTIME_ID) of each initialize,
// local_update and personalize call, plus the tensor-pool hit/miss deltas of
// each local_update on its device thread. Its make_aggregator wraps the
// inner aggregator in a TimedAggregator, which times fold, finish and merge
// the same way. Because both only forward, a decorated run computes the
// same bits as an undecorated one (bench_e2e --self-test checks this), so
// layer times come from the library as built, with nothing under src/
// changed.
//
// Without a CallLog the decorator records one thing: when the first
// personalize call starts, which is the boundary between the training and
// the personalization stage of fl::run_federated.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "flapi/algorithm.h"

namespace calibre::bench {

using SteadyClock = std::chrono::steady_clock;

// Seconds of CPU time the calling thread has used.
double thread_cpu_seconds();

enum class Call : std::size_t {
  kInitialize,
  kLocalUpdate,
  kFold,
  kFinish,
  kMerge,
  kPersonalize,
};
inline constexpr std::size_t kCallKinds = 6;

struct CallTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// Thread-safe store of call times; calls arrive from device threads, shard
// fold workers and the server thread at once.
class CallLog {
 public:
  void record(Call call, CallTime time);
  void add_pool_delta(std::uint64_t hits, std::uint64_t misses);

  std::vector<CallTime> times(Call call) const;
  std::uint64_t pool_hits() const;
  std::uint64_t pool_misses() const;

 private:
  mutable std::mutex mu_;
  std::array<std::vector<CallTime>, kCallKinds> times_;
  std::uint64_t pool_hits_ = 0;
  std::uint64_t pool_misses_ = 0;
};

class TimedAggregator final : public fl::StreamingAggregator {
 public:
  TimedAggregator(std::unique_ptr<fl::StreamingAggregator> inner,
                  CallLog& log);

  void fold(fl::ClientUpdate update) override;
  nn::ModelState finish() override;
  // `other` must be a TimedAggregator too (every aggregator of a run comes
  // from the same TimedAlgorithm); its inner aggregator merges into ours.
  void merge(fl::StreamingAggregator&& other) override;
  bool mergeable() const override { return inner_->mergeable(); }
  std::size_t buffered_updates() const override {
    return inner_->buffered_updates();
  }
  bool bounded_memory() const override { return inner_->bounded_memory(); }

 private:
  std::unique_ptr<fl::StreamingAggregator> inner_;
  CallLog& log_;
};

class TimedAlgorithm final : public fl::Algorithm {
 public:
  // `inner` must outlive this decorator; `log` may be null (stage boundary
  // only) and must otherwise outlive it too.
  TimedAlgorithm(fl::Algorithm& inner, CallLog* log);

  std::string name() const override { return inner_.name(); }
  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  nn::ModelState aggregate(const nn::ModelState& global,
                           const std::vector<fl::ClientUpdate>& updates,
                           int round) override {
    return inner_.aggregate(global, updates, round);
  }
  std::unique_ptr<fl::StreamingAggregator> make_aggregator(
      const nn::ModelState& global, int round) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

  // Start of the first personalize call, if one happened. Read it after
  // run_federated returned.
  std::optional<SteadyClock::time_point> personalize_start() const {
    return personalize_start_;
  }

 private:
  fl::Algorithm& inner_;
  CallLog* log_;
  std::once_flag stage_once_;
  std::optional<SteadyClock::time_point> personalize_start_;
};

}  // namespace calibre::bench
