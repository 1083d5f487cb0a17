#include "timed.h"

#include <time.h>

#include <chrono>

#include "common/check.h"
#include "tensor/pool.h"

namespace calibre::bench {
namespace {

// Runs `body`, then records its wall time and the calling thread's CPU time
// into `log` when there is one. A call that throws is not recorded; the
// exception ends the federation anyway.
template <typename Body>
void timed(CallLog* log, Call call, Body&& body) {
  if (log == nullptr) {
    body();
    return;
  }
  const SteadyClock::time_point wall_start = SteadyClock::now();
  const double cpu_start = thread_cpu_seconds();
  body();
  CallTime time;
  time.cpu_s = thread_cpu_seconds() - cpu_start;
  time.wall_s =
      std::chrono::duration<double>(SteadyClock::now() - wall_start).count();
  log->record(call, time);
}

}  // namespace

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void CallLog::record(Call call, CallTime time) {
  std::lock_guard<std::mutex> lock(mu_);
  times_[static_cast<std::size_t>(call)].push_back(time);
}

void CallLog::add_pool_delta(std::uint64_t hits, std::uint64_t misses) {
  std::lock_guard<std::mutex> lock(mu_);
  pool_hits_ += hits;
  pool_misses_ += misses;
}

std::vector<CallTime> CallLog::times(Call call) const {
  std::lock_guard<std::mutex> lock(mu_);
  return times_[static_cast<std::size_t>(call)];
}

std::uint64_t CallLog::pool_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_hits_;
}

std::uint64_t CallLog::pool_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_misses_;
}

TimedAggregator::TimedAggregator(
    std::unique_ptr<fl::StreamingAggregator> inner, CallLog& log)
    : inner_(std::move(inner)), log_(log) {
  CALIBRE_CHECK(inner_ != nullptr);
}

void TimedAggregator::fold(fl::ClientUpdate update) {
  timed(&log_, Call::kFold, [&] { inner_->fold(std::move(update)); });
  folded_ = inner_->folded();
}

nn::ModelState TimedAggregator::finish() {
  nn::ModelState state;
  timed(&log_, Call::kFinish, [&] { state = inner_->finish(); });
  return state;
}

void TimedAggregator::merge(fl::StreamingAggregator&& other) {
  auto* rhs = dynamic_cast<TimedAggregator*>(&other);
  CALIBRE_CHECK_MSG(rhs != nullptr && rhs != this,
                    "merge() needs a distinct TimedAggregator");
  timed(&log_, Call::kMerge, [&] { inner_->merge(std::move(*rhs->inner_)); });
  folded_ = inner_->folded();
  rhs->folded_ = rhs->inner_->folded();
}

TimedAlgorithm::TimedAlgorithm(fl::Algorithm& inner, CallLog* log)
    : fl::Algorithm(inner.config()), inner_(inner), log_(log) {}

nn::ModelState TimedAlgorithm::initialize() {
  nn::ModelState state;
  timed(log_, Call::kInitialize, [&] { state = inner_.initialize(); });
  return state;
}

fl::ClientUpdate TimedAlgorithm::local_update(const nn::ModelState& global,
                                              const fl::ClientContext& ctx) {
  if (log_ == nullptr) return inner_.local_update(global, ctx);
  const tensor::pool::Stats before = tensor::pool::thread_stats();
  fl::ClientUpdate update;
  timed(log_, Call::kLocalUpdate,
        [&] { update = inner_.local_update(global, ctx); });
  const tensor::pool::Stats after = tensor::pool::thread_stats();
  log_->add_pool_delta(after.hits - before.hits, after.misses - before.misses);
  return update;
}

std::unique_ptr<fl::StreamingAggregator> TimedAlgorithm::make_aggregator(
    const nn::ModelState& global, int round) {
  std::unique_ptr<fl::StreamingAggregator> inner =
      inner_.make_aggregator(global, round);
  if (log_ == nullptr) return inner;
  return std::make_unique<TimedAggregator>(std::move(inner), *log_);
}

double TimedAlgorithm::personalize(const nn::ModelState& global,
                                   const fl::PersonalizationContext& ctx) {
  std::call_once(stage_once_,
                 [this] { personalize_start_ = SteadyClock::now(); });
  double accuracy = 0.0;
  timed(log_, Call::kPersonalize,
        [&] { accuracy = inner_.personalize(global, ctx); });
  return accuracy;
}

}  // namespace calibre::bench
