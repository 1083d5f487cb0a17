#include "comm/router.h"

#include <cmath>

#include "common/check.h"

namespace calibre::comm {
namespace {

// SplitMix64-style mix of the fault seed with per-dispatch coordinates;
// independent of rng::Generator so fault draws never perturb experiment
// streams.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c) {
  std::uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                    (b * 0xbf58476d1ce4e5b9ULL) ^ (c * 0x94d049bb133111ebULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// Diurnal availability: a pure function of (seed, receiver, round). Each
// receiver gets a stable phase inside the period, so the population's
// offline windows are staggered; within a round the answer never changes
// (retries against an offline device keep failing until the schedule
// flips).
bool endpoint_available(const FaultConfig& fault, int receiver, int round) {
  if (fault.period_rounds <= 0 || fault.duty_cycle >= 1.0f) return true;
  const auto period = static_cast<std::uint64_t>(fault.period_rounds);
  const std::uint64_t phase =
      mix(fault.seed, static_cast<std::uint64_t>(receiver), 0x0FF1CE, 0) %
      period;
  const std::uint64_t pos =
      (static_cast<std::uint64_t>(round) + phase) % period;
  // ceil: a positive duty cycle always yields at least one on-round, so a
  // device class can be flaky without being permanently unreachable.
  const auto on_rounds = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(fault.duty_cycle) *
                static_cast<double>(period)));
  return pos < on_rounds;
}

void validate_fault_config(const FaultConfig& config) {
  CALIBRE_CHECK_MSG(config.failure_rate >= 0.0f && config.failure_rate <= 1.0f,
                    "failure_rate must be in [0, 1], got "
                        << config.failure_rate);
  CALIBRE_CHECK_MSG(config.latency_ms >= 0, "latency_ms must be >= 0");
  CALIBRE_CHECK_MSG(config.duty_cycle > 0.0f && config.duty_cycle <= 1.0f,
                    "duty_cycle must be in (0, 1], got " << config.duty_cycle);
  CALIBRE_CHECK_MSG(config.duty_cycle >= 1.0f || config.period_rounds > 0,
                    "duty_cycle < 1 needs period_rounds > 0");
}

}  // namespace

Router::Router(std::size_t num_threads, Handler handler)
    : handler_(std::move(handler)), pool_(num_threads) {
  CALIBRE_CHECK_MSG(handler_ != nullptr, "router needs a device handler");
}

void Router::set_fault_profiles(std::vector<FaultConfig> profiles) {
  CALIBRE_CHECK_MSG(!profiles.empty(), "need at least one fault profile");
  for (const FaultConfig& profile : profiles) validate_fault_config(profile);
  fault_profiles_ = std::move(profiles);
}

int injected_delay_ms(const FaultConfig& fault, int receiver, int round,
                      std::uint64_t attempt) {
  if (fault.latency_ms <= 0) return 0;
  return static_cast<int>(mix(fault.seed, static_cast<std::uint64_t>(receiver),
                              static_cast<std::uint64_t>(round),
                              attempt * 2 + 1) %
                          static_cast<std::uint64_t>(fault.latency_ms + 1));
}

Router::Roll Router::roll(int client, int round) {
  const FaultConfig& fault =
      fault_profiles_[static_cast<std::size_t>(client) %
                      fault_profiles_.size()];
  if (fault.failure_rate <= 0.0f && fault.latency_ms <= 0 &&
      fault.duty_cycle >= 1.0f) {
    return {};
  }
  std::uint64_t attempt = 0;
  {
    std::lock_guard<std::mutex> lock(attempts_mutex_);
    attempt = attempts_[client]++;
  }
  Roll out;
  out.delay_ms = injected_delay_ms(fault, client, round, attempt);
  if (!endpoint_available(fault, client, round)) {
    out.failure = kOfflineErrorText;
  } else if (fault.failure_rate > 0.0f &&
             unit_double(mix(fault.seed, static_cast<std::uint64_t>(client),
                             static_cast<std::uint64_t>(round),
                             attempt * 2)) <
                 static_cast<double>(fault.failure_rate)) {
    out.failure = "injected handler fault";
  }
  return out;
}

void Router::count(std::uint64_t payload_bytes, bool fresh, bool to_server,
                   TrafficStats& share) {
  // Physical cost: the header always travels; the payload buffer only the
  // first time any message carries it.
  TrafficStats message;
  message.messages = 1;
  message.logical_bytes = kHeaderBytes + payload_bytes;
  message.physical_bytes = kHeaderBytes + (fresh ? payload_bytes : 0);
  (to_server ? message.collected_bytes : message.broadcast_bytes) =
      message.logical_bytes;
  (to_server ? message.collect_serializations
             : message.broadcast_serializations) = fresh ? 1 : 0;
  share += message;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  totals_ += message;
}

std::future<Outcome> Router::dispatch(int client, int round, Payload request,
                                      int max_retries) {
  CALIBRE_CHECK_MSG(client >= 0, "client endpoint must be >= 0, got "
                                     << client);
  CALIBRE_CHECK_MSG(max_retries >= 0, "max_retries must be >= 0");
  Outcome first;
  count(request.size(), request.mark_transmitted(), false, first.traffic);
  // Each attempt rolls its dice where it runs: the attempt counters stay
  // deterministic because the caller never overlaps two dispatches to one
  // endpoint. A throwing handler (or an injected fault) never strands the
  // caller: every dispatch resolves its future with exactly one outcome.
  return pool_.submit([this, client, round, max_retries,
                       request = std::move(request),
                       outcome = std::move(first)]() mutable {
    for (;;) {
      const Roll attempt = roll(client, round);
      outcome.delays_ms.push_back(attempt.delay_ms);
      if (attempt.failure != nullptr) {
        outcome.error = attempt.failure;
      } else {
        try {
          outcome.reply = handler_(client, round, request);
          outcome.ok = true;
        } catch (const std::exception& error) {
          outcome.error = error.what();
        } catch (...) {
          outcome.error = "unknown error";
        }
      }
      if (outcome.ok) {
        count(outcome.reply.size(), outcome.reply.mark_transmitted(), true,
              outcome.traffic);
        return std::move(outcome);
      }
      // The error reply carries its text as a serde string (u32 length +
      // bytes), a buffer of its own.
      count(sizeof(std::uint32_t) + outcome.error.size(), true, true,
            outcome.traffic);
      if (static_cast<int>(outcome.delays_ms.size()) > max_retries) {
        return std::move(outcome);
      }
      // The retry re-sends the same buffer.
      count(request.size(), request.mark_transmitted(), false,
            outcome.traffic);
    }
  });
}

TrafficStats& TrafficStats::operator+=(const TrafficStats& other) {
  messages += other.messages;
  logical_bytes += other.logical_bytes;
  physical_bytes += other.physical_bytes;
  broadcast_bytes += other.broadcast_bytes;
  collected_bytes += other.collected_bytes;
  broadcast_serializations += other.broadcast_serializations;
  collect_serializations += other.collect_serializations;
  return *this;
}

TrafficStats Router::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return totals_;
}

}  // namespace calibre::comm
