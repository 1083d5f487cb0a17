// In-process dispatch router: the "network" of the federated simulation.
//
// One device handler serves every client endpoint. Each dispatch runs on a
// shared thread pool (each client is an independent device) and returns a
// future of its Outcome, which resolves exactly once: the handler's reply,
// or the error text of its last failed attempt. Traffic counters expose the
// communication cost of an experiment.
//
// Fault tolerance: a handler that throws never vanishes silently — the
// dispatch catches the exception and resolves as a failure carrying its
// text. A failed attempt is retried inside the same dispatch, up to the
// caller's retry budget, so a retry never depends on when the caller looks
// at the failure. An optional fault injector (seeded, deterministic)
// simulates flaky devices by failing a configurable fraction of attempts,
// drawing a per-attempt latency, and taking endpoints offline on a diurnal
// schedule; heterogeneous device classes map each endpoint to its own fault
// profile. Latency is virtual: every attempt runs at once, the outcome
// lists each attempt's drawn delay, and the caller places the outcome on
// its own simulated clock (fl/runner.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/payload.h"
#include "common/thread_pool.h"

namespace calibre::comm {

// Wire header of every message: a one-byte type tag plus the sender,
// receiver and round fields (four bytes each). Counted in the traffic
// totals on top of each payload.
inline constexpr std::size_t kHeaderBytes = 1 + 3 * sizeof(std::int32_t);

struct TrafficStats {
  std::uint64_t messages = 0;
  // Logical traffic: every message counted at full wire size — exactly what
  // would cross a real network, shared payloads included once per send.
  std::uint64_t logical_bytes = 0;
  // Physical traffic: headers per message, but each unique payload buffer
  // counted once, no matter how many messages share it. The gap between
  // logical and physical bytes is the zero-copy broadcast's dedup saving.
  std::uint64_t physical_bytes = 0;
  // Logical bytes split by direction.
  std::uint64_t broadcast_bytes = 0;  // server -> clients
  std::uint64_t collected_bytes = 0;  // clients -> server
  // Unique payload buffers that crossed the router, by direction. With the
  // shared broadcast snapshot, broadcast_serializations is 1 per round
  // regardless of how many clients (or retries) the round sends to.
  std::uint64_t broadcast_serializations = 0;
  std::uint64_t collect_serializations = 0;

  TrafficStats& operator+=(const TrafficStats& other);
};

// Deterministic fault injection applied to every dispatch attempt.
// Decisions are a pure function of (seed, receiver, round, attempt), where
// attempt counts attempts at that endpoint — so a run is reproducible
// bit-for-bit from its seed as long as dispatches to one endpoint do not
// overlap, and a retry of a failed client re-rolls the dice instead of
// failing forever. (The availability schedule below ignores `attempt` on
// purpose: an offline device stays offline for the whole round, so retries
// against it keep failing until the schedule flips.)
struct FaultConfig {
  float failure_rate = 0.0f;  // P(attempt fails before the handler runs)
  int latency_ms = 0;         // per-attempt virtual delay in [0, latency_ms]
  std::uint64_t seed = 0;     // fault stream seed
  // Diurnal availability: with duty_cycle < 1 and period_rounds > 0 the
  // endpoint is offline for the tail of every period_rounds-round cycle,
  // with a per-receiver phase (derived from the seed) so churn is staggered
  // across the population. An attempt at an offline endpoint fails before
  // the handler runs, with error text kOfflineErrorText. duty_cycle >= 1 or
  // period_rounds <= 0 disables the schedule.
  float duty_cycle = 1.0f;
  int period_rounds = 0;
};

// The injected delay (virtual ms) of the `attempt`-th attempt at `receiver`
// in `round`: uniform in [0, fault.latency_ms], a pure function of its
// arguments. Every attempt's delay is drawn through it.
int injected_delay_ms(const FaultConfig& fault, int receiver, int round,
                      std::uint64_t attempt);

// Error text carried by an availability-schedule failure, distinguishable
// from a random injected fault ("injected handler fault").
inline constexpr const char* kOfflineErrorText = "injected offline";

// How one dispatch ended.
struct Outcome {
  bool ok = false;
  Payload reply;      // the successful attempt's reply (ok)
  std::string error;  // the last attempt's error text (!ok)
  // Each attempt's injected delay (virtual ms), oldest first. Every attempt
  // but the last failed, and each one starts when the previous one's
  // failure arrives.
  std::vector<int> delays_ms;
  // This dispatch's share of the router's traffic counters: its requests
  // (retries included) and its replies (failures included).
  TrafficStats traffic;
};

class Router {
 public:
  // Runs one client's update: `request` for `client` in `round`, returning
  // the reply. Runs on the pool; may throw.
  using Handler =
      std::function<Payload(int client, int round, const Payload& request)>;

  Router(std::size_t num_threads, Handler handler);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Enables fault injection for subsequent dispatches: endpoint `e` uses
  // profiles[e % profiles.size()], so one profile is a uniform fault model
  // and several are device classes. Must not be called concurrently with
  // dispatch().
  void set_fault_profiles(std::vector<FaultConfig> profiles);

  // Sends `request` to `client` and runs the handler on the pool, retrying
  // a failed attempt (thrown handler or injected fault) up to `max_retries`
  // times. The future resolves once, with the reply or the last error.
  // The first request is counted on the calling thread, so which dispatch
  // first transmits a shared buffer follows the caller's order.
  std::future<Outcome> dispatch(int client, int round, Payload request,
                                int max_retries = 0);

  TrafficStats stats() const;

 private:
  // The next attempt at `client`'s fault dice: its injected delay, and the
  // error text of an injected failure (null when the handler runs).
  struct Roll {
    int delay_ms = 0;
    const char* failure = nullptr;
  };
  Roll roll(int client, int round);

  // Counts one message of `payload_bytes` (`fresh`: its buffer's first
  // transmission) into `share` and the router's totals.
  void count(std::uint64_t payload_bytes, bool fresh, bool to_server,
             TrafficStats& share);

  const Handler handler_;
  std::vector<FaultConfig> fault_profiles_{FaultConfig{}};  // no faults
  std::mutex attempts_mutex_;
  std::unordered_map<int, std::uint64_t> attempts_;  // attempts per endpoint
  mutable std::mutex stats_mutex_;
  TrafficStats totals_;
  // Destroyed before the rest of the router: ~ThreadPool drains straggler
  // dispatches (which touch the handler and the counters) first.
  common::ThreadPool pool_;
};

}  // namespace calibre::comm
