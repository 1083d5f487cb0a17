// In-process message router: the "network" of the federated simulation.
//
// Client endpoints register handlers; messages addressed to them are executed
// on a shared thread pool (each client is an independent device). Messages
// addressed to the server land in the server mailbox, which the round loop
// drains synchronously. Traffic counters expose the communication cost of an
// experiment.
//
// Fault tolerance: a handler that throws never vanishes silently — the
// router catches the exception and replies to the server with a
// kTrainError message carrying the error text, so the round loop can
// account for the failure instead of blocking forever. An optional fault
// injector (seeded, deterministic) simulates flaky devices by failing a
// configurable fraction of dispatches, drawing a per-dispatch latency, and
// taking endpoints offline on a diurnal schedule; heterogeneous device
// classes map each endpoint to its own fault profile. Latency is virtual:
// send() dispatches at once and returns the drawn delay, and the caller
// places the reply on its own simulated clock (fl/runner.cc).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/mailbox.h"
#include "common/thread_pool.h"

namespace calibre::comm {

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
};

// Component-wise difference (end - start) for per-round accounting.
TrafficStats operator-(const TrafficStats& end, const TrafficStats& start);

// Deterministic fault injection applied to client-addressed dispatches.
// Decisions are a pure function of (seed, receiver, round, attempt), where
// attempt counts dispatches to that endpoint — so a run is reproducible
// bit-for-bit from its seed, and a retry of a failed client re-rolls the
// dice instead of failing forever. (The availability schedule below ignores
// `attempt` on purpose: an offline device stays offline for the whole
// round, so retries against it keep failing until the schedule flips.)
struct FaultConfig {
  float failure_rate = 0.0f;  // P(dispatch fails before the handler runs)
  int latency_ms = 0;         // per-dispatch virtual delay in [0, latency_ms]
  std::uint64_t seed = 0;     // fault stream seed
  // Diurnal availability: with duty_cycle < 1 and period_rounds > 0 the
  // endpoint is offline for the tail of every period_rounds-round cycle,
  // with a per-receiver phase (derived from the seed) so churn is staggered
  // across the population. A dispatch to an offline endpoint fails before
  // the handler runs, with error text kOfflineErrorText. duty_cycle >= 1 or
  // period_rounds <= 0 disables the schedule.
  float duty_cycle = 1.0f;
  int period_rounds = 0;
};

// The injected delay (virtual ms) of the `attempt`-th dispatch to `receiver`
// in `round`: uniform in [0, fault.latency_ms], a pure function of its
// arguments. Router::send draws every dispatch's delay through it.
int injected_delay_ms(const FaultConfig& fault, int receiver, int round,
                      std::uint64_t attempt);

// Error text carried by an availability-schedule failure, distinguishable
// from a random injected fault ("injected handler fault").
inline constexpr const char* kOfflineErrorText = "injected offline";

class Router {
 public:
  using Handler = std::function<void(const Message&)>;

  explicit Router(std::size_t num_threads);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Registers the handler executed (on the pool) for messages to `endpoint`.
  // Must not be called after sends to that endpoint have started.
  void register_endpoint(int endpoint, Handler handler);

  // Registers the fallback handler for any client endpoint with no explicit
  // registration — the virtual-client path: one generic handler (reading the
  // client id from Message::receiver) serves an arbitrary population without
  // O(clients) registration cost or per-client closures. An explicitly
  // registered endpoint still wins. Must be called before sends start.
  void register_default_handler(Handler handler);

  // Enables fault injection for subsequent client-addressed sends: endpoint
  // `e` uses profiles[e % profiles.size()], so one profile is a uniform
  // fault model and several are device classes. Must not be called
  // concurrently with send().
  void set_fault_profiles(std::vector<FaultConfig> profiles);

  // Routes `message`: server-addressed messages go to the server mailbox;
  // client-addressed ones are dispatched to the endpoint handler on the pool.
  // A handler that throws (or an injected fault) produces a kTrainError
  // reply to the server instead of a lost message. Returns the dispatch's
  // injected delay in virtual ms (0 for server-addressed messages): the
  // handler runs at once, and the delay only says when its reply arrives
  // on the caller's simulated clock.
  // Throws when the receiver is unknown.
  int send(Message message);

  // Inbox for messages addressed to kServerEndpoint.
  Mailbox& server_mailbox() { return server_mailbox_; }

  TrafficStats stats() const;

  // kTrainError reply from `client` for `round`; payload carries `what`.
  static Message make_error_reply(int client, int round,
                                  const std::string& what);
  // Error text carried by a kTrainError message.
  static std::string error_text(const Message& message);

 private:
  // The fault profile governing dispatches to `receiver`.
  const FaultConfig& profile_for(int receiver) const;

  Mailbox server_mailbox_;
  std::unordered_map<int, Handler> handlers_;
  Handler default_handler_;
  std::vector<FaultConfig> fault_profiles_{FaultConfig{}};  // no faults
  std::mutex attempts_mutex_;
  std::unordered_map<int, std::uint64_t> attempts_;  // dispatches per endpoint
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> logical_bytes_{0};
  std::atomic<std::uint64_t> physical_bytes_{0};
  std::atomic<std::uint64_t> broadcast_bytes_{0};
  std::atomic<std::uint64_t> collected_bytes_{0};
  std::atomic<std::uint64_t> broadcast_serializations_{0};
  std::atomic<std::uint64_t> collect_serializations_{0};
  // Destroyed before the rest of the router: ~ThreadPool drains straggler
  // handler tasks (which touch the mailbox and handlers_) first, so "one
  // reply per dispatch" survives shutdown.
  common::ThreadPool pool_;
};

}  // namespace calibre::comm
