#include "comm/router.h"

#include <cmath>

#include "comm/serde.h"
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

Router::Router(std::size_t num_threads) : pool_(num_threads) {}

void Router::register_endpoint(int endpoint, Handler handler) {
  CALIBRE_CHECK_MSG(endpoint != kServerEndpoint,
                    "server endpoint uses the mailbox, not a handler");
  const auto [it, inserted] = handlers_.emplace(endpoint, std::move(handler));
  CALIBRE_CHECK_MSG(inserted, "endpoint " << endpoint << " already registered");
}

void Router::register_default_handler(Handler handler) {
  CALIBRE_CHECK_MSG(handler != nullptr, "default handler must be callable");
  CALIBRE_CHECK_MSG(default_handler_ == nullptr,
                    "default handler already registered");
  default_handler_ = std::move(handler);
}

void Router::set_fault_profiles(std::vector<FaultConfig> profiles) {
  CALIBRE_CHECK_MSG(!profiles.empty(), "need at least one fault profile");
  for (const FaultConfig& profile : profiles) validate_fault_config(profile);
  fault_profiles_ = std::move(profiles);
}

const FaultConfig& Router::profile_for(int receiver) const {
  return fault_profiles_[static_cast<std::size_t>(receiver) %
                         fault_profiles_.size()];
}

int injected_delay_ms(const FaultConfig& fault, int receiver, int round,
                      std::uint64_t attempt) {
  if (fault.latency_ms <= 0) return 0;
  return static_cast<int>(mix(fault.seed, static_cast<std::uint64_t>(receiver),
                              static_cast<std::uint64_t>(round),
                              attempt * 2 + 1) %
                          static_cast<std::uint64_t>(fault.latency_ms + 1));
}

int Router::send(Message message) {
  const std::uint64_t wire = message.wire_size();
  messages_.fetch_add(1, std::memory_order_relaxed);
  logical_bytes_.fetch_add(wire, std::memory_order_relaxed);
  const bool to_server = message.receiver == kServerEndpoint;
  (to_server ? collected_bytes_ : broadcast_bytes_)
      .fetch_add(wire, std::memory_order_relaxed);
  // Physical cost: the header always travels; the payload buffer only the
  // first time any message carries it. mark_transmitted() latches exactly
  // once per unique buffer, which also counts distinct serializations.
  std::uint64_t physical = Message::kHeaderBytes;
  if (message.payload.mark_transmitted()) {
    physical += message.payload.size();
    (to_server ? collect_serializations_ : broadcast_serializations_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  physical_bytes_.fetch_add(physical, std::memory_order_relaxed);
  if (message.receiver == kServerEndpoint) {
    server_mailbox_.push(std::move(message));
    return 0;
  }
  const auto it = handlers_.find(message.receiver);
  CALIBRE_CHECK_MSG(it != handlers_.end() || default_handler_ != nullptr,
                    "no endpoint registered for client " << message.receiver);
  Handler& handler = it != handlers_.end() ? it->second : default_handler_;

  // Roll the fault dice on the sending thread: per-endpoint attempt counters
  // advance in send order, so decisions are deterministic no matter how the
  // pool interleaves execution.
  const FaultConfig& fault = profile_for(message.receiver);
  bool inject_failure = false;
  bool offline = false;
  int delay_ms = 0;
  if (fault.failure_rate > 0.0f || fault.latency_ms > 0 ||
      fault.duty_cycle < 1.0f) {
    std::uint64_t attempt = 0;
    {
      std::lock_guard<std::mutex> lock(attempts_mutex_);
      attempt = attempts_[message.receiver]++;
    }
    const auto receiver = static_cast<std::uint64_t>(message.receiver);
    const auto round = static_cast<std::uint64_t>(message.round);
    offline = !endpoint_available(fault, message.receiver, message.round);
    inject_failure =
        offline ||
        (fault.failure_rate > 0.0f &&
         unit_double(mix(fault.seed, receiver, round, attempt * 2)) <
             static_cast<double>(fault.failure_rate));
    delay_ms = injected_delay_ms(fault, message.receiver, message.round,
                                 attempt);
  }

  // The handler reference stays valid: registration is frozen before sending.
  // A throwing handler (or an injected fault) must never strand the server:
  // every dispatch produces exactly one reply, success or kTrainError.
  auto dispatch = [this, &handler, inject_failure, offline,
                   message = std::move(message)]() mutable {
    const int client = message.receiver;
    const int round = message.round;
    try {
      if (inject_failure) {
        throw std::runtime_error(offline ? kOfflineErrorText
                                         : "injected handler fault");
      }
      handler(message);
    } catch (const std::exception& error) {
      try {
        send(make_error_reply(client, round, error.what()));
      } catch (...) {
        // Server mailbox closed during shutdown; nothing left to notify.
      }
    } catch (...) {
      try {
        send(make_error_reply(client, round, "unknown error"));
      } catch (...) {
      }
    }
  };
  pool_.submit(std::move(dispatch));
  return delay_ms;
}

TrafficStats operator-(const TrafficStats& end, const TrafficStats& start) {
  TrafficStats out;
  out.messages = end.messages - start.messages;
  out.logical_bytes = end.logical_bytes - start.logical_bytes;
  out.physical_bytes = end.physical_bytes - start.physical_bytes;
  out.broadcast_bytes = end.broadcast_bytes - start.broadcast_bytes;
  out.collected_bytes = end.collected_bytes - start.collected_bytes;
  out.broadcast_serializations =
      end.broadcast_serializations - start.broadcast_serializations;
  out.collect_serializations =
      end.collect_serializations - start.collect_serializations;
  return out;
}

TrafficStats Router::stats() const {
  TrafficStats out;
  out.messages = messages_.load(std::memory_order_relaxed);
  out.logical_bytes = logical_bytes_.load(std::memory_order_relaxed);
  out.physical_bytes = physical_bytes_.load(std::memory_order_relaxed);
  out.broadcast_bytes = broadcast_bytes_.load(std::memory_order_relaxed);
  out.collected_bytes = collected_bytes_.load(std::memory_order_relaxed);
  out.broadcast_serializations =
      broadcast_serializations_.load(std::memory_order_relaxed);
  out.collect_serializations =
      collect_serializations_.load(std::memory_order_relaxed);
  return out;
}

Message Router::make_error_reply(int client, int round,
                                 const std::string& what) {
  Writer writer;
  writer.write_string(what);
  Message reply;
  reply.type = MessageType::kTrainError;
  reply.sender = client;
  reply.receiver = kServerEndpoint;
  reply.round = round;
  reply.payload = writer.take();
  return reply;
}

std::string Router::error_text(const Message& message) {
  CALIBRE_CHECK(message.type == MessageType::kTrainError);
  Reader reader(message.payload.bytes());
  return reader.read_string();
}

}  // namespace calibre::comm
