#include "flapi/config.h"

#include "common/check.h"
#include "common/thread_pool.h"

namespace calibre::fl {

void validate(const FlConfig& config) {
  // rounds == 0 is the personalization-only / scripted-algorithm mode.
  CALIBRE_CHECK_MSG(config.rounds >= 0, "rounds must be >= 0");
  CALIBRE_CHECK_MSG(config.clients_per_round > 0,
                    "clients_per_round must be > 0");
  CALIBRE_CHECK_MSG(config.min_participants >= 1,
                    "min_participants must be >= 1, got "
                        << config.min_participants);
  // Previously this was clamped down silently, so a typo like
  // --min-participants 50 with --clients-per-round 10 ran with a quorum of
  // 10 and no warning. A quorum above the sample size is unsatisfiable by
  // construction: reject it. (Dropout shrinking a round below the quorum at
  // runtime is a different, legitimate situation and is still clamped.)
  CALIBRE_CHECK_MSG(
      config.min_participants <= config.clients_per_round,
      "min_participants (" << config.min_participants
                           << ") exceeds clients_per_round ("
                           << config.clients_per_round
                           << "): the quorum can never be met");
  CALIBRE_CHECK_MSG(
      config.client_dropout_rate >= 0.0f && config.client_dropout_rate < 1.0f,
      "client_dropout_rate must be in [0, 1)");
  CALIBRE_CHECK_MSG(config.round_deadline_ms >= 0,
                    "round_deadline_ms must be >= 0");
  CALIBRE_CHECK_MSG(config.max_client_retries >= 0,
                    "max_client_retries must be >= 0");
  CALIBRE_CHECK_MSG(config.fault_rate >= 0.0f && config.fault_rate <= 1.0f,
                    "fault_rate must be in [0, 1]");
  CALIBRE_CHECK_MSG(config.fault_latency_ms >= 0,
                    "fault_latency_ms must be >= 0");
  for (const DeviceClass& device : config.device_classes) {
    CALIBRE_CHECK_MSG(
        device.fault_rate >= 0.0f && device.fault_rate <= 1.0f,
        "device class '" << device.name << "': fault_rate must be in [0, 1]");
    CALIBRE_CHECK_MSG(device.fault_latency_ms >= 0,
                      "device class '" << device.name
                                       << "': fault_latency_ms must be >= 0");
    CALIBRE_CHECK_MSG(device.duty_cycle > 0.0f && device.duty_cycle <= 1.0f,
                      "device class '" << device.name
                                       << "': duty_cycle must be in (0, 1]");
    CALIBRE_CHECK_MSG(device.duty_cycle >= 1.0f || device.period_rounds > 0,
                      "device class '" << device.name
                                       << "': duty_cycle < 1 needs "
                                          "period_rounds > 0");
  }
  // codec_from_name already rejects unknown --wire-codec names at the CLI,
  // but programmatic configs can hold any byte; reject values outside the
  // enum (and print the valid set) before a corrupt-tag CHECK deep in a
  // round does it cryptically.
  switch (config.wire_codec) {
    case comm::Codec::kAuto:
    case comm::Codec::kF32:
    case comm::Codec::kF16:
    case comm::Codec::kDelta16:
    case comm::Codec::kTopK16:
    case comm::Codec::kInt8A:
      break;
    default:
      CALIBRE_CHECK_MSG(false,
                        "wire_codec value "
                            << static_cast<int>(config.wire_codec)
                            << " is not a codec (expected auto | f32 | f16 | "
                               "delta16 | topk16 | int8a)");
  }
  CALIBRE_CHECK_MSG(config.topk_rate > 0.0f && config.topk_rate <= 1.0f,
                    "topk_rate must be in (0, 1], got " << config.topk_rate);
  CALIBRE_CHECK_MSG(
      config.codec_error_budget > 0.0f && config.codec_error_budget <= 1.0f,
      "codec_error_budget must be in (0, 1], got "
          << config.codec_error_budget);
  CALIBRE_CHECK_MSG(config.agg_shards >= 1, "agg_shards must be >= 1, got "
                                                << config.agg_shards);
  // More shards than sampled clients would leave shards permanently empty:
  // the shard map is rank % agg_shards over at most clients_per_round ranks.
  CALIBRE_CHECK_MSG(
      config.agg_shards <= config.clients_per_round,
      "agg_shards (" << config.agg_shards << ") exceeds clients_per_round ("
                     << config.clients_per_round
                     << "): shards beyond the sample size can never fold");
  // 0 selects the library default and all clients; a negative value is an
  // error, not a spelling of either.
  CALIBRE_CHECK_MSG(config.threads >= 0,
                    "threads must be >= 0 (0 = library default), got "
                        << config.threads);
  CALIBRE_CHECK_MSG(config.personalize_cap >= 0,
                    "personalize_cap must be >= 0 (0 = all clients), got "
                        << config.personalize_cap);
  if (config.async_mode) {
    CALIBRE_CHECK_MSG(config.async_buffer_size >= 1,
                      "async_buffer_size must be >= 1, got "
                          << config.async_buffer_size);
    // A commit window folds exactly async_buffer_size updates with ranks
    // 0..buffer-1; requiring divisibility keeps every shard's load equal in
    // every window instead of systematically starving the high shards.
    CALIBRE_CHECK_MSG(
        config.async_buffer_size % config.agg_shards == 0,
        "async_buffer_size (" << config.async_buffer_size
                              << ") must be divisible by agg_shards ("
                              << config.agg_shards
                              << ") so commit windows load shards evenly");
    CALIBRE_CHECK_MSG(config.staleness_alpha >= 0.0f,
                      "staleness_alpha must be >= 0, got "
                          << config.staleness_alpha);
    // Async has no per-round barrier, so a per-round wall-clock deadline and
    // pre-dispatch dropout have no meaning there; reject rather than ignore.
    CALIBRE_CHECK_MSG(config.round_deadline_ms == 0,
                      "round_deadline_ms is a sync-only knob; async mode "
                      "paces itself by buffer commits");
    CALIBRE_CHECK_MSG(config.client_dropout_rate == 0.0f,
                      "client_dropout_rate is a sync-only knob; model device "
                      "churn with --device-classes duty cycles instead");
  }
}

std::size_t resolve_threads(const FlConfig& config) {
  return config.threads > 0 ? static_cast<std::size_t>(config.threads)
                            : common::ThreadPool::default_parallelism();
}

}  // namespace calibre::fl
