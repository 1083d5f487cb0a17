// The federated round engine.
//
// Runner wires an Algorithm to a FedDataset through the comm layer: every
// global model broadcast and every client update crosses a serialized
// message boundary and executes on a device thread pool, as it would in a
// real deployment. After the training stage it runs the personalization
// stage (personalize_clients) on every participating and novel client and
// collects per-client accuracies.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "comm/router.h"
#include "flapi/algorithm.h"
#include "fl/fed_data.h"

namespace calibre::fl {

// Per-round progress record (one entry per federated round).
struct RoundStats {
  int round = 0;
  int participants = 0;       // clients that delivered an update
  int dropped = 0;            // sampled clients lost to dropout
  int failures = 0;           // failed attempts (thrown updates, injected
                              // faults); includes retried attempts
  int retries = 0;            // requests re-sent after a failure
  int timeouts = 0;           // sampled clients whose outcome arrived after
                              // the round's deadline cut (sync only)
  int late_dropped = 0;       // async: in-flight replies discarded after the
                              // final commit (always 0 in sync runs)
  // Virtual clock (ms) at this commit: injected latency only, no compute
  // time. A sync round ends when its last outcome arrives or at its
  // deadline cut; an async commit at its fold front's time. 0 without
  // latency.
  std::int64_t virtual_ms = 0;
  // Logical wire bytes of the dispatches that resolved in this window, by
  // direction (retry re-sends and failure replies included).
  std::uint64_t bytes_broadcast = 0;  // server -> clients
  std::uint64_t bytes_collected = 0;  // clients -> server
  // Distinct broadcast payload buffers serialized this round. The shared
  // snapshot makes this 1 regardless of clients_per_round or retries.
  std::uint64_t serializations = 0;
  float mean_divergence = 0.0f;  // mean of the updates' "divergence" scalar
                                 // (0 when the algorithm does not report it)
  float mean_update_norm = 0.0f;
  // --- Update compression ----------------------------------------------------
  // Encoded wire bytes of the updates folded this round, against the bytes
  // the same updates would occupy in the legacy f32 layout. Their ratio is
  // the round's physical/logical compression ratio for the collected
  // direction (1.0 under f32). Covers folded updates only — failed and
  // discarded replies carry no decodable update to attribute.
  std::uint64_t update_bytes_wire = 0;
  std::uint64_t update_bytes_f32 = 0;
  // Folded updates by concrete wire codec, indexed by comm::Codec tag value
  // (kF32 = 1 ... kInt8A = 5; slot 0 — the config-only kAuto — stays 0).
  // Under --wire-codec auto this is the chooser's per-round decision record.
  std::array<std::uint32_t, 6> codec_counts{};
  // --- Async mode only (zero in sync runs) ---------------------------------
  // Global version committed at the end of this entry (async "rounds" are
  // buffer commits; version k is the state after commit k).
  int committed_version = 0;
  // Staleness of the folded updates: commit version minus the version the
  // client's base model came from.
  float staleness_mean = 0.0f;
  int staleness_max = 0;
};

// Server-thread wall-clock split of the training stage, summed over rounds
// (sync) or commit windows (async). Every phase runs on the server thread,
// so the four never overlap and their sum stays below the run's wall time.
// Dispatch is the serialize-and-send side of the loop, decode and fold the
// per-reply work, and commit the shard merge + finish().
struct PhaseTimes {
  double dispatch_seconds = 0.0;
  double decode_seconds = 0.0;
  double fold_seconds = 0.0;
  double commit_seconds = 0.0;
};

struct RunResult {
  std::string algorithm;
  std::vector<double> train_accuracies;  // per participating client
  std::vector<double> novel_accuracies;  // per novel client
  std::vector<RoundStats> history;       // one entry per round
  comm::TrafficStats traffic;
  double wall_seconds = 0.0;
  double train_seconds = 0.0;            // wall time of the training stage
  PhaseTimes phases;                     // training-stage server-side split
  nn::ModelState final_state;            // trained global state
};

// Deterministic per-(seed, round, client) sub-stream seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

// The router fault profiles of a run over `config`: endpoint c uses
// profiles[c % profiles.size()].
std::vector<comm::FaultConfig> fault_profiles(const FlConfig& config);

// FedBuff-style staleness discount w(s) = 1 / (1 + s)^alpha, s >= 0.
// alpha = 0 disables discounting (w = 1 for all s).
float staleness_weight(int staleness, float alpha);

// Runs training + personalization. `personalize_novel` controls whether the
// novel-client pass (paper Fig. 4 right column) is executed.
RunResult run_federated(Algorithm& algorithm, const FedDataset& fed,
                        bool personalize_novel = true);

// The personalization stage on its own: personalizes every participating
// client (and, with `personalize_novel`, every novel client) against
// `state` on a device thread pool, and fills result.train_accuracies and
// result.novel_accuracies. FlConfig::personalize_cap evaluates a seeded
// sample of each set instead. run_federated ends with this call, so
// personalizing a saved final state reproduces the run's accuracies.
void personalize_clients(Algorithm& algorithm, const nn::ModelState& state,
                         const FedDataset& fed, bool personalize_novel,
                         RunResult& result);

}  // namespace calibre::fl
