// Experiment configuration shared by all FL algorithms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "data/augment.h"
#include "nn/networks.h"
#include "nn/optim.h"

namespace calibre::fl {

// Personalization stage settings (paper §V: 10 epochs, SGD lr = 0.05,
// batch size 32, linear classifier on frozen encoder features).
struct ProbeConfig {
  // kLinear: the paper's linear classifier trained for `epochs`.
  // kPrototype: training-free nearest-class-prototype head (extension).
  enum class Head { kLinear, kPrototype };
  Head head = Head::kLinear;
  int epochs = 10;
  float learning_rate = 0.05f;
  float momentum = 0.9f;
  int batch_size = 32;
};

// One heterogeneous device class: clients are assigned round-robin
// (client_id % num_classes) and inherit the class's fault profile. Maps
// onto comm::FaultConfig; see the availability-schedule semantics there.
struct DeviceClass {
  std::string name;           // label for history/bench output
  float fault_rate = 0.0f;    // P(dispatch fails)
  int fault_latency_ms = 0;   // per-dispatch virtual delay, [0, this] ms
  float duty_cycle = 1.0f;    // fraction of each period the device is online
  int period_rounds = 24;     // diurnal period (rounds); used when duty < 1
};

struct FlConfig {
  nn::EncoderConfig encoder;
  int num_classes = 10;

  // Federated training stage.
  int rounds = 30;
  int clients_per_round = 10;
  int local_epochs = 3;
  int batch_size = 32;
  nn::SgdConfig supervised_opt{/*lr=*/0.05f, /*momentum=*/0.9f,
                               /*weight_decay=*/1e-4f};
  nn::SgdConfig ssl_opt{/*lr=*/0.10f, /*momentum=*/0.9f,
                        /*weight_decay=*/1e-4f};

  data::AugmentConfig augment;
  ProbeConfig probe;

  // Probability that a sampled client fails to deliver its update in a
  // round (straggler / dropout simulation). The server aggregates whatever
  // arrives; at least one client per round is guaranteed.
  float client_dropout_rate = 0.0f;

  // --- Fault tolerance -------------------------------------------------------
  // Per-round budget in virtual ms (the clock injected latency runs on),
  // measured from the broadcast. The round cuts at the later of the
  // deadline and the quorum-th successful arrival and aggregates whatever
  // arrived by then (partial aggregation); slots whose outcome arrives
  // later count as timeouts and their replies are discarded in the round.
  // 0 = wait for every reply (no deadline).
  int round_deadline_ms = 0;
  // Minimum successful updates per round: the cut never comes before this
  // many updates arrived (clamped to the number of sampled clients). Keeps
  // a late-but-quorate round meaningful instead of aggregating nothing;
  // below it the round waits for every reply.
  int min_participants = 1;
  // Bounded retry: a client whose update fails (a thrown update or an
  // injected fault) is re-sent the request up to this many times, inside
  // the same dispatch.
  int max_client_retries = 0;
  // Fault injection (comm::FaultConfig): probability that a dispatched
  // client update fails, and per-dispatch latency in [0, fault_latency_ms]
  // virtual ms (it moves the reply on the round engine's clock; nothing
  // waits for it in real time). Seeded from `seed`; 0/0 disables injection.
  float fault_rate = 0.0f;
  int fault_latency_ms = 0;
  // Heterogeneous device classes (empty = uniform fault_rate /
  // fault_latency_ms above). Client c belongs to class
  // device_classes[c % device_classes.size()].
  std::vector<DeviceClass> device_classes;

  // --- Asynchronous federation ----------------------------------------------
  // FedBuff-style buffered asynchronous aggregation. Instead of a per-round
  // barrier, the server keeps `clients_per_round` requests in flight at all
  // times, folds replies as they arrive (in dispatch order, so runs are
  // bit-identical across thread counts), weights each update by the
  // staleness of the global version it trained against,
  //   w(s) = 1 / (1 + s)^staleness_alpha,
  // and commits a new global version every `async_buffer_size` folds. The
  // run ends after `rounds` commits. Sync-only knobs (round_deadline_ms,
  // client_dropout_rate) are rejected in async mode.
  bool async_mode = false;
  int async_buffer_size = 8;
  float staleness_alpha = 0.5f;

  // Wire codec for model payloads (broadcasts and updates). kF32 keeps runs
  // bitwise identical to pre-codec builds; kF16 halves model bytes on the
  // wire; kDelta16 additionally encodes client updates as fp16 deltas
  // against the round's broadcast snapshot; kTopK16 ships only the
  // `topk_rate` fraction of largest-magnitude delta coordinates with
  // client-side error feedback (the dropped remainder carries into the next
  // update, see fl/update_codec.h); kInt8A quantizes 256-element blocks to
  // affine int8. kAuto picks, per update, the cheapest of those meeting
  // `codec_error_budget`. See comm/codec.h.
  comm::Codec wire_codec = comm::Codec::kF32;

  // Fraction of update coordinates kTopK16 ships (k = max(1,
  // round(rate * model_size))). In (0, 1].
  float topk_rate = 0.0625f;

  // Relative L2 reconstruction-error budget for wire_codec = kAuto: each
  // update is encoded with the cheapest codec whose exact
  // ||decode(encode(u)) - u|| / ||u|| is within the budget (f32 — error
  // zero — is the last resort, so the budget always holds). In (0, 1].
  float codec_error_budget = 0.01f;

  // Partial folds per commit window. Every reply is decoded and folded on
  // the server thread; N > 1 folds rank r into partial (r % N) and merges
  // the N partials in order at commit — bit-identical to the flat fold (the
  // native folds accumulate in exact fixed-point; see flapi/fixed_accum.h).
  // Needs a mergeable aggregator. Must not exceed clients_per_round, and in
  // async mode must divide async_buffer_size so every commit window loads
  // the partials evenly.
  int agg_shards = 1;

  // Cap on clients evaluated in the personalization stage (0 = all). With
  // 100k virtual clients the training stage is cheap per round but a full
  // personalization sweep is O(population); the cap evaluates a seeded
  // without-replacement sample of that size instead, applied independently
  // to the participating and novel sets.
  int personalize_cap = 0;

  std::uint64_t seed = 42;
  // Worker threads for simulated client devices (0 = library default).
  int threads = 0;
  // Total participating clients; algorithms that need the population size
  // (e.g. SCAFFOLD's control-variate update) read it here. The experiment
  // driver sets it to match the FedDataset.
  int num_train_clients = 100;
};

// Fails fast (throws common::CheckError) on configurations that the round
// loop used to accept and silently reinterpret — most notably
// min_participants > clients_per_round, which was clamped down instead of
// rejected. run_federated() calls this before any work starts; the CLI
// calls it at flag-parse time so bad invocations exit with a clear message
// rather than a truncated run.
void validate(const FlConfig& config);

// Device threads a run uses: FlConfig::threads, or the library default when
// it is 0.
std::size_t resolve_threads(const FlConfig& config);

}  // namespace calibre::fl
