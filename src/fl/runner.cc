#include "fl/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <optional>

#include "common/check.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "fl/shard_fold.h"
#include "fl/update_codec.h"

namespace calibre::fl {
namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point from,
                       SteadyClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::size_t resolve_threads(const FlConfig& config) {
  return config.threads > 0 ? static_cast<std::size_t>(config.threads)
                            : common::ThreadPool::default_parallelism();
}

// Wires the config's fault model into the router: heterogeneous device
// classes when configured (client c -> class c % num_classes), else the
// uniform fault knobs. The fault stream seed is derived once, so sync and
// async runs over the same config see the same faults.
void configure_faults(const FlConfig& config, comm::Router& router) {
  const std::uint64_t fault_seed = derive_seed(config.seed, 0xFA01, 0);
  if (!config.device_classes.empty()) {
    std::vector<comm::FaultConfig> profiles;
    profiles.reserve(config.device_classes.size());
    for (const DeviceClass& device : config.device_classes) {
      comm::FaultConfig profile;
      profile.failure_rate = device.fault_rate;
      profile.latency_ms = device.fault_latency_ms;
      profile.seed = fault_seed;
      profile.duty_cycle = device.duty_cycle;
      profile.period_rounds = device.period_rounds;
      profiles.push_back(profile);
    }
    router.set_fault_profiles(
        std::move(profiles),
        [num_classes = config.device_classes.size()](int endpoint) {
          return static_cast<std::size_t>(endpoint) % num_classes;
        });
    return;
  }
  if (config.fault_rate > 0.0f || config.fault_latency_ms > 0) {
    comm::FaultConfig fault;
    fault.failure_rate = config.fault_rate;
    fault.latency_ms = config.fault_latency_ms;
    fault.seed = fault_seed;
    router.set_fault_injection(fault);
  }
}

// --- The round engine -------------------------------------------------------
//
// Sync rounds and FedBuff-style async commits run through one loop. Every
// dispatch is a slot with a sequence number, and replies fold into the
// window's StreamingAggregator (through ShardedFolder) strictly in sequence
// order: reply ARRIVAL order depends on thread scheduling and float
// summation is order-sensitive, so a reply that arrives ahead of the fold
// front is held serialized (a refcounted payload handle, no decode), and the
// front decodes+folds a held slot — or skips a failed or timed-out one —
// only once every earlier slot resolved. Dispatches, commits and sampler
// draws all happen at front-advance time, so a run is a pure function of
// the seed: bit-identical across thread counts and shard counts.
//
// The two modes differ only in when a commit window closes and how slots
// are refilled:
//  * sync (a barrier per round): a window is one cohort, drawn without
//    replacement and dispatched when the window opens. It commits once every
//    slot resolved, or when the round deadline fired with the quorum in —
//    the cut resolves the remaining slots as timeouts.
//  * async: the server keeps `clients_per_round` dispatches in flight,
//    replacing each resolved slot with one rejection-sampled idle client,
//    and commits a new global version every `async_buffer_size` folds.
// Each fold is discounted by staleness_weight(commits - tag, alpha), where
// the tag is the commit count at dispatch. A sync slot always folds in the
// round it was dispatched in, so its staleness is 0 and its weight 1.
//
// Replies are keyed by (round tag, sender). A live slot is unique for its
// key: async keeps at most one dispatch per client in flight, and a sync
// client appears once per cohort. A deadline straggler can be re-sampled
// into the next round while its old request is still in flight, so the
// sender alone does not identify the slot; a reply whose key names no live
// slot is a straggler from a cut round and is discarded as late.
class RoundEngine {
 public:
  RoundEngine(Algorithm& algorithm, const FedDataset& fed,
              comm::Router& router, nn::ModelState& state, RunResult& result)
      : algorithm_(algorithm),
        fed_(fed),
        config_(algorithm.config()),
        router_(router),
        state_(state),
        result_(result),
        barrier_(!config_.async_mode),
        sampler_(derive_seed(config_.seed, 0xC1, 0xE57)),
        slots_(static_cast<std::size_t>(config_.clients_per_round)),
        live_seq_(static_cast<std::size_t>(fed.num_train_clients()), -1) {
    // --agg-shards > 1 decodes + folds on parallel shard workers; shards=1
    // with no pool is the inline flat fold. The fixed-point accumulators
    // make every shard count produce bit-identical states.
    if (config_.agg_shards > 1) {
      fold_pool_ = std::make_unique<common::ThreadPool>(
          static_cast<std::size_t>(config_.agg_shards));
    }
  }

  // Runs `config.rounds` commits, then drains every request still in
  // flight, so no local_update outlives the training stage.
  void run() {
    if (config_.rounds > 0) open_window();
    const bool has_deadline = config_.round_deadline_ms > 0;
    while (commits_ < config_.rounds) {
      std::optional<comm::Message> reply;
      if (has_deadline && !deadline_fired_) {
        reply = router_.server_mailbox().pop_until(deadline_);
        if (!reply.has_value() && !router_.server_mailbox().closed()) {
          // Below quorum the round keeps waiting: every dispatch is
          // guaranteed exactly one reply, so waiting cannot hang.
          deadline_fired_ = true;
          if (received_ >= quorum_) cut();
          continue;
        }
      } else {
        reply = router_.server_mailbox().pop();
      }
      CALIBRE_CHECK_MSG(reply.has_value(), "server mailbox closed early");
      on_reply(std::move(*reply));
      if (deadline_fired_ && received_ >= quorum_) cut();
    }
    drain();
  }

 private:
  enum class SlotState : std::uint8_t {
    kOutstanding,
    kHeld,
    kFailed,
    kTimedOut
  };
  struct Slot {
    int client = -1;
    int tag = 0;  // commit count at dispatch: the sync round / base version
    int retries_used = 0;
    SlotState status = SlotState::kOutstanding;
    comm::Payload request;  // the broadcast this dispatch trains against
    // The broadcast as clients decode it: the reference delta16/topk16
    // replies decode against (null under f32). shared_ptr because shard
    // workers may still decode against it after the slot resolved.
    std::shared_ptr<const nn::ModelState> base;
    comm::Payload reply;  // set when kHeld
  };

  Slot& slot(int seq) {
    return slots_[static_cast<std::size_t>(seq) % slots_.size()];
  }

  // Serializes the global state once for the whole window (every request,
  // retries included, shares the refcounted snapshot), starts a fresh
  // folder and stats record, and dispatches: sync draws the round's cohort,
  // async tops the in-flight window back up to clients_per_round.
  void open_window() {
    const SteadyClock::time_point start = SteadyClock::now();
    snapshot_base_.reset();
    snapshot_ = comm::Payload();  // the last window's broadcast may die first
    snapshot_ = comm::Payload(
        state_.to_bytes(resolve_broadcast_codec(config_.wire_codec)));
    if (config_.wire_codec != comm::Codec::kF32) {
      snapshot_base_ = std::make_shared<const nn::ModelState>(
          nn::ModelState::from_bytes(snapshot_.bytes()));
    }
    result_.phases.dispatch_seconds +=
        seconds_between(start, SteadyClock::now());
    folder_ = std::make_unique<ShardedFolder>(
        algorithm_, state_, commits_, config_.agg_shards, fold_pool_.get(),
        static_cast<std::size_t>(barrier_ ? config_.clients_per_round
                                          : config_.async_buffer_size));
    window_ = RoundStats{};
    traffic_at_open_ = router_.stats();
    folds_ = 0;
    received_ = 0;
    staleness_total_ = 0.0;
    deadline_fired_ = false;
    if (!barrier_) {
      while (next_seq_ - front_ < config_.clients_per_round) {
        dispatch(sample_idle_client());
      }
      return;
    }
    const std::vector<int> cohort = sampler_.sample_without_replacement(
        fed_.num_train_clients(), config_.clients_per_round);
    // Dropout simulation: sampled clients may fail to respond. The coins
    // come from their own per-round stream, NOT from the sampler: drawing
    // them from the sampling stream would make --dropout silently change
    // which clients are sampled in every later round.
    rng::Generator dropout(derive_seed(config_.seed, 0xD80,
                                       static_cast<std::uint64_t>(commits_)));
    for (const int client : cohort) {
      if (config_.client_dropout_rate > 0.0f &&
          dropout.uniform() < config_.client_dropout_rate) {
        ++window_.dropped;
      } else {
        dispatch(client);
      }
    }
    if (next_seq_ == front_) {  // keep one participant: the round stays
      --window_.dropped;        // well-defined
      dispatch(cohort.front());
    }
    // validate() already rejected min_participants outside
    // [1, clients_per_round]; the clamp only covers dropout legitimately
    // shrinking the round below the configured quorum.
    quorum_ = std::min(config_.min_participants, next_seq_ - front_);
    deadline_ = SteadyClock::now() +
                std::chrono::milliseconds(config_.round_deadline_ms);
  }

  // Rejection-samples a client with no unresolved slot. Terminates: the
  // window holds fewer than clients_per_round <= num_train_clients slots
  // whenever this runs. A client is released at slot RESOLUTION, not at
  // reply arrival: arrival order is thread-schedule noise, and it would
  // make the candidate set (and so every later draw) nondeterministic.
  int sample_idle_client() {
    int client;
    do {
      client = static_cast<int>(sampler_.uniform_index(
          static_cast<std::uint64_t>(fed_.num_train_clients())));
    } while (live_seq_[static_cast<std::size_t>(client)] >= 0);
    return client;
  }

  void dispatch(int client) {
    CALIBRE_CHECK_LT(next_seq_ - front_, static_cast<int>(slots_.size()),
                     "slot table overflow");
    Slot& fresh = slot(next_seq_);
    fresh = Slot{client, commits_, 0, SlotState::kOutstanding, snapshot_,
                 snapshot_base_, comm::Payload()};
    live_seq_[static_cast<std::size_t>(client)] = next_seq_++;
    send(fresh);
  }

  void send(const Slot& dispatched) {
    const SteadyClock::time_point start = SteadyClock::now();
    ++awaiting_;
    comm::Message request;
    request.type = comm::MessageType::kTrainRequest;
    request.sender = comm::kServerEndpoint;
    request.receiver = dispatched.client;
    // Clients derive their seed from the tag, and the fault injector's
    // availability schedule keys on it (a device-class "period" counts
    // rounds in sync mode, versions in async mode).
    request.round = dispatched.tag;
    request.payload = dispatched.request;
    router_.send(std::move(request));
    result_.phases.dispatch_seconds +=
        seconds_between(start, SteadyClock::now());
  }

  void on_reply(comm::Message reply) {
    --awaiting_;
    const int seq = live_seq_.at(static_cast<std::size_t>(reply.sender));
    if (seq < 0 || slot(seq).tag != reply.round) {
      ++window_.late_dropped;
      log::debug() << algorithm_.name() << " window " << commits_
                   << " discarded late reply from client " << reply.sender
                   << " (tag " << reply.round << ")";
      return;
    }
    Slot& live = slot(seq);
    if (reply.type == comm::MessageType::kTrainError) {
      // Only a live slot's error gets here (late ones were dropped above).
      // Failures and retries are credited when the slot resolves (see
      // advance_front).
      if (live.retries_used < config_.max_client_retries) {
        ++live.retries_used;
        send(live);  // the retry keeps its seq (fold place) and snapshot
        return;
      }
      log::debug() << algorithm_.name() << " seq " << seq << " client "
                   << reply.sender
                   << " failed: " << comm::Router::error_text(reply);
      live.status = SlotState::kFailed;
    } else {
      CALIBRE_CHECK(reply.type == comm::MessageType::kTrainResponse);
      live.status = SlotState::kHeld;
      live.reply = std::move(reply.payload);
      ++received_;
    }
    advance_front();
  }

  // Resolves every slot at the front that has its outcome, in seq order:
  // folds held replies, commits when the window closes, and refills. Stops
  // at the first slot still awaiting its reply, or at the final commit.
  void advance_front() {
    // Legit high-fault configs recover within tens of dispatches; only an
    // async configuration that can never fold (e.g. every class offline at
    // the current version, which no commit will ever advance) hits this.
    const int max_consecutive_failures =
        1000 + 50 * config_.clients_per_round;
    while (commits_ < config_.rounds && front_ < next_seq_) {
      Slot& resolved = slot(front_);
      if (resolved.status == SlotState::kOutstanding) return;
      ++front_;
      live_seq_[static_cast<std::size_t>(resolved.client)] = -1;
      // Failures/retries are attributed to the window in which the slot
      // RESOLVES, not the one where an error reply happened to arrive:
      // resolution order is deterministic, so the history's counters are
      // bit-identical across thread counts.
      window_.retries += resolved.retries_used;
      window_.failures += resolved.retries_used +
                          (resolved.status == SlotState::kFailed ? 1 : 0);
      if (resolved.status == SlotState::kHeld) {
        // Decode + fold run on the folder (shard workers under
        // --agg-shards, inline otherwise); the staleness weight multiplies
        // the decoded weight there. Update-content stats are read back from
        // the folder's rank arrays at commit.
        const int staleness = commits_ - resolved.tag;
        folder_->submit(folds_, std::move(resolved.reply),
                        std::move(resolved.base),
                        staleness_weight(staleness, config_.staleness_alpha));
        staleness_total_ += staleness;
        window_.staleness_max = std::max(window_.staleness_max, staleness);
        ++folds_;
        consecutive_failures_ = 0;
      } else if (resolved.status == SlotState::kFailed) {
        ++consecutive_failures_;
        CALIBRE_CHECK_MSG(
            consecutive_failures_ <= max_consecutive_failures,
            "no progress after "
                << consecutive_failures_
                << " consecutive permanent failures; with duty-cycled device "
                   "classes the async availability schedule only advances "
                   "on commits, so a population that is fully offline at "
                   "the current version can never recover");
      }
      // Frees the slot's snapshot handles before a commit serializes the
      // next broadcast; a superseded version dies with its last slot.
      resolved = Slot{};
      if (barrier_ ? front_ == next_seq_
                   : folds_ == config_.async_buffer_size) {
        commit();
        if (commits_ < config_.rounds) open_window();
      } else if (!barrier_) {
        dispatch(sample_idle_client());
      }
    }
  }

  // Deadline cut: every slot still awaiting its reply resolves as a
  // timeout (its eventual reply is discarded as late), which releases the
  // held replies behind it into the fold and closes the round.
  void cut() {
    for (int seq = front_; seq < next_seq_; ++seq) {
      if (slot(seq).status == SlotState::kOutstanding) {
        slot(seq).status = SlotState::kTimedOut;
        ++window_.timeouts;
      }
    }
    advance_front();
  }

  // collect() waits out the shard workers and merges the partials in
  // ascending shard order; only the merged root is ever finished. A window
  // with no folds (a fully failed sync round) keeps the state as-is rather
  // than aggregating nothing.
  void commit() {
    const SteadyClock::time_point start = SteadyClock::now();
    std::unique_ptr<StreamingAggregator> merged = folder_->collect();
    CALIBRE_CHECK_EQ(merged->folded(), folds_, "shard merge lost folds");
    if (folds_ > 0) {
      state_ = merged->finish();
    } else {
      log::warn() << algorithm_.name() << " round " << commits_
                  << ": no updates arrived; keeping previous global state";
    }
    result_.phases.commit_seconds +=
        seconds_between(start, SteadyClock::now());
    result_.phases.decode_seconds += folder_->decode_seconds();
    result_.phases.fold_seconds += folder_->fold_seconds();
    // Rank-ordered readback reproduces the flat fold's accumulation order,
    // so the history is bit-identical across shard counts.
    double divergence_total = 0.0;
    int divergence_count = 0;
    double norm_total = 0.0;
    for (std::size_t rank = 0; rank < static_cast<std::size_t>(folds_);
         ++rank) {
      if (folder_->has_divergence()[rank] != 0) {
        divergence_total += folder_->divergences()[rank];
        ++divergence_count;
      }
      norm_total += folder_->norms()[rank];
      window_.update_bytes_wire += folder_->wire_bytes()[rank];
      window_.update_bytes_f32 += folder_->f32_bytes()[rank];
      const std::uint8_t tag = folder_->codec_tags()[rank];
      if (tag < window_.codec_counts.size()) ++window_.codec_counts[tag];
    }
    ++commits_;
    consecutive_failures_ = 0;  // a commit is progress too
    window_.round = commits_ - 1;
    window_.participants = folds_;
    if (divergence_count > 0) {
      window_.mean_divergence =
          static_cast<float>(divergence_total / divergence_count);
    }
    if (folds_ > 0) {
      window_.mean_update_norm =
          static_cast<float>(norm_total / static_cast<double>(folds_));
      window_.staleness_mean =
          static_cast<float>(staleness_total_ / static_cast<double>(folds_));
    }
    if (!barrier_) window_.committed_version = commits_;
    // Router counters diffed over the window: retries re-sent and late
    // replies that surfaced during it are all included.
    const comm::TrafficStats traffic = router_.stats() - traffic_at_open_;
    window_.bytes_broadcast = traffic.broadcast_bytes;
    window_.bytes_collected = traffic.collected_bytes;
    window_.serializations = traffic.broadcast_serializations;
    result_.history.push_back(window_);
    log::debug() << algorithm_.name() << " commit " << commits_ << "/"
                 << config_.rounds << ": " << folds_ << " updates ("
                 << window_.failures << " failures, " << window_.timeouts
                 << " timeouts, " << window_.late_dropped
                 << " late-dropped, staleness mean " << window_.staleness_mean
                 << ")";
  }

  // Every request still in flight after the final commit gets its
  // guaranteed reply before the training stage ends, so no local_update
  // overlaps personalization. Slots left unresolved (async: outstanding,
  // or held/failed behind a straggler) are discarded, never folded into a
  // later version; their count is the unresolved window, which is
  // deterministic. A sync run has none: its final round resolved every
  // slot, and replies to cut requests change no counter here.
  void drain() {
    const int discarded = next_seq_ - front_;
    for (; awaiting_ > 0; --awaiting_) {
      CALIBRE_CHECK_MSG(router_.server_mailbox().pop().has_value(),
                        "server mailbox closed early");
    }
    if (!result_.history.empty()) {
      result_.history.back().late_dropped += discarded;
    }
  }

  Algorithm& algorithm_;
  const FedDataset& fed_;
  const FlConfig& config_;
  comm::Router& router_;
  nn::ModelState& state_;
  RunResult& result_;
  const bool barrier_;  // sync mode
  rng::Generator sampler_;
  std::unique_ptr<common::ThreadPool> fold_pool_;  // outlives folder_
  std::unique_ptr<ShardedFolder> folder_;

  // The slot table: a ring over the dispatch window [front_, next_seq_),
  // which never holds more than clients_per_round slots.
  std::vector<Slot> slots_;
  std::vector<int> live_seq_;  // client -> its unresolved seq, or -1
  int next_seq_ = 0;
  int front_ = 0;
  int awaiting_ = 0;  // requests (retries included) without a reply yet
  int commits_ = 0;
  int consecutive_failures_ = 0;

  comm::Payload snapshot_;  // the open window's broadcast
  std::shared_ptr<const nn::ModelState> snapshot_base_;

  // The open commit window.
  RoundStats window_;
  comm::TrafficStats traffic_at_open_;
  int folds_ = 0;
  int received_ = 0;  // accepted TrainResponses (folded or held)
  int quorum_ = 0;
  double staleness_total_ = 0.0;
  bool deadline_fired_ = false;
  SteadyClock::time_point deadline_;
};

}  // namespace

float staleness_weight(int staleness, float alpha) {
  CALIBRE_CHECK_MSG(staleness >= 0, "staleness must be >= 0");
  if (alpha == 0.0f || staleness == 0) return 1.0f;
  return static_cast<float>(
      1.0 / std::pow(1.0 + static_cast<double>(staleness),
                     static_cast<double>(alpha)));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (a + 1) +
                    0xbf58476d1ce4e5b9ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

RunResult run_federated(Algorithm& algorithm, const FedDataset& fed,
                        bool personalize_novel) {
  const FlConfig& config = algorithm.config();
  validate(config);
  CALIBRE_CHECK(fed.num_train_clients() > 0);
  CALIBRE_CHECK_MSG(config.clients_per_round <= fed.num_train_clients(),
                    "cannot sample " << config.clients_per_round << " of "
                                     << fed.num_train_clients() << " clients");
  const auto start_time = std::chrono::steady_clock::now();

  // Client-side update encoder: error-feedback residuals (ClientStore-backed,
  // so they survive re-selection gaps) plus the per-update codec chooser.
  // Declared before the router so in-flight handlers can never outlive it.
  UpdateEncoder update_encoder(config);

  comm::Router router(resolve_threads(config));
  configure_faults(config, router);

  // ONE generic device handler serves the whole population, parameterized
  // by the client id in Message::receiver — registration cost O(1) instead
  // of O(clients), and no per-client closures. The handler runs on the
  // device pool: materialise the client's shard and SSL pool, deserialize
  // global -> local update -> reply. Both live on the handler frame, so
  // per-shard memory is bounded by the pool's thread count, not the
  // population.
  router.register_default_handler([&](const comm::Message& request) {
    CALIBRE_CHECK(request.type == comm::MessageType::kTrainRequest);
    const int c = request.receiver;
    const nn::ModelState global =
        nn::ModelState::from_bytes(request.payload.bytes());
    const data::Dataset train = fed.train_shard(c);
    const tensor::Tensor ssl_pool = fed.client_ssl_pool(c);
    ClientContext ctx;
    ctx.client_id = c;
    ctx.round = request.round;
    ctx.train = &train;
    ctx.ssl_pool = &ssl_pool;
    ctx.oracle = fed.pool_is_latent ? &fed.oracle : nullptr;
    ctx.seed = derive_seed(config.seed,
                           static_cast<std::uint64_t>(request.round),
                           static_cast<std::uint64_t>(c));
    const ClientUpdate update = algorithm.local_update(global, ctx);

    comm::Message response;
    response.type = comm::MessageType::kTrainResponse;
    response.sender = c;
    response.receiver = comm::kServerEndpoint;
    response.round = request.round;
    // delta16/topk16 replies encode against the global exactly as this
    // client decoded it — the same reference the server derives from its own
    // broadcast snapshot, so both sides agree bit-for-bit.
    response.payload = comm::Payload(update_encoder.encode(update, &global, c));
    router.send(std::move(response));
  });

  // --- Training stage -------------------------------------------------------
  nn::ModelState state = algorithm.initialize();
  RunResult result;
  result.algorithm = algorithm.name();
  RoundEngine(algorithm, fed, router, state, result).run();

  // --- Personalization stage -------------------------------------------------
  personalize_clients(algorithm, state, fed, personalize_novel, result);

  result.traffic = router.stats();
  result.final_state = std::move(state);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return result;
}

void personalize_clients(Algorithm& algorithm, const nn::ModelState& state,
                         const FedDataset& fed, bool personalize_novel,
                         RunResult& result) {
  const FlConfig& config = algorithm.config();
  common::ThreadPool pool(resolve_threads(config));
  // `novel` switches both the shard accessors and the cap's sample stream;
  // ids are indices within the respective set. With personalize_cap set, a
  // seeded without-replacement sample of that size is evaluated instead of
  // the full sweep (the cap stream is independent of the round sampler, so
  // capping never perturbs training).
  auto personalize_set = [&](int count, bool novel, std::uint64_t salt,
                             int id_offset) {
    std::vector<int> ids;
    if (config.personalize_cap > 0 && count > config.personalize_cap) {
      rng::Generator cap_gen(derive_seed(config.seed, 0x9CA9, novel ? 1 : 0));
      ids = cap_gen.sample_without_replacement(count, config.personalize_cap);
      std::sort(ids.begin(), ids.end());
    } else {
      ids.resize(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) ids[static_cast<std::size_t>(i)] = i;
    }
    std::vector<std::future<double>> futures;
    futures.reserve(ids.size());
    for (const int id : ids) {
      futures.push_back(pool.submit([&, id] {
        const data::Dataset train =
            novel ? fed.novel_train_shard(id) : fed.train_shard(id);
        const data::Dataset test =
            novel ? fed.novel_test_shard(id) : fed.test_shard(id);
        PersonalizationContext ctx;
        ctx.client_id = id_offset + id;
        ctx.train = &train;
        ctx.test = &test;
        ctx.seed =
            derive_seed(config.seed, salt, static_cast<std::uint64_t>(id));
        return algorithm.personalize(state, ctx);
      }));
    }
    std::vector<double> accuracies;
    accuracies.reserve(futures.size());
    for (auto& future : futures) accuracies.push_back(future.get());
    return accuracies;
  };
  result.train_accuracies = personalize_set(fed.num_train_clients(),
                                            /*novel=*/false, 0xA11,
                                            /*id_offset=*/0);
  result.novel_accuracies.clear();
  if (personalize_novel && fed.num_novel_clients() > 0) {
    result.novel_accuracies =
        personalize_set(fed.num_novel_clients(), /*novel=*/true, 0xB22,
                        /*id_offset=*/fed.num_train_clients());
  }
}

}  // namespace calibre::fl
