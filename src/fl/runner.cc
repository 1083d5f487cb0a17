#include "fl/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>

#include "common/check.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "fl/shard_fold.h"
#include "fl/update_codec.h"
#include "tensor/pool.h"

namespace calibre::fl {
namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point from,
                       SteadyClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- The round engine -------------------------------------------------------
//
// Sync rounds and FedBuff-style async commits run through one loop. Every
// dispatch is a slot with a sequence number, and replies fold into the
// window's StreamingAggregator (through ShardedFolder) strictly in sequence
// order: the order in which dispatches finish depends on thread scheduling
// and float summation is order-sensitive, so the fold front waits on the
// future of the slot it reaches, a reply that finished earlier stays
// serialized (a refcounted payload handle, no decode), and the front
// decodes+folds a held slot — or skips a failed or timed-out one — only
// once every earlier slot resolved. Dispatches, commits and sampler
// draws all happen at front-advance time, so a run is a pure function of
// the seed: bit-identical across thread counts and shard counts.
//
// The two modes differ only in when a commit window closes and how slots
// are refilled:
//  * sync (a barrier per round): a window is one cohort, drawn without
//    replacement and dispatched when the window opens. It commits once every
//    slot resolved; a round deadline may resolve some of them as timeouts
//    first (see cut()).
//  * async: the server keeps `clients_per_round` dispatches in flight,
//    replacing each resolved slot with one rejection-sampled idle client,
//    and commits a new global version every `async_buffer_size` folds.
// Each fold is discounted by staleness_weight(commits - tag, alpha), where
// the tag is the commit count at dispatch. A sync slot always folds in the
// round it was dispatched in, so its staleness is 0 and its weight 1.
//
// Each slot owns the future of its dispatch, which runs every attempt the
// retry budget allows before it resolves. A client has at most one
// unresolved slot (async refills only idle clients; a sync round resolves
// every slot before it commits), so dispatches to one endpoint never
// overlap and the router's per-endpoint fault dice stay deterministic.
//
// Time is virtual (ms). A slot's outcome arrives at its send time plus the
// injected delays of its attempts; each retry leaves when the failure
// before it arrives. A sync window's dispatches go out when the window
// opens, and an async refill at the front's time: the running maximum of
// the resolved arrivals, in seq order. A commit happens at the front's time
// (or at the cut, see cut()), and the next window opens there. Nothing here
// reads a wall clock except the PhaseTimes counters, so a deadline run is a
// pure function of the seed too.
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
        live_seq_(static_cast<std::size_t>(fed.num_train_clients()), -1) {}

  // Runs `config.rounds` commits, then drains every dispatch still in
  // flight, so no local_update outlives the training stage.
  void run() {
    if (config_.rounds > 0) open_window();
    while (commits_ < config_.rounds) {
      advance_front();
      // The front stops short of a commit only at a deadline round's late
      // slot: the round then cuts.
      if (hold_after_ != kNever) cut();
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
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();

  struct Slot {
    int client = -1;
    int tag = 0;  // commit count at dispatch: the sync round / base version
    SlotState status = SlotState::kOutstanding;
    // Virtual ms: the send time while outstanding, then the outcome's
    // arrival.
    std::int64_t arrival = 0;
    // Arrivals of the failed attempts that bought a retry, oldest first.
    // A deadline cut credits only those at or before the cut.
    std::vector<std::int64_t> retried_at;
    // The broadcast as clients decode it: the reference delta16/topk16
    // replies decode against (null under f32). Shared because an async
    // slot can outlive the window that dispatched it.
    std::shared_ptr<const nn::ModelState> base;
    std::future<comm::Outcome> outcome;  // read once, by await()
    comm::Payload reply;                 // set when kHeld
    // The dispatch's traffic, credited to the window the slot resolves in.
    comm::TrafficStats traffic;
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
    folder_ = std::make_unique<ShardedFolder>(algorithm_, state_, commits_,
                                              config_.agg_shards);
    window_ = RoundStats{};
    folds_ = 0;
    staleness_total_ = 0.0;
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
    if (config_.round_deadline_ms > 0) {
      hold_after_ = now_ + config_.round_deadline_ms;
    }
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

  // Dispatches the open window's broadcast to `client` at the current
  // virtual time. Clients derive their seed from the tag, and the fault
  // injector's availability schedule keys on it (a device-class "period"
  // counts rounds in sync mode, versions in async mode).
  void dispatch(int client) {
    CALIBRE_CHECK_LT(next_seq_ - front_, static_cast<int>(slots_.size()),
                     "slot table overflow");
    const SteadyClock::time_point start = SteadyClock::now();
    Slot& fresh = slot(next_seq_);  // reset when its last use resolved
    fresh.client = client;
    fresh.tag = commits_;
    fresh.arrival = now_;
    fresh.base = snapshot_base_;
    fresh.outcome = router_.dispatch(client, commits_, snapshot_,
                                     config_.max_client_retries);
    live_seq_[static_cast<std::size_t>(client)] = next_seq_++;
    result_.phases.dispatch_seconds +=
        seconds_between(start, SteadyClock::now());
  }

  // Waits for an outstanding slot's outcome and places its attempts on the
  // virtual clock: each failed attempt's arrival is when its retry leaves.
  void await(Slot& pending) {
    if (pending.status != SlotState::kOutstanding) return;
    comm::Outcome outcome = pending.outcome.get();
    const std::vector<int>& delays = outcome.delays_ms;  // one per attempt
    for (std::size_t i = 0; i + 1 < delays.size(); ++i) {
      pending.arrival += delays[i];
      pending.retried_at.push_back(pending.arrival);
    }
    pending.arrival += delays.back();
    pending.traffic = outcome.traffic;
    if (outcome.ok) {
      pending.status = SlotState::kHeld;
      pending.reply = std::move(outcome.reply);
    } else {
      log::debug() << algorithm_.name() << " client " << pending.client
                   << " (tag " << pending.tag << ") failed: " << outcome.error;
      pending.status = SlotState::kFailed;
    }
  }

  // Resolves the slots at the front in seq order, waiting for each one's
  // outcome: folds held replies, commits when the window closes, and
  // refills. Stops at a slot that arrives after an uncut deadline (it may
  // yet time out), or at the final commit.
  void advance_front() {
    // Legit high-fault configs recover within tens of dispatches; only an
    // async configuration that can never fold (e.g. every class offline at
    // the current version, which no commit will ever advance) hits this.
    const int max_consecutive_failures =
        1000 + 50 * config_.clients_per_round;
    while (commits_ < config_.rounds && front_ < next_seq_) {
      Slot& resolved = slot(front_);
      await(resolved);
      if (resolved.arrival > hold_after_) return;
      ++front_;
      live_seq_[static_cast<std::size_t>(resolved.client)] = -1;
      // Failures, retries and traffic are attributed to the window in which
      // the slot RESOLVES: resolution order is deterministic, so every
      // history column is bit-identical across thread counts.
      const auto retries = static_cast<int>(resolved.retried_at.size());
      window_.retries += retries;
      window_.failures +=
          retries + (resolved.status == SlotState::kFailed ? 1 : 0);
      window_.bytes_broadcast += resolved.traffic.broadcast_bytes;
      window_.bytes_collected += resolved.traffic.collected_bytes;
      window_.serializations += resolved.traffic.broadcast_serializations;
      if (resolved.status != SlotState::kTimedOut) {
        now_ = std::max(now_, resolved.arrival);
      }
      if (resolved.status == SlotState::kHeld) {
        // Decodes and folds right here; the staleness weight multiplies
        // the decoded weight, and the folder keeps the update-content sums.
        const int staleness = commits_ - resolved.tag;
        folder_->submit(folds_, resolved.reply, resolved.base.get(),
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

  // Deadline cut, once every dispatch of the round has its final outcome:
  // the round closes at C = max(deadline, arrival of the quorum-th success),
  // or waits for every slot when fewer than the quorum succeed. A slot whose
  // outcome arrives after C is a timeout: its reply is discarded, and only
  // the retries its failures bought at or before C are credited. The round
  // then commits at C. Slots before the front all arrived by the deadline,
  // and every success among them has folded.
  void cut() {
    std::vector<std::int64_t> successes;
    for (int seq = front_; seq < next_seq_; ++seq) {
      await(slot(seq));
      if (slot(seq).status == SlotState::kHeld) {
        successes.push_back(slot(seq).arrival);
      }
    }
    std::int64_t close = kNever;
    const int missing = quorum_ - folds_;  // successes needed beyond the front
    if (missing <= 0) {
      close = hold_after_;
    } else if (missing <= static_cast<int>(successes.size())) {
      const auto quorum_th = successes.begin() + (missing - 1);
      std::nth_element(successes.begin(), quorum_th, successes.end());
      close = std::max(hold_after_, *quorum_th);
    }
    for (int seq = front_; seq < next_seq_; ++seq) {
      Slot& late = slot(seq);
      if (late.arrival <= close) continue;
      late.status = SlotState::kTimedOut;
      std::erase_if(late.retried_at,
                    [close](std::int64_t at) { return at > close; });
      ++window_.timeouts;
    }
    if (close != kNever) now_ = std::max(now_, close);
    hold_after_ = kNever;
  }

  // collect() merges the partials in ascending shard order; only the
  // merged root is ever finished. A window with no folds (a fully failed
  // sync round) keeps the state as-is rather than aggregating nothing.
  void commit() {
    const SteadyClock::time_point start = SteadyClock::now();
    hold_after_ = kNever;  // a round that met its deadline needs no cut
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
    const FoldSums& sums = folder_->sums();
    window_.update_bytes_wire = sums.wire_bytes;
    window_.update_bytes_f32 = sums.f32_bytes;
    window_.codec_counts = sums.codec_counts;
    ++commits_;
    consecutive_failures_ = 0;  // a commit is progress too
    window_.round = commits_ - 1;
    window_.participants = folds_;
    window_.virtual_ms = now_;
    if (sums.divergence_count > 0) {
      window_.mean_divergence =
          static_cast<float>(sums.divergence_total / sums.divergence_count);
    }
    if (folds_ > 0) {
      window_.mean_update_norm =
          static_cast<float>(sums.norm_total / static_cast<double>(folds_));
      window_.staleness_mean =
          static_cast<float>(staleness_total_ / static_cast<double>(folds_));
    }
    if (!barrier_) window_.committed_version = commits_;
    result_.history.push_back(window_);
    log::debug() << algorithm_.name() << " commit " << commits_ << "/"
                 << config_.rounds << ": " << folds_ << " updates ("
                 << window_.failures << " failures, " << window_.timeouts
                 << " timeouts, " << window_.late_dropped
                 << " late-dropped, staleness mean " << window_.staleness_mean
                 << ")";
  }

  // Every dispatch still in flight after the final commit resolves,
  // retries included, before the training stage ends, so no local_update
  // overlaps personalization. Slots left unresolved (async: outstanding,
  // or held/failed behind a straggler) are discarded, never folded into a
  // later version; their count is the unresolved window, which is
  // deterministic. A sync run has none: its final round resolved every
  // slot before it committed.
  void drain() {
    const int discarded = next_seq_ - front_;
    for (int seq = front_; seq < next_seq_; ++seq) await(slot(seq));
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
  std::unique_ptr<ShardedFolder> folder_;

  // The slot table: a ring over the dispatch window [front_, next_seq_),
  // which never holds more than clients_per_round slots.
  std::vector<Slot> slots_;
  std::vector<int> live_seq_;  // client -> its unresolved seq, or -1
  int next_seq_ = 0;
  int front_ = 0;
  int commits_ = 0;
  int consecutive_failures_ = 0;
  std::int64_t now_ = 0;  // the virtual clock (ms) at the front

  comm::Payload snapshot_;  // the open window's broadcast
  std::shared_ptr<const nn::ModelState> snapshot_base_;

  // The open commit window.
  RoundStats window_;
  int folds_ = 0;
  int quorum_ = 0;
  double staleness_total_ = 0.0;
  // A deadline round's deadline (virtual ms) until it commits or cuts: the
  // front holds any slot that arrives after it. kNever otherwise.
  std::int64_t hold_after_ = kNever;
};

}  // namespace

float staleness_weight(int staleness, float alpha) {
  CALIBRE_CHECK_MSG(staleness >= 0, "staleness must be >= 0");
  if (alpha == 0.0f || staleness == 0) return 1.0f;
  return static_cast<float>(
      1.0 / std::pow(1.0 + static_cast<double>(staleness),
                     static_cast<double>(alpha)));
}

// One profile per device class when configured (client c -> class
// c % num_classes), else the uniform fault knobs as the single profile. The
// fault stream seed is derived once, so sync and async runs over the same
// config see the same faults.
std::vector<comm::FaultConfig> fault_profiles(const FlConfig& config) {
  const std::uint64_t fault_seed = derive_seed(config.seed, 0xFA01, 0);
  std::vector<comm::FaultConfig> profiles;
  if (config.device_classes.empty()) {
    comm::FaultConfig fault;
    fault.failure_rate = config.fault_rate;
    fault.latency_ms = config.fault_latency_ms;
    fault.seed = fault_seed;
    profiles.push_back(fault);
  }
  for (const DeviceClass& device : config.device_classes) {
    comm::FaultConfig profile;
    profile.failure_rate = device.fault_rate;
    profile.latency_ms = device.fault_latency_ms;
    profile.seed = fault_seed;
    profile.duty_cycle = device.duty_cycle;
    profile.period_rounds = device.period_rounds;
    profiles.push_back(profile);
  }
  return profiles;
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
  const SteadyClock::time_point start_time = SteadyClock::now();

  // Client-side update encoder: error-feedback residuals (ClientStore-backed,
  // so they survive re-selection gaps) plus the per-update codec chooser.
  // Declared before the router so in-flight handlers can never outlive it.
  UpdateEncoder update_encoder(config);

  // ONE generic device handler serves the whole population, parameterized
  // by the client id — no per-client closures. The handler runs on the
  // device pool: materialise the client's shard and SSL pool, deserialize
  // global -> local update -> encoded reply. Both live on the handler frame,
  // so per-shard memory is bounded by the pool's thread count, not the
  // population.
  comm::Router router(
      resolve_threads(config),
      [&](int c, int round, const comm::Payload& request) {
        const nn::ModelState global =
            nn::ModelState::from_bytes(request.bytes());
        const data::Dataset train = fed.train_shard(c);
        const tensor::Tensor ssl_pool = fed.client_ssl_pool(c);
        ClientContext ctx;
        ctx.client_id = c;
        ctx.round = round;
        ctx.train = &train;
        ctx.ssl_pool = &ssl_pool;
        ctx.oracle = fed.pool_is_latent ? &fed.oracle : nullptr;
        ctx.seed = derive_seed(config.seed, static_cast<std::uint64_t>(round),
                               static_cast<std::uint64_t>(c));
        const ClientUpdate update = algorithm.local_update(global, ctx);
        // delta16/topk16 replies encode against the global exactly as this
        // client decoded it — the same reference the server derives from its
        // own broadcast snapshot, so both sides agree bit-for-bit.
        return comm::Payload(update_encoder.encode(update, &global, c));
      });
  router.set_fault_profiles(fault_profiles(config));

  // --- Training stage -------------------------------------------------------
  nn::ModelState state = algorithm.initialize();
  RunResult result;
  result.algorithm = algorithm.name();
  const SteadyClock::time_point train_start = SteadyClock::now();
  RoundEngine(algorithm, fed, router, state, result).run();
  // The server thread's spares (decoded replies, accumulators, past
  // globals) have no further use; the device threads drop theirs when the
  // router's pool exits.
  tensor::pool::release_spares();
  result.train_seconds = seconds_between(train_start, SteadyClock::now());

  // --- Personalization stage -------------------------------------------------
  personalize_clients(algorithm, state, fed, personalize_novel, result);

  result.traffic = router.stats();
  result.final_state = std::move(state);
  result.wall_seconds = seconds_between(start_time, SteadyClock::now());
  return result;
}

void personalize_clients(Algorithm& algorithm, const nn::ModelState& state,
                         const FedDataset& fed, bool personalize_novel,
                         RunResult& result) {
  const FlConfig& config = algorithm.config();
  // One client of the sweep: `id` indexes its set (participating or novel),
  // `index` its entry in the FedDataset's index lists.
  struct Evaluated {
    int id = 0;
    bool novel = false;
    std::size_t index = 0;
  };
  // `novel` switches the index offset, the id offset and the cap's sample
  // stream. With personalize_cap set, a seeded without-replacement sample of
  // that size is evaluated instead of the whole set (the cap stream is
  // independent of the round sampler, so capping never perturbs training).
  std::vector<Evaluated> evaluated;
  auto add_set = [&](int count, bool novel) {
    std::vector<int> ids;
    if (config.personalize_cap > 0 && count > config.personalize_cap) {
      rng::Generator cap_gen(derive_seed(config.seed, 0x9CA9, novel ? 1 : 0));
      ids = cap_gen.sample_without_replacement(count, config.personalize_cap);
      std::sort(ids.begin(), ids.end());
    } else {
      ids.resize(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) ids[static_cast<std::size_t>(i)] = i;
    }
    const int offset = novel ? fed.num_train_clients() : 0;
    for (const int id : ids) {
      evaluated.push_back({id, novel, static_cast<std::size_t>(offset + id)});
    }
  };
  add_set(fed.num_train_clients(), /*novel=*/false);
  if (personalize_novel && fed.num_novel_clients() > 0) {
    add_set(fed.num_novel_clients(), /*novel=*/true);
  }

  // The whole stage is one sweep, so an algorithm can share work between
  // clients that read the same rows of the base splits.
  PersonalizationSweep sweep;
  sweep.id = next_sweep_id();
  sweep.train = &fed.base_train;
  sweep.test = &fed.base_test;
  for (const Evaluated& e : evaluated) {
    sweep.client_ids.push_back(static_cast<int>(e.index));
    sweep.train_rows.push_back(fed.train_indices[e.index]);
    sweep.test_rows.push_back(fed.test_indices[e.index]);
  }

  common::ThreadPool pool(resolve_threads(config));
  std::vector<std::future<double>> futures;
  futures.reserve(evaluated.size());
  for (std::size_t position = 0; position < evaluated.size(); ++position) {
    futures.push_back(pool.submit([&, position] {
      const Evaluated& e = evaluated[position];
      const data::Dataset train =
          fed.base_train.subset(sweep.train_rows[position]);
      const data::Dataset test =
          fed.base_test.subset(sweep.test_rows[position]);
      PersonalizationContext ctx;
      ctx.client_id = sweep.client_ids[position];
      ctx.train = &train;
      ctx.test = &test;
      ctx.seed = derive_seed(config.seed, e.novel ? 0xB22 : 0xA11,
                             static_cast<std::uint64_t>(e.id));
      ctx.sweep = &sweep;
      ctx.sweep_position = static_cast<int>(position);
      return algorithm.personalize(state, ctx);
    }));
  }
  result.train_accuracies.clear();
  result.novel_accuracies.clear();
  for (std::size_t position = 0; position < futures.size(); ++position) {
    const double accuracy = futures[position].get();
    (evaluated[position].novel ? result.novel_accuracies
                               : result.train_accuracies)
        .push_back(accuracy);
  }
}

}  // namespace calibre::fl
