// bench_e2e — the end-to-end benchmark: whole federations, timed from
// outside the library.
//
// Four fixed workloads (README.md says why each exists). One invocation
// measures one workload: a discarded warm-up federation, then timed
// federations until --seconds have passed and at least eight have run,
// cycling through eight inputs derived from --seed. Every federation runs in
// its own forked process, so CPU time and peak RSS belong to that federation
// alone. The run prints each metric with its value, quartiles and sample
// count, checks the outputs, and ends with one JSON line of results. With
// --trace 1 it alternates untraced and traced federations; a traced one runs
// the algorithm inside TimedAlgorithm (timed.h) and reports the per-layer
// breakdown instead of the end-to-end metrics.
//
//   bench_e2e --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//   bench_e2e --all [--seed S] [--seconds T] [--out FILE]
//   bench_e2e --compare BASELINE.json --spec BENCHMARK.json [--seed S]
//             [--seconds T] [--out FILE]
//   bench_e2e --smoke --spec BENCHMARK.json
//   bench_e2e --self-test
//
// The checks (exit 1 when any fails): every federation folds exactly its
// budget (rounds x cohort in sync, rounds x buffer in async); all
// federations of one input, traced or not, end in the same final-state hash
// and the same per-client accuracies; and a traced federation's top-level
// spans (setup, training stage, personalization stage) add up to its wall
// time within 5%.
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algos/registry.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fed_data.h"
#include "fl/runner.h"
#include "json.h"
#include "metrics/fairness.h"
#include "stats.h"
#include "timed.h"

extern char** environ;

namespace calibre::bench {
namespace {

// ---------------------------------------------------------------------------
// Metrics

struct MetricDef {
  const char* name;
  const char* unit;
  Better better;
  // A pure function of the federation's input (bytes, counts, accuracies):
  // reported as the mean over a run's inputs, not a median over timings.
  bool exact = false;
};

// End-to-end metrics: what a user of a federation sees. Their bounds live
// in BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s", Better::kLower, false},
    {"updates_per_s", "1/s", Better::kHigher, false},
    {"wall_s", "s", Better::kLower, false},
    {"cpu_s", "s", Better::kLower, false},
    {"peak_rss_mb", "MB", Better::kLower, false},
    {"wire_mb_per_update", "MB", Better::kLower, true},
    {"attempts_per_update", "ratio", Better::kLower, true},
    {"mean_acc", "frac", Better::kHigher, true},
    {"worst10_acc", "frac", Better::kHigher, true},
    {"acc_std", "frac", Better::kLower, true},
    {"novel_acc", "frac", Better::kHigher, true},
};

// Per-layer metrics of a traced federation, grouped by the module that does
// the work; each is the median over traced federations.
const MetricDef kLayers[] = {
    // data / fl.fed_data: the set-up stage.
    {"data.synth_s", "s", Better::kLower},
    {"data.partition_s", "s", Better::kLower},
    {"fl.fed_data_build_s", "s", Better::kLower},
    {"algos.make_s", "s", Better::kLower},
    // algos client compute (tensor / autograd / nn / ssl / core beneath).
    {"algos.initialize.wall_s", "s", Better::kLower},
    {"algos.local_update.count", "count", Better::kLower},
    {"algos.local_update.wall_s", "s", Better::kLower},
    {"algos.local_update.cpu_s", "s", Better::kLower},
    {"algos.local_update.p50_ms", "ms", Better::kLower},
    {"algos.local_update.tail_ms", "ms", Better::kLower},
    {"tensor.pool.misses_per_update", "count", Better::kLower},
    {"tensor.pool.hit_frac", "frac", Better::kHigher},
    {"fl.device_busy_frac", "frac", Better::kHigher},
    // flapi aggregation.
    {"flapi.fold.count", "count", Better::kLower},
    {"flapi.fold.wall_s", "s", Better::kLower},
    {"flapi.fold.ns_per_param", "ns", Better::kLower},
    {"flapi.fold.p50_ms", "ms", Better::kLower},
    {"flapi.fold.tail_ms", "ms", Better::kLower},
    {"flapi.finish.wall_s", "s", Better::kLower},
    {"flapi.merge.count", "count", Better::kLower},
    {"flapi.merge_finish.wall_s", "s", Better::kLower},
    // fl runner: the server side of the training stage.
    {"fl.train_stage_s", "s", Better::kLower},
    {"fl.dispatch_s", "s", Better::kLower},
    {"fl.decode_s", "s", Better::kLower},
    {"fl.fold_s", "s", Better::kLower},
    {"fl.commit_s", "s", Better::kLower},
    {"fl.server_wait_s", "s", Better::kLower},
    {"fl.personalize_stage_s", "s", Better::kLower},
    {"fl.staleness_mean", "versions", Better::kLower},
    // algos personalization.
    {"algos.personalize.count", "count", Better::kLower},
    {"algos.personalize.wall_s", "s", Better::kLower},
    {"algos.personalize.p50_ms", "ms", Better::kLower},
    // comm.
    {"comm.messages", "count", Better::kLower},
    {"comm.update_wire_mb", "MB", Better::kLower},
    {"comm.compression_ratio", "ratio", Better::kHigher},
    {"comm.broadcast_mb", "MB", Better::kLower},
    {"comm.broadcast_serializations", "count", Better::kLower},
    {"comm.failures", "count", Better::kLower},
    {"comm.retries", "count", Better::kLower},
    {"comm.late_dropped", "count", Better::kLower},
    // The trace itself.
    {"trace.residual_frac", "frac", Better::kLower},
    {"trace.overhead_frac", "frac", Better::kLower},
};

// Share of a traced federation's wall time the top-level spans may leave
// unattributed.
constexpr double kMaxResidual = 0.05;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::string method;
  double dirichlet_alpha = 0.0;  // 0 = IID partition
  int train_clients = 0;
  int novel_clients = 0;
  int samples = 0;
  int test_samples = 0;
  std::vector<std::int64_t> hidden_dims;  // empty = the default encoder
  std::int64_t feature_dim = 0;
  int clients_per_round = 0;
  int local_epochs = 1;
  int rounds = 0;  // commits in async mode
  int personalize_cap = 0;
  bool async_mode = false;
  int buffer = 8;
  float staleness_alpha = 0.5f;
  comm::Codec codec = comm::Codec::kF32;
  int agg_shards = 1;
  float fault_rate = 0.0f;
  int retries = 0;
};

// Device threads of every federation: one core of a 4-core box stays free
// for the server thread.
constexpr int kDeviceThreads = 3;

std::vector<Workload> workloads() {
  std::vector<Workload> all;

  Workload calibre;
  calibre.name = "calibre_cifar10";
  calibre.method = "Calibre (SimCLR)";
  calibre.dirichlet_alpha = 0.3;
  calibre.train_clients = 100;
  calibre.novel_clients = 20;
  calibre.samples = 200;
  calibre.test_samples = 100;
  calibre.clients_per_round = 10;
  calibre.local_epochs = 3;
  calibre.rounds = 16;
  all.push_back(calibre);

  Workload population;
  population.name = "fedavg_100k";
  population.method = "FedAvg";
  population.train_clients = 100000;
  population.novel_clients = 1000;
  population.samples = 100;
  population.test_samples = 50;
  population.clients_per_round = 32;
  population.rounds = 40;
  population.personalize_cap = 512;
  all.push_back(population);

  Workload wide;
  wide.name = "wide_sync_f32";
  // Personalized by the paper's linear probe on frozen features: FedAvg's
  // global classifier is still near chance after this few rounds, which
  // would leave the accuracy metrics measuring noise.
  wide.method = "pFL-SimCLR";
  wide.dirichlet_alpha = 0.3;
  wide.train_clients = 128;
  wide.novel_clients = 48;
  wide.samples = 32;
  wide.test_samples = 64;
  wide.hidden_dims = {1024, 1024};
  wide.feature_dim = 256;
  wide.clients_per_round = 8;
  wide.rounds = 6;
  all.push_back(wide);

  Workload wide_async = wide;
  wide_async.name = "wide_async_topk16";
  wide_async.async_mode = true;
  wide_async.buffer = 8;
  wide_async.staleness_alpha = 0.5f;
  wide_async.codec = comm::Codec::kTopK16;
  wide_async.agg_shards = 2;
  wide_async.fault_rate = 0.05f;
  wide_async.retries = 1;
  wide_async.rounds = 8;
  all.push_back(wide_async);
  return all;
}

// The same workload at CI scale: every code path it takes (eager or
// virtual clients, async, codec, shards, faults) is kept; only the sizes
// shrink.
Workload tiny(Workload w) {
  w.train_clients = std::min(w.train_clients, 1000);
  w.novel_clients = std::min(w.novel_clients, 8);
  w.samples = std::min(w.samples, 32);
  w.test_samples = std::min(w.test_samples, 16);
  w.clients_per_round = std::min(w.clients_per_round, 8);
  w.local_epochs = 1;
  w.rounds = std::min(w.rounds, 3);
  w.personalize_cap = 8;
  if (!w.hidden_dims.empty()) {
    w.hidden_dims = {64, 64};
    w.feature_dim = 32;
  }
  return w;
}

// Folds a federation must land: rounds x cohort (sync) or rounds x buffer.
int expected_folds(const Workload& w) {
  return w.rounds * (w.async_mode ? w.buffer : w.clients_per_round);
}

// ---------------------------------------------------------------------------
// One federation

// Salts that derive every random stream of a federation from --seed.
constexpr std::uint64_t kPartitionSalt = 0xB0;
constexpr std::uint64_t kFedDataSalt = 0xB1;
constexpr std::uint64_t kFlSalt = 0xB2;

struct Inputs {
  data::SyntheticDataset synth;
  fl::FedDataset fed;
  fl::FlConfig config;
  double synth_s = 0.0;
  double partition_s = 0.0;
  double fed_build_s = 0.0;
};

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

Inputs build_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  SteadyClock::time_point lap = SteadyClock::now();
  in.synth = data::make_synthetic(data::preset_by_name("cifar10"));
  in.synth_s = seconds_since(lap);

  lap = SteadyClock::now();
  data::PartitionConfig partition_config;
  partition_config.num_clients = w.train_clients + w.novel_clients;
  partition_config.samples_per_client = w.samples;
  partition_config.test_samples_per_client = w.test_samples;
  rng::Generator partition_gen(fl::derive_seed(seed, kPartitionSalt, 0));
  const data::Partition partition =
      w.dirichlet_alpha > 0.0
          ? data::partition_dirichlet(in.synth.train, in.synth.test,
                                      partition_config, w.dirichlet_alpha,
                                      partition_gen)
          : data::partition_iid(in.synth.train, in.synth.test,
                                partition_config, partition_gen);
  in.partition_s = seconds_since(lap);

  lap = SteadyClock::now();
  rng::Generator fed_gen(fl::derive_seed(seed, kFedDataSalt, 0));
  // Virtual clients from 1000 up, as calibre_cli chooses.
  in.fed = partition_config.num_clients >= 1000
               ? fl::build_virtual_fed_dataset(in.synth, partition,
                                               w.train_clients, fed_gen)
               : fl::build_fed_dataset(in.synth, partition, w.train_clients,
                                       fed_gen);
  in.fed_build_s = seconds_since(lap);

  fl::FlConfig& c = in.config;
  c.encoder.input_dim = in.synth.train.input_dim();
  if (!w.hidden_dims.empty()) {
    c.encoder.hidden_dims = w.hidden_dims;
    c.encoder.feature_dim = w.feature_dim;
  }
  c.num_classes = in.synth.train.num_classes;
  c.rounds = w.rounds;
  c.clients_per_round = w.clients_per_round;
  c.local_epochs = w.local_epochs;
  // The SSL learning rate the paper-reproduction benches use.
  c.ssl_opt.learning_rate = 0.05f;
  c.personalize_cap = w.personalize_cap;
  c.async_mode = w.async_mode;
  c.async_buffer_size = w.buffer;
  c.staleness_alpha = w.staleness_alpha;
  c.wire_codec = w.codec;
  c.agg_shards = w.agg_shards;
  c.fault_rate = w.fault_rate;
  c.max_client_retries = w.retries;
  c.seed = fl::derive_seed(seed, kFlSalt, 0);
  c.threads = kDeviceThreads;
  c.num_train_clients = w.train_clients;
  return in;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string state_hash(const fl::RunResult& result) {
  const std::vector<float>& v = result.final_state.values();
  return hex(fnv1a(v.data(), v.size() * sizeof(float)));
}

std::string accuracy_hash(const fl::RunResult& result) {
  std::uint64_t h = fnv1a(result.train_accuracies.data(),
                          result.train_accuracies.size() * sizeof(double));
  h = fnv1a(result.novel_accuracies.data(),
            result.novel_accuracies.size() * sizeof(double), h);
  return hex(h);
}

using Values = std::map<std::string, double>;

// What one federation reports back to the measuring process.
struct Rep {
  Values values;
  std::string state_hash;
  std::string accuracy_hash;
};

double mean_of(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

// Records count, summed wall/CPU, median and tail of one call kind. The tail
// percentile and sample count go along under ".tail_pct" / ".count" for the
// printed table.
void add_call_stats(const CallLog& log, Call call, const std::string& prefix,
                    Values& v) {
  const std::vector<CallTime> times = log.times(call);
  std::vector<double> wall_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  for (const CallTime& t : times) {
    wall_ms.push_back(t.wall_s * 1e3);
    wall_s += t.wall_s;
    cpu_s += t.cpu_s;
  }
  std::sort(wall_ms.begin(), wall_ms.end());
  v[prefix + ".count"] = static_cast<double>(times.size());
  v[prefix + ".wall_s"] = wall_s;
  v[prefix + ".cpu_s"] = cpu_s;
  const int tail = tail_percentile(times.size());
  v[prefix + ".tail_pct"] = tail;
  v[prefix + ".p50_ms"] = wall_ms.empty() ? 0.0 : percentile(wall_ms, 50);
  v[prefix + ".tail_ms"] = wall_ms.empty() ? 0.0 : percentile(wall_ms, tail);
}

Rep run_federation(const Workload& w, std::uint64_t seed, bool traced) {
  const SteadyClock::time_point start = SteadyClock::now();
  const Inputs in = build_inputs(w, seed);
  const SteadyClock::time_point make_start = SteadyClock::now();
  const std::unique_ptr<fl::Algorithm> algorithm =
      algos::make_algorithm(w.method, in.config);
  const double make_s = seconds_since(make_start);

  CallLog log;
  TimedAlgorithm timed(*algorithm, traced ? &log : nullptr);
  const SteadyClock::time_point run_start = SteadyClock::now();
  const fl::RunResult result =
      fl::run_federated(timed, in.fed, /*personalize_novel=*/true);
  const SteadyClock::time_point run_end = SteadyClock::now();
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  CALIBRE_CHECK_MSG(timed.personalize_start().has_value(),
                    "federation personalized no client");
  const SteadyClock::time_point stage_boundary = *timed.personalize_start();

  Rep rep;
  rep.state_hash = state_hash(result);
  rep.accuracy_hash = accuracy_hash(result);
  Values& v = rep.values;

  int folds = 0;
  int failures = 0;
  int retries = 0;
  int timeouts = 0;
  int late_dropped = 0;
  double wire_bytes = 0.0;
  double f32_bytes = 0.0;
  double broadcast_bytes = 0.0;
  double staleness = 0.0;
  for (const fl::RoundStats& r : result.history) {
    folds += r.participants;
    failures += r.failures;
    retries += r.retries;
    timeouts += r.timeouts;
    late_dropped += r.late_dropped;
    wire_bytes += static_cast<double>(r.update_bytes_wire);
    f32_bytes += static_cast<double>(r.update_bytes_f32);
    broadcast_bytes += static_cast<double>(r.bytes_broadcast);
    staleness += r.staleness_mean;
  }
  CALIBRE_CHECK_MSG(folds > 0, "federation folded no update");
  // Dispatches that did not become a folded update: failed attempts
  // (retried or not), deadline stragglers in sync mode, and the in-flight
  // window async discards after its last commit.
  const int wasted = failures + timeouts + (w.async_mode ? late_dropped : 0);
  const double train_stage_s =
      std::chrono::duration<double>(stage_boundary - run_start).count();
  const double rusage_cpu =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                 usage.ru_stime.tv_usec);
  const metrics::FairnessReport fairness =
      metrics::compute_fairness(result.train_accuracies);

  v["folds"] = folds;
  v["expected_folds"] = expected_folds(w);
  v["data.synth_s"] = in.synth_s;
  v["data.partition_s"] = in.partition_s;
  v["fl.fed_data_build_s"] = in.fed_build_s;
  v["algos.make_s"] = make_s;
  v["setup_s"] = in.synth_s + in.partition_s + in.fed_build_s + make_s;
  v["wall_s"] = std::chrono::duration<double>(run_end - start).count();
  v["updates_per_s"] = folds / train_stage_s;
  v["cpu_s"] = rusage_cpu;
  v["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
  v["wire_mb_per_update"] = wire_bytes / folds / 1e6;
  v["attempts_per_update"] = static_cast<double>(folds + wasted) / folds;
  v["mean_acc"] = mean_of(result.train_accuracies);
  v["worst10_acc"] = fairness.worst_decile_mean;
  v["acc_std"] = fairness.stddev;
  v["novel_acc"] = mean_of(result.novel_accuracies);
  if (!traced) return rep;

  // --- per-layer breakdown -------------------------------------------------
  const double personalize_stage_s =
      std::chrono::duration<double>(run_end - stage_boundary).count();
  v["fl.train_stage_s"] = train_stage_s;
  v["fl.personalize_stage_s"] = personalize_stage_s;
  v["trace.residual_frac"] =
      (v["wall_s"] - v["setup_s"] - train_stage_s - personalize_stage_s) /
      v["wall_s"];

  const std::vector<CallTime> init = log.times(Call::kInitialize);
  v["algos.initialize.wall_s"] = init.empty() ? 0.0 : init.front().wall_s;
  add_call_stats(log, Call::kLocalUpdate, "algos.local_update", v);
  add_call_stats(log, Call::kFold, "flapi.fold", v);
  add_call_stats(log, Call::kPersonalize, "algos.personalize", v);
  const double updates = v["algos.local_update.count"];
  const double hits = static_cast<double>(log.pool_hits());
  const double misses = static_cast<double>(log.pool_misses());
  v["tensor.pool.misses_per_update"] = updates > 0 ? misses / updates : 0.0;
  v["tensor.pool.hit_frac"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  v["fl.device_busy_frac"] = v["algos.local_update.wall_s"] /
                             (kDeviceThreads * train_stage_s);
  const double params = static_cast<double>(result.final_state.size());
  v["flapi.fold.ns_per_param"] =
      v["flapi.fold.wall_s"] * 1e9 / (v["flapi.fold.count"] * params);
  double finish_s = 0.0;
  for (const CallTime& t : log.times(Call::kFinish)) finish_s += t.wall_s;
  double merge_s = 0.0;
  const std::vector<CallTime> merges = log.times(Call::kMerge);
  for (const CallTime& t : merges) merge_s += t.wall_s;
  v["flapi.finish.wall_s"] = finish_s;
  v["flapi.merge.count"] = static_cast<double>(merges.size());
  v["flapi.merge_finish.wall_s"] = merge_s + finish_s;

  const fl::PhaseTimes& phases = result.phases;
  v["fl.dispatch_s"] = phases.dispatch_seconds;
  v["fl.decode_s"] = phases.decode_seconds;
  v["fl.fold_s"] = phases.fold_seconds;
  v["fl.commit_s"] = phases.commit_seconds;
  // The server thread's idle time in the training stage. With shards the
  // decode and fold run on shard workers, so only dispatch and commit are
  // server-thread work.
  const double server_busy =
      phases.dispatch_seconds + phases.commit_seconds +
      (w.agg_shards > 1 ? 0.0
                        : phases.decode_seconds + phases.fold_seconds);
  v["fl.server_wait_s"] = train_stage_s - server_busy;
  v["fl.staleness_mean"] =
      staleness / static_cast<double>(result.history.size());

  v["comm.messages"] = static_cast<double>(result.traffic.messages);
  v["comm.update_wire_mb"] = wire_bytes / 1e6;
  v["comm.compression_ratio"] = f32_bytes / wire_bytes;
  v["comm.broadcast_mb"] = broadcast_bytes / 1e6;
  v["comm.broadcast_serializations"] =
      static_cast<double>(result.traffic.broadcast_serializations);
  v["comm.failures"] = failures;
  v["comm.retries"] = retries;
  v["comm.late_dropped"] = late_dropped;
  return rep;
}

// ---------------------------------------------------------------------------
// Fork plumbing

// A run stops starting federations once one more would likely end past the
// first limit and kills one still running at the second, so it always ends
// well inside three minutes. A killed federation counts as failed.
constexpr double kStartLimitSeconds = 150.0;
constexpr double kKillLimitSeconds = 170.0;

std::string serialize(const Rep& rep) {
  std::string text = "state_hash " + rep.state_hash + "\n" +
                     "accuracy_hash " + rep.accuracy_hash + "\n";
  char line[160];
  for (const auto& [key, value] : rep.values) {
    std::snprintf(line, sizeof(line), "value %s %.17g\n", key.c_str(), value);
    text += line;
  }
  return text;
}

bool deserialize(const std::string& text, Rep* rep) {
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) return false;
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    char kind[32] = {};
    char key[96] = {};
    double value = 0.0;
    if (std::sscanf(line.c_str(), "value %95s %lf", key, &value) == 2) {
      rep->values[key] = value;
    } else if (std::sscanf(line.c_str(), "%31s %95s", kind, key) == 2) {
      if (std::strcmp(kind, "state_hash") == 0) {
        rep->state_hash = key;
      } else if (std::strcmp(kind, "accuracy_hash") == 0) {
        rep->accuracy_hash = key;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return !rep->state_hash.empty() && !rep->accuracy_hash.empty();
}

// Runs one federation in a forked child and reads its Rep back through a
// pipe. The child is killed if it is still running at `kill_at`, and always
// reaped before this returns.
bool run_forked(const Workload& w, std::uint64_t seed, bool traced,
                SteadyClock::time_point kill_at, Rep* out,
                std::string* error) {
  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string text;
    try {
      text = serialize(run_federation(w, seed, traced));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[e2e] %s: %s\n", w.name.c_str(), e.what());
      code = 3;
    }
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = write(fds[1], text.data() + sent, text.size() - sent);
      if (n <= 0) {
        code = 4;
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::fflush(stderr);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  bool timed_out = false;
  char buffer[4096];
  while (true) {
    const double left =
        std::chrono::duration<double>(kill_at - SteadyClock::now()).count();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
  }
  if (timed_out) kill(pid, SIGKILL);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out) {
    *error = "federation killed at the run's time limit";
    return false;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "federation process failed (status " + std::to_string(status) +
             ")";
    return false;
  }
  Rep rep;
  if (!deserialize(text, &rep)) {
    *error = "unreadable federation report";
    return false;
  }
  *out = std::move(rep);
  return true;
}

// ---------------------------------------------------------------------------
// Measuring a workload

// The federations of one run cycle through this many inputs derived from
// --seed: federation i measures input i % kInputs. Exact metrics are the
// mean over the inputs, because one partition alone moves accuracy and
// fairness too far from seed to seed to bound a regression; timings are the
// median over every federation.
constexpr int kInputs = 8;
constexpr std::uint64_t kInputSalt = 0xB3;

struct Plan {
  double seconds = 0.0;  // keep starting federations until this has passed
  int min_reps = kInputs;  // ... and at least this many untraced ones
  bool warm_up = true;     // one discarded federation first
  bool interleave_traced = false;  // a traced federation after each untraced
  int extra_traced = 0;  // traced federations after the untraced ones
};

struct Measurement {
  Workload workload;
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::map<int, Rep> first_of_input;  // what later federations must match
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;  // failed checks, in order
};

void check_rep(Measurement& m, int input, const Rep& rep, bool traced) {
  const std::string who = m.workload.name + " input " +
                          std::to_string(input) +
                          (traced ? " (traced)" : "") + ": ";
  bool ok = true;
  const auto fail = [&](const std::string& what) {
    m.errors.push_back(who + what);
    ok = false;
  };
  if (rep.values.at("folds") != rep.values.at("expected_folds")) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer), "folded %.0f updates, budget %.0f",
                  rep.values.at("folds"), rep.values.at("expected_folds"));
    fail(buffer);
  }
  const auto [it, first] = m.first_of_input.emplace(input, rep);
  if (!first) {
    const Rep& want = it->second;
    if (rep.state_hash != want.state_hash) {
      fail("final-state hash " + rep.state_hash + " != " + want.state_hash);
    }
    if (rep.accuracy_hash != want.accuracy_hash) {
      fail("per-client accuracies differ between repetitions");
    }
    for (const MetricDef& def : kEndToEnd) {
      if (def.exact && rep.values.at(def.name) != want.values.at(def.name)) {
        fail(std::string(def.name) + " differs between repetitions");
      }
    }
  }
  if (traced &&
      std::fabs(rep.values.at("trace.residual_frac")) > kMaxResidual) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "top-level spans leave %.1f%% of wall time unattributed",
                  100.0 * rep.values.at("trace.residual_frac"));
    fail(buffer);
  }
  if (!ok) ++m.failed;
}

Measurement measure(const Workload& w, std::uint64_t seed, const Plan& plan) {
  Measurement m;
  m.workload = w;
  const SteadyClock::time_point start = SteadyClock::now();
  const SteadyClock::time_point kill_at =
      start + std::chrono::duration_cast<SteadyClock::duration>(
                  std::chrono::duration<double>(kKillLimitSeconds));
  double slowest = 0.0;
  const auto run = [&](int input, bool traced, std::vector<Rep>* into) {
    const SteadyClock::time_point rep_start = SteadyClock::now();
    Rep rep;
    std::string error;
    ++m.attempted;
    if (!run_forked(w, fl::derive_seed(seed, kInputSalt, input), traced,
                    kill_at, &rep, &error)) {
      ++m.failed;
      m.errors.push_back(w.name + " input " + std::to_string(input) + ": " +
                         error);
      return false;
    }
    slowest = std::max(slowest, seconds_since(rep_start));
    check_rep(m, input, rep, traced);
    if (into != nullptr) into->push_back(std::move(rep));
    return true;
  };
  if (plan.warm_up && !run(0, false, nullptr)) return m;
  for (int i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if (i >= plan.min_reps && elapsed >= plan.seconds) break;
    if (elapsed + slowest * (plan.interleave_traced ? 2 : 1) >
        kStartLimitSeconds) {
      break;
    }
    if (!run(i % kInputs, false, &m.untraced)) return m;
    if (plan.interleave_traced && !run(i % kInputs, true, &m.traced)) return m;
  }
  for (int i = 0; i < plan.extra_traced; ++i) {
    if (!run(i % kInputs, true, &m.traced)) return m;
  }
  return m;
}

std::vector<double> samples_of(const std::vector<Rep>& reps,
                               const std::string& key) {
  std::vector<double> samples;
  for (const Rep& rep : reps) samples.push_back(rep.values.at(key));
  return samples;
}

// Samples of an end-to-end metric: one per input for exact metrics, one per
// untraced federation for the rest.
std::vector<double> metric_samples(const Measurement& m, const MetricDef& def) {
  if (!def.exact) return samples_of(m.untraced, def.name);
  std::vector<double> samples;
  for (const auto& [input, rep] : m.first_of_input) {
    samples.push_back(rep.values.at(def.name));
  }
  return samples;
}

double metric_value(const Measurement& m, const MetricDef& def) {
  const std::vector<double> samples = metric_samples(m, def);
  return def.exact ? mean_of(samples) : summarize(samples).median;
}

// What --compare sets against a baseline: every federation's timing, or the
// one exact value (it has no run-to-run noise to summarize).
std::vector<double> compared_samples(const Measurement& m,
                                     const MetricDef& def) {
  if (def.exact) return {metric_value(m, def)};
  return samples_of(m.untraced, def.name);
}

// Fills trace.overhead_frac into every traced rep: its wall time against
// the median untraced wall time.
void add_trace_overhead(Measurement& m) {
  if (m.untraced.empty()) return;
  const double untraced_wall =
      summarize(samples_of(m.untraced, "wall_s")).median;
  for (Rep& rep : m.traced) {
    rep.values["trace.overhead_frac"] =
        rep.values.at("wall_s") / untraced_wall - 1.0;
  }
}

// ---------------------------------------------------------------------------
// Reporting

void print_end_to_end(const Measurement& m) {
  std::printf(
      "[e2e] %s: %zu untraced federations over %zu inputs (timings: median "
      "over federations; exact metrics: mean over inputs)\n",
      m.workload.name.c_str(), m.untraced.size(), m.first_of_input.size());
  std::printf("  %-22s %14s %14s %14s %4s  %s\n", "metric", "value", "q1",
              "q3", "n", "unit");
  for (const MetricDef& def : kEndToEnd) {
    const Summary s = summarize(metric_samples(m, def));
    std::printf("  %-22s %14.6g %14.6g %14.6g %4zu  %s%s\n", def.name,
                metric_value(m, def), s.q1, s.q3, s.n, def.unit,
                def.exact ? " (exact)" : "");
  }
}

void print_layers(const Measurement& m) {
  std::printf("[e2e] %s: per-layer breakdown over %zu traced federations\n",
              m.workload.name.c_str(), m.traced.size());
  std::printf("  %-32s %14s %14s %14s  %s\n", "layer metric", "median", "q1",
              "q3", "unit");
  const Rep& first = m.traced.front();
  for (const MetricDef& def : kLayers) {
    const std::string name = def.name;
    const Summary s = summarize(samples_of(m.traced, name));
    std::string note;
    const std::string tail = ".tail_ms";
    if (name.size() > tail.size() &&
        name.compare(name.size() - tail.size(), tail.size(), tail) == 0) {
      const std::string prefix = name.substr(0, name.size() - tail.size());
      note = "  p" +
             std::to_string(
                 static_cast<int>(first.values.at(prefix + ".tail_pct"))) +
             " of n=" +
             std::to_string(
                 static_cast<long long>(first.values.at(prefix + ".count")));
    }
    std::printf("  %-32s %14.6g %14.6g %14.6g  %s%s\n", def.name, s.median,
                s.q1, s.q3, def.unit, note.c_str());
  }
  std::printf(
      "  spans of the first: setup %.4f s + training %.4f s + "
      "personalization %.4f s vs wall %.4f s (residual %+.2f%%)\n",
      first.values.at("setup_s"), first.values.at("fl.train_stage_s"),
      first.values.at("fl.personalize_stage_s"), first.values.at("wall_s"),
      100.0 * first.values.at("trace.residual_frac"));
}

void print_errors(const Measurement& m) {
  for (const std::string& e : m.errors) {
    std::fprintf(stderr, "[e2e] CHECK FAILED: %s\n", e.c_str());
  }
}

// The closing line: {"correct", "attempted", "failed", "metrics"}.
void print_result_line(const Measurement& m, bool per_layer) {
  const bool correct = m.errors.empty() && !m.untraced.empty() &&
                       (!per_layer || !m.traced.empty());
  std::string metrics;
  char item[256];
  const auto add = [&](const char* name, const char* unit, double value) {
    std::snprintf(item, sizeof(item),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, value, unit);
    metrics += item;
  };
  if (per_layer) {
    for (const MetricDef& def : kLayers) {
      add(def.name, def.unit,
          m.traced.empty() ? 0.0
                           : summarize(samples_of(m.traced, def.name)).median);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      add(def.name, def.unit, m.untraced.empty() ? 0.0 : metric_value(m, def));
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", m.attempted, m.failed, metrics.c_str());
}

// ---------------------------------------------------------------------------
// Modes

const Workload* find_workload(const std::vector<Workload>& all,
                              const std::string& name) {
  for (const Workload& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
};

int run_one(const Options& options) {
  const std::vector<Workload> all = workloads();
  const Workload* w = find_workload(all, options.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 1;
  }
  Plan plan;
  plan.seconds = options.seconds;
  plan.interleave_traced = options.trace;
  // Per-layer numbers need fewer inputs than the exact end-to-end metrics.
  if (options.trace) plan.min_reps = 3;
  Measurement m = measure(*w, options.seed, plan);
  add_trace_overhead(m);
  if (!m.untraced.empty()) print_end_to_end(m);
  if (!m.traced.empty()) print_layers(m);
  print_errors(m);
  print_result_line(m, options.trace);
  return m.errors.empty() ? 0 : 1;
}

std::string git_describe() {
  FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buffer[128] = {};
  const bool got = std::fgets(buffer, sizeof(buffer), pipe) != nullptr;
  pclose(pipe);
  std::string text = got ? buffer : "";
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  return text.empty() ? "unknown" : text;
}

// Runs every workload (untraced repetitions, then one traced federation)
// and optionally writes the result set that --compare reads.
bool run_all(const Options& options, const std::string& out_path,
             std::vector<Measurement>* measurements) {
  bool ok = true;
  for (const Workload& w : workloads()) {
    Plan plan;
    plan.seconds = options.seconds;
    plan.extra_traced = 1;
    Measurement m = measure(w, options.seed, plan);
    add_trace_overhead(m);
    if (!m.untraced.empty()) print_end_to_end(m);
    if (!m.traced.empty()) print_layers(m);
    print_errors(m);
    ok = ok && m.errors.empty() && !m.untraced.empty();
    measurements->push_back(std::move(m));
  }
  if (out_path.empty()) return ok;

  std::ofstream out(out_path);
  char buffer[256];
  out << "{\n  \"generated_by\": \"bench_e2e\",\n";
  out << "  \"git_describe\": \"" << git_describe() << "\",\n";
  out << "  \"build_type\": \"" << BENCH_E2E_BUILD_TYPE << "\",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"seed\": " << options.seed << ",\n";
  std::snprintf(buffer, sizeof(buffer), "  \"seconds\": %g,\n",
                options.seconds);
  out << buffer << "  \"workloads\": {\n";
  for (std::size_t wi = 0; wi < measurements->size(); ++wi) {
    const Measurement& m = (*measurements)[wi];
    out << "    \"" << m.workload.name << "\": {\n      \"end_to_end\": {\n";
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      const MetricDef& def = kEndToEnd[i];
      const Summary s = summarize(metric_samples(m, def));
      const std::vector<double> samples = compared_samples(m, def);
      std::snprintf(buffer, sizeof(buffer),
                    "        \"%s\": {\"unit\": \"%s\", \"value\": %.17g, "
                    "\"q1\": %.17g, \"q3\": %.17g, \"samples\": [",
                    def.name, def.unit, metric_value(m, def), s.q1, s.q3);
      out << buffer;
      for (std::size_t k = 0; k < samples.size(); ++k) {
        std::snprintf(buffer, sizeof(buffer), "%s%.17g", k ? ", " : "",
                      samples[k]);
        out << buffer;
      }
      out << "]}" << (i + 1 < std::size(kEndToEnd) ? "," : "") << "\n";
    }
    out << "      },\n      \"per_layer\": {\n";
    for (std::size_t i = 0; i < std::size(kLayers); ++i) {
      const MetricDef& def = kLayers[i];
      const double value =
          m.traced.empty() ? 0.0
                           : summarize(samples_of(m.traced, def.name)).median;
      std::snprintf(buffer, sizeof(buffer),
                    "        \"%s\": {\"unit\": \"%s\", \"value\": %.17g}%s\n",
                    def.name, def.unit, value,
                    i + 1 < std::size(kLayers) ? "," : "");
      out << buffer;
    }
    out << "      }\n    }" << (wi + 1 < measurements->size() ? "," : "")
        << "\n";
  }
  out << "  }\n}\n";
  std::printf("[e2e] wrote %s\n", out_path.c_str());
  return ok;
}

// Bound of each end-to-end metric, read from BENCHMARK.json.
bool read_bounds(const std::string& spec_path,
                 std::map<std::string, double>* bounds, std::string* error) {
  JsonValue spec;
  if (!read_json_file(spec_path, &spec, error)) return false;
  const JsonValue* list = spec.find("end_to_end");
  if (list == nullptr || list->type != JsonValue::Type::kArray) {
    *error = spec_path + ": no end_to_end list";
    return false;
  }
  for (const JsonValue& metric : list->array) {
    const JsonValue* name = metric.find("name");
    const JsonValue* bound = metric.find("bound");
    if (name == nullptr || bound == nullptr) {
      *error = spec_path + ": end_to_end entry without name or bound";
      return false;
    }
    (*bounds)[name->string] = bound->number;
  }
  return true;
}

int run_compare(const Options& options, const std::string& baseline_path,
                const std::string& spec_path, const std::string& out_path) {
  std::string error;
  std::map<std::string, double> bounds;
  JsonValue baseline;
  if (!read_bounds(spec_path, &bounds, &error) ||
      !read_json_file(baseline_path, &baseline, &error)) {
    std::fprintf(stderr, "[e2e] %s\n", error.c_str());
    return 2;
  }
  const JsonValue* base_workloads = baseline.find("workloads");
  if (base_workloads == nullptr) {
    std::fprintf(stderr, "[e2e] %s has no workloads\n", baseline_path.c_str());
    return 2;
  }
  std::vector<Measurement> measurements;
  const bool ok = run_all(options, out_path, &measurements);

  int worse = 0;
  std::printf("\n[e2e] compare against %s\n", baseline_path.c_str());
  std::printf("%-18s %-20s %30s %30s %6s  %s\n", "workload", "metric",
              "baseline median [q1, q3]", "current median [q1, q3]", "bound",
              "verdict");
  for (const Measurement& m : measurements) {
    const JsonValue* base_w = base_workloads->find(m.workload.name);
    const JsonValue* base_metrics =
        base_w == nullptr ? nullptr : base_w->find("end_to_end");
    for (const MetricDef& def : kEndToEnd) {
      const JsonValue* base_metric =
          base_metrics == nullptr ? nullptr : base_metrics->find(def.name);
      const JsonValue* base_samples =
          base_metric == nullptr ? nullptr : base_metric->find("samples");
      if (base_samples == nullptr || base_samples->array.empty() ||
          bounds.count(def.name) == 0 || m.untraced.empty()) {
        std::printf("%-18s %-20s %30s\n", m.workload.name.c_str(), def.name,
                    "missing from baseline, spec or run");
        ++worse;
        continue;
      }
      std::vector<double> before;
      for (const JsonValue& x : base_samples->array) before.push_back(x.number);
      const std::vector<double> after = compared_samples(m, def);
      const Summary b = summarize(before);
      const Summary a = summarize(after);
      const Verdict verdict =
          compare_samples(before, after, def.better, bounds.at(def.name));
      if (verdict == Verdict::kWorse) ++worse;
      char base_text[64];
      char current_text[64];
      std::snprintf(base_text, sizeof(base_text), "%.5g [%.5g, %.5g]",
                    b.median, b.q1, b.q3);
      std::snprintf(current_text, sizeof(current_text), "%.5g [%.5g, %.5g]",
                    a.median, a.q1, a.q3);
      std::printf("%-18s %-20s %30s %30s %6.3f  %s\n",
                  m.workload.name.c_str(), def.name, base_text, current_text,
                  bounds.at(def.name), verdict_name(verdict));
    }
  }
  if (!ok) return 1;
  if (worse > 0) {
    std::printf("[e2e] %d metric(s) worse than the baseline\n", worse);
    return 1;
  }
  return 0;
}

// Checks the compiled metric tables against BENCHMARK.json: same names in
// the same order, same units and directions.
void check_spec(const std::string& spec_path,
                std::vector<std::string>* errors) {
  JsonValue spec;
  std::string error;
  if (!read_json_file(spec_path, &spec, &error)) {
    errors->push_back(error);
    return;
  }
  const auto check_list = [&](const char* key, const auto& defs) {
    const JsonValue* list = spec.find(key);
    if (list == nullptr || list->array.size() != std::size(defs)) {
      errors->push_back(std::string("BENCHMARK.json ") + key +
                        " does not list the metrics bench_e2e prints");
      return;
    }
    for (std::size_t i = 0; i < std::size(defs); ++i) {
      const MetricDef& def = defs[i];
      const JsonValue& entry = list->array[i];
      const JsonValue* n = entry.find("name");
      const JsonValue* u = entry.find("unit");
      const JsonValue* b = entry.find("better");
      const char* better = def.better == Better::kLower ? "lower" : "higher";
      if (n == nullptr || n->string != def.name || u == nullptr ||
          u->string != def.unit || b == nullptr || b->string != better) {
        errors->push_back(std::string("BENCHMARK.json ") + key + " entry " +
                          std::to_string(i) + " should be " + def.name +
                          " (" + def.unit + ", " + better + ")");
      }
    }
  };
  check_list("end_to_end", kEndToEnd);
  check_list("per_layer", kLayers);
  const JsonValue* names = spec.find("workloads");
  std::set<std::string> listed;
  if (names != nullptr) {
    for (const JsonValue& w : names->array) {
      if (const JsonValue* n = w.find("name")) listed.insert(n->string);
    }
  }
  std::set<std::string> built;
  for (const Workload& w : workloads()) built.insert(w.name);
  if (listed != built) {
    errors->push_back("BENCHMARK.json workloads differ from bench_e2e's");
  }
}

// Every workload at CI scale: one untraced and one traced federation each,
// all checks on, plus the metric tables against BENCHMARK.json.
int run_smoke(const std::string& spec_path) {
  std::vector<std::string> errors;
  check_spec(spec_path, &errors);
  for (const Workload& full : workloads()) {
    const Workload w = tiny(full);
    Plan plan;
    plan.min_reps = 1;
    plan.warm_up = false;
    plan.extra_traced = 1;
    Measurement m = measure(w, /*seed=*/42, plan);
    add_trace_overhead(m);
    if (m.untraced.empty() || m.traced.empty()) {
      errors.push_back(w.name + ": no federation completed");
    } else {
      for (const MetricDef& def : kEndToEnd) {
        if (m.untraced.front().values.count(def.name) == 0) {
          errors.push_back(w.name + ": did not report " + def.name);
        }
      }
      for (const MetricDef& def : kLayers) {
        if (m.traced.front().values.count(def.name) == 0) {
          errors.push_back(w.name + ": did not report " + def.name);
        }
      }
      print_layers(m);
    }
    errors.insert(errors.end(), m.errors.begin(), m.errors.end());
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "[e2e] SMOKE FAILED: %s\n", e.c_str());
  }
  if (!errors.empty()) return 1;
  std::printf("[e2e] smoke passed\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test

struct SelfTest {
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "[e2e] SELF-TEST FAILED: %s\n", what.c_str());
    }
  }
  void expect_near(double got, double want, const std::string& what) {
    expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
  }
};

void test_order_statistics(SelfTest& t) {
  // Reference values from Python's statistics.quantiles(data, n=4) and
  // statistics.quantiles(data, n=100).
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  const Summary s = summarize({7, 3, 10, 1, 5, 9, 2, 8, 6, 4});
  t.expect_near(s.q1, 2.75, "q1 of 1..10");
  t.expect_near(s.median, 5.5, "median of 1..10");
  t.expect_near(s.q3, 8.25, "q3 of 1..10");
  const Summary pair = summarize({1, 2});
  t.expect_near(pair.q1, 0.75, "q1 of two samples extrapolates");
  t.expect_near(pair.q3, 2.25, "q3 of two samples extrapolates");
  t.expect_near(summarize({4}).q3, 4, "one sample is every quartile");
  t.expect_near(summarize({1, 2, 3}).median, 2, "odd median");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  t.expect_near(percentile(hundred, 90), 90.9, "p90 of 1..100");
  t.expect_near(percentile(hundred, 50), 50.5, "p50 of 1..100");
  t.expect_near(percentile(ten, 99), 10.89, "p99 extrapolates past the top");

  t.expect(tail_percentile(99) == 90, "tail at n=99 is p90");
  t.expect(tail_percentile(100) == 90, "tail at n=100 is p90");
  t.expect(tail_percentile(199) == 90, "tail at n=199 is p90");
  t.expect(tail_percentile(200) == 95, "tail at n=200 is p95");
  t.expect(tail_percentile(999) == 95, "tail at n=999 is p95");
  t.expect(tail_percentile(1000) == 99, "tail at n=1000 is p99");
}

void test_verdicts(SelfTest& t) {
  const std::vector<double> base = {10.0, 10.1, 9.9, 10.05, 9.95};
  const auto verdict = [&](const std::vector<double>& current, Better better,
                           double bound) {
    return std::string(
        verdict_name(compare_samples(base, current, better, bound)));
  };
  t.expect(verdict({10.02, 9.98, 10.0, 10.1, 9.9}, Better::kLower, 0.1) ==
               "same",
           "overlapping samples within the bound are the same");
  t.expect(verdict({12.0, 12.1, 11.9, 12.05, 11.95}, Better::kLower, 0.1) ==
               "worse",
           "a 20% slower median is worse");
  t.expect(verdict({12.0, 12.1, 11.9, 12.05, 11.95}, Better::kHigher, 0.1) ==
               "better",
           "a 20% higher median is better when higher is better");
  t.expect(verdict({8.0, 12.5, 10.3, 7.5, 13.0}, Better::kLower, 0.1) ==
               "unresolved",
           "a spread wider than the bound is unresolved");
  t.expect(verdict({9.0, 5.0, 9.5, 6.0, 9.8}, Better::kLower, 0.1) ==
               "better",
           "every sample better than every baseline sample is better "
           "despite the spread");
  t.expect(verdict({10.6, 10.5, 10.7, 10.55, 10.65}, Better::kLower, 0.1) ==
               "same",
           "a 6% slower median inside a 10% bound is the same");
}

void test_json(SelfTest& t) {
  JsonValue v;
  std::string error;
  const bool ok = parse_json(
      R"({"a": [1, 2.5e1, -3], "b": {"c": "x\"y"}, "d": true, "e": null})",
      &v, &error);
  t.expect(ok, "parse a small document: " + error);
  if (!ok) return;
  t.expect(v.find("a")->array.size() == 3 &&
               v.find("a")->array[1].number == 25.0,
           "array of numbers");
  t.expect(v.find("b")->find("c")->string == "x\"y", "escaped string");
  t.expect(v.find("d")->boolean, "true literal");
  t.expect(!parse_json("{\"a\": 1,}", &v, &error), "trailing comma rejected");
  t.expect(!parse_json("[1] x", &v, &error), "trailing garbage rejected");
}

// The decorated run must compute the same bits as the bare algorithm.
void test_decorator_identity(SelfTest& t, const Workload& w) {
  const Inputs in = build_inputs(w, /*seed=*/7);
  const auto bare_algorithm = algos::make_algorithm(w.method, in.config);
  const fl::RunResult bare = fl::run_federated(*bare_algorithm, in.fed, true);

  const auto inner = algos::make_algorithm(w.method, in.config);
  CallLog log;
  TimedAlgorithm timed(*inner, &log);
  const fl::RunResult traced = fl::run_federated(timed, in.fed, true);

  t.expect(state_hash(bare) == state_hash(traced),
           w.name + ": decorated final state differs");
  t.expect(accuracy_hash(bare) == accuracy_hash(traced),
           w.name + ": decorated accuracies differ");
  int bare_failures = 0;
  int traced_failures = 0;
  for (const fl::RoundStats& r : bare.history) bare_failures += r.failures;
  for (const fl::RoundStats& r : traced.history) traced_failures += r.failures;
  t.expect(bare_failures == traced_failures,
           w.name + ": decorated failure count differs");
  t.expect(log.times(Call::kLocalUpdate).size() >=
               static_cast<std::size_t>(expected_folds(w)),
           w.name + ": local_update calls were not all timed");
  t.expect(log.times(Call::kFold).size() ==
               static_cast<std::size_t>(expected_folds(w)),
           w.name + ": fold calls were not all timed");
  t.expect(log.times(Call::kFinish).size() ==
               static_cast<std::size_t>(w.rounds),
           w.name + ": finish calls were not all timed");
  if (w.agg_shards > 1) {
    t.expect(!log.times(Call::kMerge).empty(),
             w.name + ": sharded run recorded no merge");
  }
}

void test_merge_forwarding(SelfTest& t) {
  CallLog log;
  const auto make = [&log] {
    return TimedAggregator(std::make_unique<fl::WeightedStreamingAggregator>(),
                           log);
  };
  const auto update = [](float base, float weight) {
    fl::ClientUpdate u;
    u.state = nn::ModelState({base, base * 2.0f, -base});
    u.weight = weight;
    return u;
  };
  fl::WeightedStreamingAggregator flat;
  TimedAggregator left = make();
  TimedAggregator right = make();
  for (int i = 0; i < 6; ++i) {
    const fl::ClientUpdate u = update(0.25f * static_cast<float>(i + 1),
                                      static_cast<float>(i % 3 + 1));
    flat.fold(u);
    (i % 2 == 0 ? left : right).fold(u);
  }
  t.expect(left.folded() == 3 && right.folded() == 3,
           "folded() follows the inner aggregators");
  t.expect(left.mergeable(), "mergeable() forwards");
  left.merge(std::move(right));
  t.expect(left.folded() == 6, "merge adds the other side's folds");
  t.expect(right.folded() == 0, "merge consumes the other side");
  t.expect(left.finish().values() == flat.finish().values(),
           "merged timed folds equal the flat fold bit for bit");
  t.expect(log.times(Call::kFold).size() == 6 &&
               log.times(Call::kMerge).size() == 1 &&
               log.times(Call::kFinish).size() == 1,
           "fold, merge and finish calls were timed");
}

int run_self_test() {
  SelfTest t;
  test_order_statistics(t);
  test_verdicts(t);
  test_json(t);
  test_merge_forwarding(t);
  const std::vector<Workload> all = workloads();
  test_decorator_identity(t, tiny(*find_workload(all, "wide_sync_f32")));
  test_decorator_identity(t, tiny(*find_workload(all, "wide_async_topk16")));
  if (t.failures > 0) {
    std::fprintf(stderr, "[e2e] %d self-test check(s) failed\n", t.failures);
    return 1;
  }
  std::printf("[e2e] self-test passed\n");
  return 0;
}

// The benchmark hands the program only its generated inputs: settings the
// library would read from CALIBRE_* variables stay at their defaults.
void clear_calibre_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("CALIBRE_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

}  // namespace
}  // namespace calibre::bench

int main(int argc, char** argv) {
  using namespace calibre::bench;
  clear_calibre_environment();
  Options options;
  std::string mode;
  std::string baseline;
  std::string spec = "BENCHMARK.json";
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double number = 0.0;
    if (arg == "--workload" && has_value) {
      mode = "workload";
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value && parse_number(argv[++i], &number) &&
               number >= 0) {
      options.seed = static_cast<std::uint64_t>(number);
    } else if (arg == "--seconds" && has_value &&
               parse_number(argv[++i], &number) && number >= 0) {
      options.seconds = number;
    } else if (arg == "--trace" && has_value &&
               (std::strcmp(argv[i + 1], "0") == 0 ||
                std::strcmp(argv[i + 1], "1") == 0)) {
      options.trace = argv[++i][0] == '1';
    } else if (arg == "--all") {
      mode = "all";
    } else if (arg == "--compare" && has_value) {
      mode = "compare";
      baseline = argv[++i];
    } else if (arg == "--spec" && has_value) {
      spec = argv[++i];
    } else if (arg == "--out" && has_value) {
      out = argv[++i];
    } else if (arg == "--smoke") {
      mode = "smoke";
    } else if (arg == "--self-test") {
      mode = "self-test";
    } else {
      std::fprintf(stderr, "bad argument %s (see the header of bench_e2e.cc)\n",
                   arg.c_str());
      return 2;
    }
  }
  try {
    if (mode == "workload") return run_one(options);
    if (mode == "all") {
      std::vector<Measurement> measurements;
      return run_all(options, out, &measurements) ? 0 : 1;
    }
    if (mode == "compare") return run_compare(options, baseline, spec, out);
    if (mode == "smoke") return run_smoke(spec);
    if (mode == "self-test") return run_self_test();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[e2e] %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1] | --all | --compare BASELINE.json | --smoke | "
               "--self-test\n");
  return 2;
}
