// bench_scale — server-side scalability of the streaming runner.
//
// For each population size K the bench forks a child process that builds a
// federated dataset over K index-view clients, runs a few federated rounds
// through fl::run_federated, and reports wall time plus its peak RSS
// (getrusage ru_maxrss). Fork-per-population matters: ru_maxrss is a
// process-lifetime high-water mark, so measuring 1k / 10k / 100k in one
// process would let the largest run mask the others.
//
// The point of the measurement: with streaming aggregation + index-view
// clients, memory is O(dataset + indices): the shared splits plus every
// client's index list, held once in one flat buffer that the partition and
// the FedDataset share. Nothing else grows with K — no per-client shard, no
// per-client heap vector, no O(cohort) set of decoded updates — so peak RSS
// grows by the index storage alone (~0.6 KB per client at 100 train + 50
// test samples), while rounds/s degrades only with the sampled cohort, not
// with K. The gate below fails the bench if RSS growth across the sweep
// exceeds index-storage growth + 32 MiB.
//
// Each population's time also breaks down into layers: synth (the shared
// splits), partition (the per-client index lists), fed build (the
// FedDataset) and train (run_federated: rounds plus the capped
// personalization sweep). The bench fails if those layers leave more than
// 10% of a population's total unattributed. rounds/s counts the training
// stage alone (RunResult::train_seconds), not the personalization sweep.
//
//   bench_scale                         # 1k / 10k / 100k -> BENCH_scale.json
//   bench_scale --smoke                 # tiny populations for CI
//   bench_scale --populations 500,5000  # custom sweep
//   bench_scale --rounds 5 --clients-per-round 64 --out scale.json
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/registry.h"
#include "bench/harness.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fed_data.h"
#include "fl/runner.h"

namespace calibre::bench {
namespace {

struct ScaleOptions {
  std::vector<int> populations = {1000, 10000, 100000};
  int rounds = 3;
  int clients_per_round = 32;
  int samples_per_client = 100;
  int local_epochs = 1;
  int personalize_cap = 8;
  std::string method = "FedAvg";
  std::string out = "BENCH_scale.json";
};

// What a child process reports back through its pipe (POD: it crosses the
// fork boundary as raw bytes).
struct ScaleResult {
  int clients = 0;
  // Set-up layers, in the order they run: the synthetic splits, the IID
  // partition into per-client index lists, and the FedDataset over them.
  double synth_seconds = 0.0;
  double partition_seconds = 0.0;
  double fed_build_seconds = 0.0;
  // The run_federated call: rounds plus the capped personalization sweep.
  double train_seconds = 0.0;
  // Its training stage alone (the rounds and their drain): rounds/s.
  double train_stage_seconds = 0.0;
  double total_seconds = 0.0;  // everything above, plus algorithm set-up
  // Server-side phase split from RunResult::phases: where the training
  // stage's server thread time actually goes (broadcast serialize + send /
  // reply decode / aggregator fold / merge + finish).
  double dispatch_seconds = 0.0;
  double decode_seconds = 0.0;
  double fold_seconds = 0.0;
  double commit_seconds = 0.0;
  long peak_rss_kb = 0;
  std::size_t index_bytes = 0;  // the partition's train + test index storage

  double rounds_per_s(int rounds) const {
    return train_stage_seconds > 0.0 ? rounds / train_stage_seconds : 0.0;
  }

  // Share of total_seconds that no timed layer covers.
  double unattributed_frac() const {
    const double layers =
        synth_seconds + partition_seconds + fed_build_seconds + train_seconds;
    return total_seconds > 0.0 ? (total_seconds - layers) / total_seconds
                               : 0.0;
  }
};

// The timed layers must account for all but this share of a population's
// total_seconds.
constexpr double kMaxUnattributedFrac = 0.10;

double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double seconds_between(std::chrono::steady_clock::time_point begin,
                       std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

ScaleResult run_population(const ScaleOptions& options, int clients) {
  const auto wall_start = std::chrono::steady_clock::now();
  const data::SyntheticDataset synth =
      data::make_synthetic(data::preset_by_name("cifar10"));
  const auto synth_end = std::chrono::steady_clock::now();

  data::PartitionConfig partition_config;
  partition_config.num_clients = clients;
  partition_config.samples_per_client = options.samples_per_client;
  partition_config.test_samples_per_client = options.samples_per_client / 2;
  rng::Generator partition_gen(42 ^ 0xFACE);
  const data::Partition partition =
      data::partition_iid(synth.train, synth.test, partition_config,
                          partition_gen);
  const auto partition_end = std::chrono::steady_clock::now();
  rng::Generator fed_gen(42 ^ 0xFEED);
  const fl::FedDataset fed =
      fl::build_fed_dataset(synth, partition, clients, fed_gen);
  const auto fed_build_end = std::chrono::steady_clock::now();
  const std::size_t index_bytes = partition.train_indices.storage_bytes() +
                                  partition.test_indices.storage_bytes();

  fl::FlConfig config;
  config.encoder.input_dim = synth.train.input_dim();
  config.num_classes = synth.train.num_classes;
  config.rounds = options.rounds;
  config.clients_per_round = options.clients_per_round;
  config.local_epochs = options.local_epochs;
  config.personalize_cap = options.personalize_cap;
  config.seed = 42;
  config.num_train_clients = clients;
  const auto algorithm = algos::make_algorithm(options.method, config);

  const auto train_start = std::chrono::steady_clock::now();
  const fl::RunResult result = fl::run_federated(*algorithm, fed, false);
  const auto train_end = std::chrono::steady_clock::now();

  ScaleResult out;
  out.clients = clients;
  out.synth_seconds = seconds_between(wall_start, synth_end);
  out.partition_seconds = seconds_between(synth_end, partition_end);
  out.fed_build_seconds = seconds_between(partition_end, fed_build_end);
  out.train_seconds = seconds_between(train_start, train_end);
  out.train_stage_seconds = result.train_seconds;
  out.total_seconds = seconds_between(wall_start, train_end);
  out.dispatch_seconds = result.phases.dispatch_seconds;
  out.decode_seconds = result.phases.decode_seconds;
  out.fold_seconds = result.phases.fold_seconds;
  out.commit_seconds = result.phases.commit_seconds;
  out.index_bytes = index_bytes;
  // Keep the run's outputs alive until after the clock stops.
  if (result.history.size() != static_cast<std::size_t>(options.rounds)) {
    std::fprintf(stderr, "expected %d rounds, ran %zu\n", options.rounds,
                 result.history.size());
    std::exit(3);
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  out.peak_rss_kb = usage.ru_maxrss;  // KiB on Linux
  return out;
}

// Forks, runs one population in the child, and reads the result struct back
// over a pipe. Returns false (and leaves *result untouched) if the child
// failed.
bool run_forked(const ScaleOptions& options, int clients,
                ScaleResult* result) {
  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) {
    std::perror("pipe");
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const ScaleResult child = run_population(options, clients);
    const ssize_t wrote = write(fds[1], &child, sizeof(child));
    close(fds[1]);
    _exit(wrote == static_cast<ssize_t>(sizeof(child)) ? 0 : 4);
  }
  close(fds[1]);
  ScaleResult read_back;
  std::size_t got = 0;
  while (got < sizeof(read_back)) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(&read_back) + got,
                           sizeof(read_back) - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  const bool ok = got == sizeof(read_back) && WIFEXITED(status) &&
                  WEXITSTATUS(status) == 0;
  if (ok) *result = read_back;
  return ok;
}

int run(const ScaleOptions& options) {
  std::vector<ScaleResult> results;
  for (const int clients : options.populations) {
    ScaleResult result;
    if (!run_forked(options, clients, &result)) {
      std::fprintf(stderr, "[scale] population %d failed\n", clients);
      return 1;
    }
    std::printf(
        "[scale] K=%-7d  %.2f rounds/s  (rounds %.3fs, train %.2fs, total "
        "%.2fs)  peak RSS %.1f MB  (indices %.1f MB)\n",
        result.clients, result.rounds_per_s(options.rounds),
        result.train_stage_seconds, result.train_seconds, result.total_seconds, static_cast<double>(result.peak_rss_kb) / 1024.0,
        mib(result.index_bytes));
    std::printf(
        "[scale]            set-up: synth %.3fs  partition %.3fs  "
        "fed build %.3fs  (unattributed %.1f%%)\n",
        result.synth_seconds, result.partition_seconds,
        result.fed_build_seconds, 100.0 * result.unattributed_frac());
    std::printf(
        "[scale]            phases: dispatch %.3fs  decode %.3fs  "
        "fold %.3fs  commit %.3fs\n",
        result.dispatch_seconds, result.decode_seconds, result.fold_seconds,
        result.commit_seconds);
    results.push_back(result);
  }

  // Every population's time must break down into its named layers: a cost
  // that none of them times would hide where a run spends its time.
  for (const ScaleResult& r : results) {
    if (r.unattributed_frac() > kMaxUnattributedFrac) {
      std::fprintf(stderr,
                   "[scale] K=%d: synth + partition + fed build + train "
                   "leave %.1f%% of %.3fs total unattributed (at most "
                   "%.0f%% allowed)\n",
                   r.clients, 100.0 * r.unattributed_frac(), r.total_seconds,
                   100.0 * kMaxUnattributedFrac);
      return 2;
    }
  }

  // The only per-client memory is the index storage, held once: peak RSS
  // may grow across the sweep by the index storage's growth plus 32 MiB of
  // slack (allocator and page-cache noise). A second copy of the lists, a
  // per-client shard or an O(cohort) set of decoded updates fails the bench.
  if (results.size() >= 2) {
    const ScaleResult& first = results.front();
    const ScaleResult& last = results.back();
    const double rss_growth =
        static_cast<double>(last.peak_rss_kb - first.peak_rss_kb) / 1024.0;
    const double index_growth = mib(last.index_bytes) - mib(first.index_bytes);
    if (rss_growth > index_growth + 32.0) {
      std::fprintf(stderr,
                   "[scale] peak RSS grew %.1f MB from K=%d to K=%d, but "
                   "index storage grew only %.1f MB (+32 MB slack allowed) "
                   "— something other than the index lists scales with "
                   "the population\n",
                   rss_growth, first.clients, last.clients, index_growth);
      return 2;
    }
  }

  std::ofstream out(options.out);
  out << "{\n  \"generated_by\": \"bench_scale\",\n"
      << "  \"method\": \"" << options.method << "\",\n"
      << "  \"rounds\": " << options.rounds << ",\n"
      << "  \"clients_per_round\": " << options.clients_per_round << ",\n"
      << "  \"samples_per_client\": " << options.samples_per_client << ",\n"
      << "  \"local_epochs\": " << options.local_epochs << ",\n"
      << "  \"personalize_cap\": " << options.personalize_cap << ",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"populations\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    char buffer[640];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"clients\": %d, \"rounds_per_s\": %.3f, "
                  "\"synth_seconds\": %.3f, \"partition_seconds\": %.3f, "
                  "\"fed_build_seconds\": %.3f, "
                  "\"train_stage_seconds\": %.3f, "
                  "\"train_seconds\": %.3f, \"total_seconds\": %.3f, "
                  "\"dispatch_seconds\": %.3f, \"decode_seconds\": %.3f, "
                  "\"fold_seconds\": %.3f, \"commit_seconds\": %.3f, "
                  "\"peak_rss_mb\": %.1f, \"index_mb\": %.1f}%s\n",
                  r.clients, r.rounds_per_s(options.rounds),
                  r.synth_seconds, r.partition_seconds, r.fed_build_seconds,
                  r.train_stage_seconds, r.train_seconds, r.total_seconds, r.dispatch_seconds,
                  r.decode_seconds, r.fold_seconds, r.commit_seconds,
                  static_cast<double>(r.peak_rss_kb) / 1024.0,
                  mib(r.index_bytes), i + 1 < results.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
  std::printf("[scale] wrote %s\n", options.out.c_str());
  return 0;
}

std::vector<int> parse_populations(const std::string& arg) {
  std::vector<int> populations;
  std::size_t begin = 0;
  while (begin < arg.size()) {
    const std::size_t comma = arg.find(',', begin);
    const std::string token =
        arg.substr(begin, comma == std::string::npos ? comma : comma - begin);
    if (!token.empty()) {
      populations.push_back(flags::parse_int(token, "populations"));
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return populations;
}

}  // namespace
}  // namespace calibre::bench

int main(int argc, char** argv) {
  using calibre::bench::ScaleOptions;
  ScaleOptions options;
  const calibre::flags::Parser args(argc, argv);
  if (!calibre::bench::read_flags(args, [&] {
        if (args.has("smoke")) {
          // CI-sized sweep: still exercises fork + dataset build +
          // streaming rounds + the RSS guard, in a few seconds.
          options.populations = {200, 1000};
          options.rounds = 2;
          options.clients_per_round = 8;
          options.samples_per_client = 30;
        }
        const std::string populations = args.get("populations", "");
        if (!populations.empty()) {
          options.populations = calibre::bench::parse_populations(populations);
        }
        options.rounds = args.get_int("rounds", options.rounds);
        options.clients_per_round =
            args.get_int("clients-per-round", options.clients_per_round);
        options.samples_per_client =
            args.get_int("samples", options.samples_per_client);
        options.local_epochs =
            args.get_int("local-epochs", options.local_epochs);
        options.personalize_cap =
            args.get_int("personalize-cap", options.personalize_cap);
        options.method = args.get("method", options.method);
        options.out = args.get("out", options.out);
      })) {
    return 1;
  }
  if (options.populations.empty() || options.rounds <= 0) {
    std::fprintf(stderr, "need at least one population and one round\n");
    return 1;
  }
  return calibre::bench::run(options);
}
