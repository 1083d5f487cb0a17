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
// clients, server memory is O(model + dataset), not O(population), so peak
// RSS should stay essentially flat from 1k to 100k clients while rounds/s
// degrades only with the sampled cohort, not with K.
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
#include <vector>

#include "algos/registry.h"
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
  double train_seconds = 0.0;  // rounds only (personalization excluded)
  double total_seconds = 0.0;  // build + rounds + capped personalization
  // Server-side phase split from RunResult::phases: where the training
  // stage's server thread time actually goes (broadcast serialize + send /
  // reply decode / aggregator fold / merge + finish).
  double dispatch_seconds = 0.0;
  double decode_seconds = 0.0;
  double fold_seconds = 0.0;
  double commit_seconds = 0.0;
  long peak_rss_kb = 0;
};

ScaleResult run_population(const ScaleOptions& options, int clients) {
  const auto wall_start = std::chrono::steady_clock::now();
  const data::SyntheticDataset synth =
      data::make_synthetic(data::preset_by_name("cifar10"));

  data::PartitionConfig partition_config;
  partition_config.num_clients = clients;
  partition_config.samples_per_client = options.samples_per_client;
  partition_config.test_samples_per_client = options.samples_per_client / 2;
  rng::Generator partition_gen(42 ^ 0xFACE);
  const data::Partition partition =
      data::partition_iid(synth.train, synth.test, partition_config,
                          partition_gen);
  rng::Generator fed_gen(42 ^ 0xFEED);
  const fl::FedDataset fed =
      fl::build_fed_dataset(synth, partition, clients, fed_gen);

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
  out.train_seconds =
      std::chrono::duration<double>(train_end - train_start).count();
  // run_federated's tail is the capped personalization sweep; fold it into
  // total_seconds so the report stays honest about end-to-end cost.
  out.total_seconds =
      std::chrono::duration<double>(train_end - wall_start).count();
  out.dispatch_seconds = result.phases.dispatch_seconds;
  out.decode_seconds = result.phases.decode_seconds;
  out.fold_seconds = result.phases.fold_seconds;
  out.commit_seconds = result.phases.commit_seconds;
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
    const double rounds_per_s =
        result.train_seconds > 0.0 ? options.rounds / result.train_seconds
                                   : 0.0;
    std::printf(
        "[scale] K=%-7d  %.2f rounds/s  (train %.2fs, total %.2fs)  "
        "peak RSS %.1f MB\n",
        result.clients, rounds_per_s, result.train_seconds,
        result.total_seconds,
        static_cast<double>(result.peak_rss_kb) / 1024.0);
    std::printf(
        "[scale]            phases: dispatch %.3fs  decode %.3fs  "
        "fold %.3fs  commit %.3fs\n",
        result.dispatch_seconds, result.decode_seconds, result.fold_seconds,
        result.commit_seconds);
    results.push_back(result);
  }

  // Memory must not scale with the population: allow dataset-size growth
  // plus slack, but a superlinear blow-up (the pre-streaming runner held
  // O(population) shards and O(cohort) decoded updates) fails the bench.
  if (results.size() >= 2) {
    const double first = static_cast<double>(results.front().peak_rss_kb);
    const double last = static_cast<double>(results.back().peak_rss_kb);
    const double pop_ratio = static_cast<double>(
                                 options.populations.back()) /
                             static_cast<double>(options.populations.front());
    if (last > first * 8.0 && last > 256.0 * 1024.0) {
      std::fprintf(stderr,
                   "[scale] peak RSS grew %.1fx across a %.0fx population "
                   "sweep — server memory is no longer bounded\n",
                   last / first, pop_ratio);
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
      << "  \"populations\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"clients\": %d, \"rounds_per_s\": %.3f, "
                  "\"train_seconds\": %.3f, \"total_seconds\": %.3f, "
                  "\"dispatch_seconds\": %.3f, \"decode_seconds\": %.3f, "
                  "\"fold_seconds\": %.3f, \"commit_seconds\": %.3f, "
                  "\"peak_rss_mb\": %.1f}%s\n",
                  r.clients,
                  r.train_seconds > 0.0 ? options.rounds / r.train_seconds
                                        : 0.0,
                  r.train_seconds, r.total_seconds, r.dispatch_seconds,
                  r.decode_seconds, r.fold_seconds, r.commit_seconds,
                  static_cast<double>(r.peak_rss_kb) / 1024.0,
                  i + 1 < results.size() ? "," : "");
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
    if (!token.empty()) populations.push_back(std::atoi(token.c_str()));
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
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      // CI-sized sweep: still exercises fork + dataset build + streaming
      // rounds + the RSS guard, in a few seconds.
      options.populations = {200, 1000};
      options.rounds = 2;
      options.clients_per_round = 8;
      options.samples_per_client = 30;
    } else if (arg == "--populations" && has_value) {
      options.populations = calibre::bench::parse_populations(argv[++i]);
    } else if (arg == "--rounds" && has_value) {
      options.rounds = std::atoi(argv[++i]);
    } else if (arg == "--clients-per-round" && has_value) {
      options.clients_per_round = std::atoi(argv[++i]);
    } else if (arg == "--samples" && has_value) {
      options.samples_per_client = std::atoi(argv[++i]);
    } else if (arg == "--local-epochs" && has_value) {
      options.local_epochs = std::atoi(argv[++i]);
    } else if (arg == "--personalize-cap" && has_value) {
      options.personalize_cap = std::atoi(argv[++i]);
    } else if (arg == "--method" && has_value) {
      options.method = argv[++i];
    } else if (arg == "--out" && has_value) {
      options.out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 1;
    }
  }
  if (options.populations.empty() || options.rounds <= 0) {
    std::fprintf(stderr, "need at least one population and one round\n");
    return 1;
  }
  return calibre::bench::run(options);
}
