// bench_async — convergence vs simulated time for buffered asynchronous
// aggregation against the synchronous barrier loop, under one shared
// availability trace.
//
// Both modes run the same method on the same federated dataset with the
// same seeded device classes (a fast class, a flaky+slow class, and a
// diurnal class that sleeps half its period). Total fold budget is matched:
// sync runs R rounds of C clients; async commits R buffers of C folds with
// C requests in flight. Injected latency is virtual, so each mode reports
// two clocks: simulated seconds (the last commit's RoundStats::virtual_ms,
// i.e. network latency only, no compute time) and wall seconds (the real
// compute, which latency no longer inflates). Sync pays the straggler tax
// at every barrier — each round lasts as long as its slowest sampled
// device — while async refills a slot as soon as the fold front passes it.
//
//   bench_async                 # paper-ish scale -> BENCH_async.json
//   bench_async --smoke         # CI-sized, a few seconds
//   bench_async --rounds 20 --clients-per-round 8 --out async.json
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "algos/registry.h"
#include "harness.h"

namespace calibre::bench {
namespace {

struct AsyncOptions {
  int rounds = 20;             // sync rounds == async commits
  int clients_per_round = 8;   // sync cohort == async in-flight == buffer
  int train_clients = 20;
  int samples_per_client = 100;
  int local_epochs = 1;
  int latency_scale_ms = 60;   // base injected latency for the slow class
  std::string method = "FedAvg";
  std::string out = "BENCH_async.json";
};

struct ModeResult {
  std::string mode;
  double sim_seconds = 0.0;   // simulated: the last commit's virtual time
  double wall_seconds = 0.0;
  int folds = 0;
  int failures = 0;
  int retries = 0;
  int late_dropped = 0;
  double mean_accuracy = 0.0;
  float last_update_norm = 0.0f;
  float staleness_mean = 0.0f;  // async only
  int staleness_max = 0;        // async only
  std::uint64_t bytes_total = 0;
};

fl::FlConfig mode_config(const AsyncOptions& options, const Workbench& bench,
                         bool async_mode) {
  fl::FlConfig config = bench.config;
  config.rounds = options.rounds;
  config.clients_per_round = options.clients_per_round;
  config.local_epochs = options.local_epochs;
  config.personalize_cap = 8;
  // Shared availability trace: identical classes, latencies, and fault seed
  // in both modes, so the comparison isolates the aggregation discipline.
  config.device_classes = {
      {"fast", 0.0f, 0, 1.0f, 0},
      {"slow", 0.05f, options.latency_scale_ms, 1.0f, 0},
      {"night", 0.0f, options.latency_scale_ms / 3, 0.5f, 8},
  };
  config.max_client_retries = 1;
  config.async_mode = async_mode;
  if (async_mode) {
    config.async_buffer_size = options.clients_per_round;
    config.staleness_alpha = 0.5f;
  }
  return config;
}

ModeResult run_mode(const AsyncOptions& options, const Workbench& bench,
                    bool async_mode) {
  const fl::FlConfig config = mode_config(options, bench, async_mode);
  const auto algorithm = algos::make_algorithm(options.method, config);
  const fl::RunResult result =
      fl::run_federated(*algorithm, bench.fed, false);

  ModeResult mode;
  mode.mode = async_mode ? "async" : "sync";
  mode.wall_seconds = result.wall_seconds;
  for (const fl::RoundStats& entry : result.history) {
    mode.folds += entry.participants;
    mode.failures += entry.failures;
    mode.retries += entry.retries;
    mode.late_dropped += entry.late_dropped;
    mode.bytes_total += entry.bytes_broadcast + entry.bytes_collected;
  }
  if (!result.history.empty()) {
    mode.sim_seconds =
        static_cast<double>(result.history.back().virtual_ms) / 1000.0;
    mode.last_update_norm = result.history.back().mean_update_norm;
    mode.staleness_mean = result.history.back().staleness_mean;
    mode.staleness_max = result.history.back().staleness_max;
  }
  if (!result.train_accuracies.empty()) {
    mode.mean_accuracy = std::accumulate(result.train_accuracies.begin(),
                                         result.train_accuracies.end(), 0.0) /
                         static_cast<double>(result.train_accuracies.size());
  }
  return mode;
}

int run(const AsyncOptions& options) {
  Setting setting;
  setting.dataset = "cifar10";
  setting.partition = "dirichlet";
  Scale scale;
  scale.train_clients = options.train_clients;
  scale.novel_clients = 2;
  scale.rounds = options.rounds;
  scale.clients_per_round = options.clients_per_round;
  scale.samples_per_client = options.samples_per_client;
  scale.test_samples_per_client = options.samples_per_client / 2;
  scale.local_epochs = options.local_epochs;
  const Workbench bench = build_workbench(setting, scale);

  const ModeResult sync_run = run_mode(options, bench, false);
  const ModeResult async_run = run_mode(options, bench, true);

  for (const ModeResult* mode : {&sync_run, &async_run}) {
    std::printf(
        "[async] %-5s  %6.2fs simulated  %6.2fs wall  %4d folds  acc %.3f  "
        "fail %d  retry %d  late %d  stale %.2f/%d  %.1f KB\n",
        mode->mode.c_str(), mode->sim_seconds, mode->wall_seconds, mode->folds,
        mode->mean_accuracy, mode->failures, mode->retries,
        mode->late_dropped, mode->staleness_mean, mode->staleness_max,
        static_cast<double>(mode->bytes_total) / 1024.0);
  }
  if (async_run.sim_seconds > 0.0) {
    std::printf(
        "[async] simulated speedup %.2fx at matched fold budget (%d vs %d "
        "updates)\n",
        sync_run.sim_seconds / async_run.sim_seconds, sync_run.folds,
        async_run.folds);
  }

  // The fold budgets must actually match, or the time comparison is
  // meaningless: async folds exactly rounds * buffer_size by construction.
  if (async_run.folds != options.rounds * options.clients_per_round) {
    std::fprintf(stderr, "[async] expected %d async folds, got %d\n",
                 options.rounds * options.clients_per_round, async_run.folds);
    return 2;
  }

  std::ofstream out(options.out);
  out << "{\n  \"generated_by\": \"bench_async\",\n"
      << "  \"method\": \"" << options.method << "\",\n"
      << "  \"rounds\": " << options.rounds << ",\n"
      << "  \"clients_per_round\": " << options.clients_per_round << ",\n"
      << "  \"train_clients\": " << options.train_clients << ",\n"
      << "  \"latency_scale_ms\": " << options.latency_scale_ms << ",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"modes\": [\n";
  const std::vector<const ModeResult*> modes = {&sync_run, &async_run};
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& mode = *modes[i];
    char buffer[384];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"mode\": \"%s\", \"sim_seconds\": %.3f, "
        "\"wall_seconds\": %.3f, \"folds\": %d, "
        "\"mean_accuracy\": %.4f, \"failures\": %d, \"retries\": %d, "
        "\"late_dropped\": %d, \"staleness_mean\": %.3f, "
        "\"staleness_max\": %d, \"bytes_total\": %llu}%s\n",
        mode.mode.c_str(), mode.sim_seconds, mode.wall_seconds, mode.folds,
        mode.mean_accuracy,
        mode.failures, mode.retries, mode.late_dropped, mode.staleness_mean,
        mode.staleness_max,
        static_cast<unsigned long long>(mode.bytes_total),
        i + 1 < modes.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
  std::printf("[async] wrote %s\n", options.out.c_str());
  return 0;
}

}  // namespace
}  // namespace calibre::bench

int main(int argc, char** argv) {
  using calibre::bench::AsyncOptions;
  AsyncOptions options;
  const calibre::flags::Parser args(argc, argv);
  if (!calibre::bench::read_flags(args, [&] {
        if (args.has("smoke")) {
          // CI-sized: still exercises both loops, the shared availability
          // trace, and the fold-budget invariant, in a few seconds.
          options.rounds = 4;
          options.clients_per_round = 4;
          options.train_clients = 8;
          options.samples_per_client = 30;
          options.latency_scale_ms = 30;
        }
        options.rounds = args.get_int("rounds", options.rounds);
        options.clients_per_round =
            args.get_int("clients-per-round", options.clients_per_round);
        options.train_clients =
            args.get_int("train-clients", options.train_clients);
        options.samples_per_client =
            args.get_int("samples", options.samples_per_client);
        options.local_epochs =
            args.get_int("local-epochs", options.local_epochs);
        options.latency_scale_ms =
            args.get_int("latency-ms", options.latency_scale_ms);
        options.method = args.get("method", options.method);
        options.out = args.get("out", options.out);
      })) {
    return 1;
  }
  if (options.rounds <= 0 || options.clients_per_round <= 0) {
    std::fprintf(stderr, "need positive rounds and clients-per-round\n");
    return 1;
  }
  return calibre::bench::run(options);
}
