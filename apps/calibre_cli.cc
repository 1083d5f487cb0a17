// calibre_cli — run any experiment of the library from the command line.
//
//   calibre_cli --method "Calibre (SimCLR)" --dataset cifar10
//               --partition dirichlet --alpha 0.3 --clients 20 --novel 5
//               --rounds 30 --samples 100 --save encoder.bin
//
// Flags (defaults in parentheses):
//   --method            algorithm name from the registry ("Calibre (SimCLR)")
//   --list-methods      print all registered algorithm names and exit
//   --dataset           cifar10 | cifar100 | stl10            (cifar10)
//   --partition         dirichlet | quantity | iid            (dirichlet)
//   --alpha             Dirichlet concentration                (0.3)
//   --classes-per-client  S for quantity non-IID               (2)
//   --clients           participating clients                  (20)
//   --novel             novel clients                          (5)
//   --samples           train samples per client               (100)
//   --test-samples      test samples per client                (80)
//   --rounds            federated rounds                       (30)
//   --clients-per-round sampled clients per round              (5)
//   --local-epochs      local epochs per round                 (3)
//   --dropout           per-round client dropout probability   (0)
//   --round-deadline-ms per-round deadline in virtual ms; 0 waits
//                       for all                                (0)
//   --min-participants  quorum of updates before the deadline
//                       may cut stragglers loose               (1)
//   --retries           per-round retries of a failed client   (0)
//   --fault-rate        injected handler-failure probability   (0)
//   --fault-latency-ms  injected per-dispatch latency cap, in
//                       virtual ms: it places a reply on the
//                       round clock, nothing waits for it       (0)
//   --device-classes    heterogeneous fault profiles, one per class:
//                       "name:fault_rate:latency_ms:duty[:period],..."
//                       (client c belongs to class c % num_classes; duty < 1
//                       takes the device offline for part of every `period`
//                       rounds, staggered per client; overrides --fault-rate
//                       / --fault-latency-ms)
//   --async             buffered asynchronous aggregation: no round barrier;
//                       folds replies as they arrive (deterministically, in
//                       dispatch order) and commits a new global version
//                       every --buffer-size folds; --rounds counts commits
//   --buffer-size       folds per async commit                  (8)
//   --staleness-alpha   staleness discount w(s)=1/(1+s)^alpha   (0.5)
//   --wire-codec        model payload codec: auto | f32 | f16 | delta16 |
//                       topk16 | int8a; `auto` picks the cheapest codec per
//                       update that keeps reconstruction error within
//                       --codec-error-budget                    (f32)
//   --topk-rate         fraction of coordinates kept by topk16
//                       sparsification, in (0, 1]               (0.0625)
//   --codec-error-budget  relative L2 reconstruction error budget for the
//                       `auto` chooser, in (0, 1]               (0.01)
//   --personalize-cap   personalize a seeded sample of this many clients
//                       instead of the full population; 0 = all (0)
//   --seed              experiment seed                        (42)
//   --threads           device worker threads (0 = auto)       (0)
//   --save              write the trained global state to a file
//   --load              skip training; load a state and only personalize
//                       (participating and novel clients, --personalize-cap
//                       and --threads apply as after training)
//   --history           print per-round progress, with each commit's
//                       virtual time; a sync round waits for all its
//                       replies, so only async runs drop late ones
//
// Any other flag, a positional argument, or a value given to a switch
// (`--list-methods foo`, `--async 3`) exits 2 with a message naming it.
#include <array>
#include <iostream>
#include <sstream>

#include "algos/registry.h"
#include "comm/codec.h"
#include "common/flags.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/fed_data.h"
#include "fl/runner.h"
#include "metrics/fairness.h"
#include "metrics/report.h"
#include "nn/checkpoint.h"

using namespace calibre;

// Parses "--device-classes name:fault_rate:latency_ms:duty[:period],..."
// into DeviceClass entries. Returns false (with a message on stderr) on a
// malformed spec; range validation happens in fl::validate().
static bool parse_device_classes(const std::string& spec,
                                 std::vector<fl::DeviceClass>& out) {
  std::istringstream entries(spec);
  std::string entry;
  while (std::getline(entries, entry, ',')) {
    std::istringstream fields(entry);
    std::string field;
    std::vector<std::string> parts;
    while (std::getline(fields, field, ':')) parts.push_back(field);
    if (parts.size() < 4 || parts.size() > 5 || parts[0].empty()) {
      std::cerr << "bad --device-classes entry '" << entry
                << "' (expected name:fault_rate:latency_ms:duty[:period])\n";
      return false;
    }
    fl::DeviceClass device;
    device.name = parts[0];
    try {
      device.fault_rate = std::stof(parts[1]);
      device.fault_latency_ms = std::stoi(parts[2]);
      device.duty_cycle = std::stof(parts[3]);
      if (parts.size() == 5) device.period_rounds = std::stoi(parts[4]);
    } catch (const std::exception&) {
      std::cerr << "bad --device-classes entry '" << entry
                << "' (non-numeric field)\n";
      return false;
    }
    out.push_back(std::move(device));
  }
  if (out.empty()) {
    std::cerr << "--device-classes given but no classes parsed\n";
    return false;
  }
  return true;
}

// Label for the codec(s) a round's folded updates actually used: a single
// name when uniform ("topk16"), "name*count" terms joined with '+' when the
// adaptive chooser mixed codecs within one round ("topk16*4+f32*1"). Slot 0
// (the config-only `auto` tag) never appears on the wire.
static std::string codec_summary(const std::array<std::uint32_t, 6>& counts) {
  std::vector<std::pair<std::string, std::uint32_t>> used;
  for (std::size_t tag = 1; tag < counts.size(); ++tag) {
    if (counts[tag] == 0) continue;
    used.emplace_back(comm::codec_name(static_cast<comm::Codec>(tag)),
                      counts[tag]);
  }
  if (used.empty()) return "-";
  if (used.size() == 1) return used.front().first;
  std::string out;
  for (const auto& [name, count] : used) {
    if (!out.empty()) out += "+";
    out += name + "*" + std::to_string(count);
  }
  return out;
}

// Compression ratio of a round's folded updates (encoded wire bytes over
// their f32-layout size); 1.0 when the round folded nothing.
static double compression_ratio(const fl::RoundStats& r) {
  if (r.update_bytes_f32 == 0) return 1.0;
  return static_cast<double>(r.update_bytes_wire) /
         static_cast<double>(r.update_bytes_f32);
}

// Prints every argument nothing read: a flag no code path asked for (a typo
// such as --round=1 would otherwise run with the default) or a positional
// token. True when there is none.
static bool all_read(const flags::Parser& args) {
  const std::vector<std::string> unexpected = args.unexpected();
  for (const std::string& message : unexpected) {
    std::cerr << "error: " << message << "\n";
  }
  return unexpected.empty();
}

static int run(const flags::Parser& args) {
  if (args.has("list-methods")) {
    if (!all_read(args)) return 2;
    for (const auto& name : algos::registered_algorithms()) {
      std::cout << name << "\n";
    }
    return 0;
  }

  // Every flag is read before any work starts, so a bad one fails fast.
  const std::string method = args.get("method", "Calibre (SimCLR)");
  const std::string dataset = args.get("dataset", "cifar10");
  const std::string partition_kind = args.get("partition", "dirichlet");
  const int train_clients = args.get_int("clients", 20);
  const int novel_clients = args.get_int("novel", 5);
  data::PartitionConfig partition_config;
  partition_config.num_clients = train_clients + novel_clients;
  partition_config.samples_per_client = args.get_int("samples", 100);
  partition_config.test_samples_per_client = args.get_int("test-samples", 80);
  const double alpha = args.get_double("alpha", 0.3);
  const int classes_per_client = args.get_int("classes-per-client", 2);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  fl::FlConfig config;
  config.rounds = args.get_int("rounds", 30);
  config.clients_per_round = args.get_int("clients-per-round", 5);
  config.local_epochs = args.get_int("local-epochs", 3);
  config.client_dropout_rate =
      static_cast<float>(args.get_double("dropout", 0.0));
  config.round_deadline_ms = args.get_int("round-deadline-ms", 0);
  config.min_participants = args.get_int("min-participants", 1);
  config.max_client_retries = args.get_int("retries", 0);
  config.fault_rate = static_cast<float>(args.get_double("fault-rate", 0.0));
  config.fault_latency_ms = args.get_int("fault-latency-ms", 0);
  const std::string device_classes = args.get("device-classes", "");
  if (!device_classes.empty() &&
      !parse_device_classes(device_classes, config.device_classes)) {
    return 2;
  }
  config.async_mode = args.has("async");
  config.async_buffer_size = args.get_int("buffer-size", 8);
  config.staleness_alpha =
      static_cast<float>(args.get_double("staleness-alpha", 0.5));
  const std::string wire_codec = args.get("wire-codec", "f32");
  config.wire_codec = comm::codec_from_name(wire_codec);
  config.topk_rate = static_cast<float>(args.get_double("topk-rate", 0.0625));
  config.codec_error_budget =
      static_cast<float>(args.get_double("codec-error-budget", 0.01));
  config.personalize_cap = args.get_int("personalize-cap", 0);
  config.seed = seed;
  config.threads = args.get_int("threads", 0);
  config.num_train_clients = train_clients;
  if (method.rfind("Script-", 0) == 0) config.rounds = 0;

  const std::string save_path = args.get("save", "");
  const std::string load_path = args.get("load", "");
  const bool print_history = args.has("history");
  if (!all_read(args)) return 2;

  // Fail fast on impossible configurations (e.g. --min-participants above
  // --clients-per-round, sync-only knobs combined with --async) instead of
  // silently reinterpreting them mid-run.
  try {
    fl::validate(config);
  } catch (const std::exception& error) {
    std::cerr << "invalid configuration: " << error.what() << "\n";
    return 2;
  }

  const data::SyntheticDataset synth =
      data::make_synthetic(data::preset_by_name(dataset));
  rng::Generator partition_gen(seed ^ 0xFACE);
  data::Partition partition;
  if (partition_kind == "dirichlet") {
    partition = data::partition_dirichlet(synth.train, synth.test,
                                          partition_config, alpha,
                                          partition_gen);
  } else if (partition_kind == "quantity") {
    partition = data::partition_quantity(synth.train, synth.test,
                                         partition_config, classes_per_client,
                                         partition_gen);
  } else if (partition_kind == "iid") {
    partition = data::partition_iid(synth.train, synth.test, partition_config,
                                    partition_gen);
  } else {
    std::cerr << "unknown --partition: " << partition_kind << "\n";
    return 2;
  }
  rng::Generator fed_gen(seed ^ 0xFEED);
  const fl::FedDataset fed =
      fl::build_fed_dataset(synth, partition, train_clients, fed_gen);
  config.encoder.input_dim = synth.train.input_dim();
  config.num_classes = synth.train.num_classes;

  const auto algorithm = algos::make_algorithm(method, config);

  fl::RunResult result;
  if (!load_path.empty()) {
    // Personalization-only mode on a previously trained state.
    result.algorithm = algorithm->name();
    fl::personalize_clients(*algorithm, nn::load_state(load_path), fed,
                            novel_clients > 0, result);
  } else {
    result = fl::run_federated(*algorithm, fed, novel_clients > 0);
    if (!save_path.empty()) {
      nn::save_state(save_path, result.final_state);
      std::cout << "saved global state (" << result.final_state.size()
                << " params) to " << save_path << "\n";
    }
  }

  if (print_history) {
    if (config.async_mode) {
      // Async history: one entry per buffer commit; staleness columns show
      // how far behind the committed version the folded updates trained.
      std::cout << "commit  version  folds  failed  retried  late"
                   "  stale_mean  stale_max  virtual_ms  bcast_kB  coll_kB"
                   "  mean_divergence  update_norm  ratio  codec\n";
      for (const fl::RoundStats& r : result.history) {
        std::printf(
            "%6d  %7d  %5d  %6d  %7d  %4d  %10.2f  %9d  %10lld  %8.1f"
            "  %7.1f  %15.4f  %11.3f  %5.3f  %s\n",
            r.round, r.committed_version, r.participants, r.failures,
            r.retries, r.late_dropped, r.staleness_mean, r.staleness_max,
            static_cast<long long>(r.virtual_ms),
            static_cast<double>(r.bytes_broadcast) / 1e3,
            static_cast<double>(r.bytes_collected) / 1e3, r.mean_divergence,
            r.mean_update_norm, compression_ratio(r),
            codec_summary(r.codec_counts).c_str());
      }
    } else {
      std::cout << "round  participants  dropped  failed  retried  timed_out"
                   "  virtual_ms  bcast_kB  coll_kB  ser  mean_divergence"
                   "  update_norm  ratio  codec\n";
      for (const fl::RoundStats& r : result.history) {
        std::printf(
            "%5d  %12d  %7d  %6d  %7d  %9d  %10lld  %8.1f  %7.1f  %3llu"
            "  %15.4f  %11.3f  %5.3f  %s\n",
            r.round, r.participants, r.dropped, r.failures, r.retries,
            r.timeouts, static_cast<long long>(r.virtual_ms),
            static_cast<double>(r.bytes_broadcast) / 1e3,
            static_cast<double>(r.bytes_collected) / 1e3,
            static_cast<unsigned long long>(r.serializations),
            r.mean_divergence, r.mean_update_norm, compression_ratio(r),
            codec_summary(r.codec_counts).c_str());
      }
    }
  }

  const auto stats = metrics::compute_stats(result.train_accuracies);
  const auto fairness = metrics::compute_fairness(result.train_accuracies);
  std::cout << "\n" << result.algorithm << " on " << dataset << " ("
            << partition_kind << ")\n"
            << "  participating accuracy: " << metrics::format_mean_std(stats)
            << "  (variance " << fairness.variance << ")\n"
            << "  fairness: jain " << fairness.jain_index << ", gini "
            << fairness.gini << ", worst-10% "
            << fairness.worst_decile_mean * 100 << "%\n";
  if (!result.novel_accuracies.empty()) {
    const auto novel = metrics::compute_stats(result.novel_accuracies);
    std::cout << "  novel-client accuracy:  "
              << metrics::format_mean_std(novel) << "\n";
  }
  if (result.traffic.messages > 0) {
    std::cout << "  wire codec: " << wire_codec << "\n  ";
    std::vector<metrics::RoundTraffic> round_traffic;
    if (print_history) {
      round_traffic.reserve(result.history.size());
      for (const fl::RoundStats& r : result.history) {
        round_traffic.push_back({r.round, r.bytes_broadcast, r.bytes_collected,
                                 r.serializations, r.update_bytes_wire,
                                 r.update_bytes_f32,
                                 codec_summary(r.codec_counts)});
      }
    }
    metrics::print_traffic_report(std::cout, result.traffic, round_traffic);
  }
  long total_failures = 0, total_retries = 0, total_timeouts = 0,
       total_late = 0;
  for (const fl::RoundStats& r : result.history) {
    total_failures += r.failures;
    total_retries += r.retries;
    total_timeouts += r.timeouts;
    total_late += r.late_dropped;
  }
  if (total_failures + total_retries + total_timeouts + total_late > 0) {
    std::cout << "  faults: " << total_failures << " failed updates, "
              << total_retries << " retried, " << total_timeouts
              << " timed out, " << total_late << " late replies dropped\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  // Bad input (a flag value that does not parse, an unknown method, dataset
  // or codec) throws a CheckError naming it: report it and exit 2, like an
  // invalid configuration, instead of aborting.
  try {
    return run(flags::Parser(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}
