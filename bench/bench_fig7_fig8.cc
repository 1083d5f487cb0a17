// Figs. 7 & 8 — six-method representation comparison: FedAvg, FedRep,
// FedPer, FedBABU, LG-FedAvg and Calibre (SimCLR).
//
// Fig. 7: CIFAR-10-like under D-non-IID(0.3). Fig. 8: STL-10-like under
// Q-non-IID (S = 2). The paper's t-SNE panels show Calibre (SimCLR) with the
// clearest clusters; here each encoder's representation quality is measured
// on the same pooled client samples, and embeddings are exported to CSV.
//
// LG-FedAvg keeps its representation layers per-client, so its features are
// extracted with each client's own local encoder (the federated part is
// only the head).
#include <iostream>

#include "bench/harness.h"
#include "algos/lg_fedavg.h"
#include "core/pfl_ssl.h"

using namespace calibre;

namespace {

void run_figure(const std::string& title, const bench::Setting& setting,
                const bench::Scale& scale) {
  const bench::Workbench workbench = bench::build_workbench(setting, scale);
  const bench::PooledSamples pooled = bench::pool_client_samples(
      workbench.fed, /*num_clients=*/6, /*per_client=*/50);

  std::vector<metrics::RepresentationQuality> rows;
  for (const std::string& method :
       {std::string("FedAvg"), std::string("FedRep"), std::string("FedPer"),
        std::string("FedBABU"), std::string("LG-FedAvg"),
        std::string("Calibre (SimCLR)")}) {
    const auto algorithm = algos::make_algorithm(method, workbench.config);
    const fl::RunResult result = bench::run_algorithm(*algorithm, workbench);
    tensor::Tensor features;
    if (auto* pfl = dynamic_cast<core::PflSsl*>(algorithm.get())) {
      features = pfl->extract_features(result.final_state, pooled.x);
    } else if (auto* lg = dynamic_cast<algos::LgFedAvg*>(algorithm.get())) {
      // LG-FedAvg's encoders never leave the client: extract each client's
      // pooled samples with that client's own local representation.
      std::vector<tensor::Tensor> parts;
      for (int c = 0; c < 6 && c < workbench.fed.num_train_clients(); ++c) {
        const data::Dataset shard = workbench.fed.test_shard(c);
        const int take = std::min<int>(50, static_cast<int>(shard.size()));
        std::vector<int> idx(static_cast<std::size_t>(take));
        for (int i = 0; i < take; ++i) idx[static_cast<std::size_t>(i)] = i;
        parts.push_back(
            lg->client_features(c, tensor::take_rows(shard.x, idx)));
      }
      features = tensor::concat_rows(parts);
    } else {
      features = bench::supervised_features(method, result.final_state,
                                            workbench.config, pooled.x);
    }
    rows.push_back(bench::measure_representation(
        title + " " + method, features, pooled.labels, pooled.client_ids,
        "."));
    std::cout << "  [" << title << "] " << method << " done\n";
  }
  metrics::print_quality_table(std::cout, title + " — " + setting.label(),
                               rows);
}

}  // namespace

int main() {
  const bench::Scale scale = bench::resolve_scale();
  std::cout << "Figs. 7 & 8 reproduction\n";
  run_figure("Fig7", {"cifar10", "dirichlet", 2, 0.3}, scale);
  run_figure("Fig8", {"stl10", "quantity", 2, 0.3}, scale);
  std::cout << "Expected shape: Calibre (SimCLR) has the highest "
               "silhouette/purity in both settings.\n";
  std::cout << "t-SNE embeddings exported to ./tsne_*.csv\n";
  return 0;
}
