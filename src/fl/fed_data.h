// Federated view of a dataset: every client is an index view.
//
// Built from a SyntheticDataset plus a Partition over (participating +
// novel) clients. Novel clients never appear during federated training; they
// only download the final global model and personalize (paper §V-D). For
// STL-10-style datasets the unlabeled pool is split evenly across
// participating clients and concatenated with their labeled inputs to form
// the per-client SSL pool.
//
// A FedDataset keeps the shared splits, a handle on the partition's
// per-client index buffer (data::IndexLists; the lists are held once, not
// copied) and the shuffled unlabeled order, never a per-client copy. The
// accessors materialise a client's shard or SSL pool on demand, so memory
// stays O(dataset + indices) however many clients the partition names, and
// each call costs one row gather.
#pragma once

#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"

namespace calibre::fl {

struct FedDataset {
  data::Dataset base_train;      // shared train split
  data::Dataset base_test;       // shared test split
  data::Dataset base_unlabeled;  // shared SSL-only pool
  // Per client: the participating clients, then the novel ones.
  // Shared with the Partition the dataset was built from.
  data::IndexLists train_indices;
  data::IndexLists test_indices;
  int participating = 0;  // leading entries of the index lists
  // Shuffled unlabeled order; participating client c owns rows
  // [c * unlabeled_share, (c + 1) * unlabeled_share) of it.
  std::vector<int> unlabeled_order;
  std::size_t unlabeled_share = 0;
  // True when SSL pool rows are class latents to be rendered through
  // `oracle`; false when they are raw inputs for pixel augmentation.
  bool pool_is_latent = false;
  data::ViewOracle oracle;
  int num_classes = 0;
  std::int64_t input_dim = 0;

  int num_train_clients() const { return participating; }
  int num_novel_clients() const {
    return static_cast<int>(train_indices.size()) - participating;
  }

  data::Dataset train_shard(int client) const;
  data::Dataset test_shard(int client) const;
  data::Dataset novel_train_shard(int novel) const;
  data::Dataset novel_test_shard(int novel) const;
  // The client's SSL pool: its labeled rows (latents or inputs, see
  // pool_is_latent) followed by its slice of the unlabeled order.
  tensor::Tensor client_ssl_pool(int client) const;
};

// Splits `partition` (over num_train_clients + novel clients) into
// participating and novel clients. Draws one shuffle of the unlabeled order
// from `gen`.
FedDataset build_fed_dataset(const data::SyntheticDataset& synth,
                             const data::Partition& partition,
                             int num_train_clients, rng::Generator& gen);

// Former name of build_fed_dataset, kept only because bench_e2e still calls
// it; it goes with the next change to bench_e2e.
inline FedDataset build_virtual_fed_dataset(
    const data::SyntheticDataset& synth, const data::Partition& partition,
    int num_train_clients, rng::Generator& gen) {
  return build_fed_dataset(synth, partition, num_train_clients, gen);
}

}  // namespace calibre::fl
