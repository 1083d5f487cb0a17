#include "fl/fed_data.h"

#include "common/check.h"

namespace calibre::fl {

data::Dataset FedDataset::train_shard(int client) const {
  CALIBRE_CHECK(client >= 0 && client < participating);
  return base_train.subset(train_indices[static_cast<std::size_t>(client)]);
}

data::Dataset FedDataset::test_shard(int client) const {
  CALIBRE_CHECK(client >= 0 && client < participating);
  return base_test.subset(test_indices[static_cast<std::size_t>(client)]);
}

data::Dataset FedDataset::novel_train_shard(int novel) const {
  CALIBRE_CHECK(novel >= 0 && novel < num_novel_clients());
  return base_train.subset(
      train_indices[static_cast<std::size_t>(participating + novel)]);
}

data::Dataset FedDataset::novel_test_shard(int novel) const {
  CALIBRE_CHECK(novel >= 0 && novel < num_novel_clients());
  return base_test.subset(
      test_indices[static_cast<std::size_t>(participating + novel)]);
}

tensor::Tensor FedDataset::client_ssl_pool(int client) const {
  CALIBRE_CHECK(client >= 0 && client < participating);
  const tensor::Tensor labeled = tensor::take_rows(
      pool_is_latent ? base_train.latents : base_train.x,
      train_indices[static_cast<std::size_t>(client)]);
  if (unlabeled_share == 0) return labeled;
  const auto begin = unlabeled_order.begin() +
                     static_cast<std::ptrdiff_t>(
                         static_cast<std::size_t>(client) * unlabeled_share);
  const std::vector<int> slice(
      begin, begin + static_cast<std::ptrdiff_t>(unlabeled_share));
  return tensor::concat_rows(
      {labeled,
       tensor::take_rows(pool_is_latent ? base_unlabeled.latents
                                        : base_unlabeled.x,
                         slice)});
}

FedDataset build_fed_dataset(const data::SyntheticDataset& synth,
                             const data::Partition& partition,
                             int num_train_clients, rng::Generator& gen) {
  CALIBRE_CHECK(num_train_clients > 0 &&
                num_train_clients <= partition.num_clients());
  FedDataset fed;
  fed.base_train = synth.train;
  fed.base_test = synth.test;
  fed.base_unlabeled = synth.unlabeled;
  fed.train_indices = partition.train_indices;
  fed.test_indices = partition.test_indices;
  fed.participating = num_train_clients;
  // Each participating client gets an even, shuffled share of the unlabeled
  // pool (an empty share when the dataset has none).
  fed.unlabeled_order.resize(static_cast<std::size_t>(synth.unlabeled.size()));
  for (std::size_t i = 0; i < fed.unlabeled_order.size(); ++i) {
    fed.unlabeled_order[i] = static_cast<int>(i);
  }
  gen.shuffle(fed.unlabeled_order);
  fed.unlabeled_share = fed.unlabeled_order.size() /
                        static_cast<std::size_t>(num_train_clients);
  // With a ViewOracle the pools hold class latents (views are rendered on
  // demand); without one they hold raw pixels for generic augmentation.
  fed.pool_is_latent = synth.oracle.valid();
  fed.oracle = synth.oracle;
  fed.num_classes = synth.train.num_classes;
  fed.input_dim = synth.train.input_dim();
  return fed;
}

}  // namespace calibre::fl
