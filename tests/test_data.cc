// Tests for the data layer: synthetic generation, the view oracle,
// augmentation, batching and the non-IID partitioners.
#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "data/augment.h"
#include "data/partition.h"
#include "data/synthetic.h"

namespace calibre::data {
namespace {

SyntheticConfig small_config() {
  SyntheticConfig config;
  config.num_classes = 5;
  config.input_dim = 24;
  config.latent_dim = 8;
  config.train_samples = 600;
  config.test_samples = 300;
  config.seed = 99;
  return config;
}

TEST(Synthetic, SplitSizesAndLabels) {
  const SyntheticDataset synth = make_synthetic(small_config());
  EXPECT_EQ(synth.train.size(), 600);
  EXPECT_EQ(synth.test.size(), 300);
  EXPECT_EQ(synth.unlabeled.size(), 0);
  EXPECT_EQ(synth.train.input_dim(), 24);
  EXPECT_EQ(synth.train.num_classes, 5);
  for (const int label : synth.train.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 5);
  }
  // Latents are retained for the oracle (class part only).
  EXPECT_EQ(synth.train.latents.rows(), 600);
  EXPECT_EQ(synth.train.latents.cols(), 8);
  EXPECT_TRUE(synth.oracle.valid());
  EXPECT_NE(synth.train.oracle, nullptr);
}

TEST(Synthetic, UnlabeledPoolIsUnlabeled) {
  SyntheticConfig config = small_config();
  config.unlabeled_samples = 100;
  const SyntheticDataset synth = make_synthetic(config);
  EXPECT_EQ(synth.unlabeled.size(), 100);
  for (const int label : synth.unlabeled.labels) {
    EXPECT_EQ(label, -1);
  }
  EXPECT_EQ(synth.unlabeled.labeled_indices().size(), 0u);
  EXPECT_EQ(synth.train.labeled_indices().size(), 600u);
}

TEST(Synthetic, DeterministicForSameSeed) {
  const SyntheticDataset a = make_synthetic(small_config());
  const SyntheticDataset b = make_synthetic(small_config());
  EXPECT_TRUE(tensor::allclose(a.train.x, b.train.x));
  EXPECT_EQ(a.train.labels, b.train.labels);
}

TEST(Synthetic, DifferentSeedDifferentData) {
  SyntheticConfig other = small_config();
  other.seed = 100;
  const SyntheticDataset a = make_synthetic(small_config());
  const SyntheticDataset b = make_synthetic(other);
  EXPECT_FALSE(tensor::allclose(a.train.x, b.train.x));
}

TEST(Synthetic, ObservationsAreBoundedByCosine) {
  const SyntheticDataset synth = make_synthetic(small_config());
  // cos output plus small noise: everything within [-1.5, 1.5].
  EXPECT_GE(synth.train.x.min(), -1.5f);
  EXPECT_LE(synth.train.x.max(), 1.5f);
}

TEST(ViewOracle, ViewsVaryButPreserveClassLatent) {
  const SyntheticDataset synth = make_synthetic(small_config());
  rng::Generator gen(1);
  std::vector<int> indices = {0, 1, 2, 3};
  const tensor::Tensor latents =
      tensor::take_rows(synth.train.latents, indices);
  const tensor::Tensor view1 = synth.oracle.render_view(latents, gen);
  const tensor::Tensor view2 = synth.oracle.render_view(latents, gen);
  EXPECT_EQ(view1.rows(), 4);
  EXPECT_EQ(view1.cols(), 24);
  // Stochastic nuisance: the two views differ.
  EXPECT_FALSE(tensor::allclose(view1, view2, 1e-3f));
}

TEST(ViewOracle, SameSampleViewsCloserThanCrossClassViews) {
  // The augmentation-graph property SSL relies on: two views of the SAME
  // sample (shared class latent) are closer on average than views of
  // samples from different classes.
  SyntheticConfig config = small_config();
  config.nuisance_stddev = 0.5f;  // mild nuisance so the signal dominates
  config.render_frequency = 0.6f;
  config.view_latent_jitter = 0.1f;
  const SyntheticDataset synth = make_synthetic(config);
  rng::Generator gen(2);
  int a = -1;
  int c = -1;
  for (std::size_t i = 0; i < synth.train.labels.size(); ++i) {
    if (synth.train.labels[i] == 0 && a < 0) a = static_cast<int>(i);
    if (synth.train.labels[i] == 1 && c < 0) c = static_cast<int>(i);
  }
  ASSERT_GE(a, 0);
  ASSERT_GE(c, 0);
  double same = 0.0;
  double cross = 0.0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    const auto va1 = synth.oracle.render_view(
        tensor::take_rows(synth.train.latents, {a}), gen);
    const auto va2 = synth.oracle.render_view(
        tensor::take_rows(synth.train.latents, {a}), gen);
    const auto vc = synth.oracle.render_view(
        tensor::take_rows(synth.train.latents, {c}), gen);
    same += tensor::pairwise_sq_dists(va1, va2)(0, 0);
    cross += tensor::pairwise_sq_dists(va1, vc)(0, 0);
  }
  EXPECT_LT(same, cross);
}

TEST(Dataset, SubsetSelectsRowsLabelsLatents) {
  const SyntheticDataset synth = make_synthetic(small_config());
  const Dataset subset = synth.train.subset({5, 5, 10});
  EXPECT_EQ(subset.size(), 3);
  EXPECT_EQ(subset.labels[0], synth.train.labels[5]);
  EXPECT_EQ(subset.labels[1], synth.train.labels[5]);
  EXPECT_EQ(subset.labels[2], synth.train.labels[10]);
  EXPECT_TRUE(tensor::allclose(subset.latents.row_copy(2),
                               synth.train.latents.row_copy(10)));
  EXPECT_EQ(subset.oracle, synth.train.oracle);
  EXPECT_THROW(synth.train.subset({-1}), CheckError);
}

TEST(Dataset, HistogramAndByClass) {
  Dataset dataset;
  dataset.x = tensor::Tensor::zeros(5, 2);
  dataset.labels = {0, 1, 1, 2, -1};
  dataset.num_classes = 3;
  const std::vector<int> histogram = dataset.class_histogram();
  EXPECT_EQ(histogram, (std::vector<int>{1, 2, 1}));
  const auto by_class = dataset.indices_by_class();
  EXPECT_EQ(by_class[1], (std::vector<int>{1, 2}));
}

TEST(Batches, CoverAllIndicesOnce) {
  rng::Generator gen(3);
  const auto batches = make_batches(50, 16, gen);
  std::set<int> seen;
  for (const auto& batch : batches) {
    for (const int index : batch) {
      EXPECT_TRUE(seen.insert(index).second) << "duplicate index";
    }
  }
  EXPECT_EQ(seen.size(), 50u);
}

TEST(Batches, MinBatchDropsSmallTail) {
  rng::Generator gen(4);
  const auto batches = make_batches(33, 16, gen, /*min_batch=*/4);
  // 16 + 16 + 1: the final 1-element batch is dropped.
  EXPECT_EQ(batches.size(), 2u);
}

TEST(Augment, PreservesShapeAndMasksFeatures) {
  rng::Generator gen(5);
  const tensor::Tensor x = tensor::Tensor::full(4, 20, 1.0f);
  AugmentConfig config;
  config.noise_std = 0.0f;
  config.scale_jitter = 0.0f;
  config.mask_fraction = 0.25f;
  const tensor::Tensor view = augment(x, config, gen);
  EXPECT_EQ(view.rows(), 4);
  EXPECT_EQ(view.cols(), 20);
  // Exactly 5 features per row are zeroed.
  for (std::int64_t r = 0; r < 4; ++r) {
    int zeros = 0;
    for (std::int64_t c = 0; c < 20; ++c) {
      if (view(r, c) == 0.0f) ++zeros;
    }
    EXPECT_EQ(zeros, 5);
  }
}

TEST(Augment, PairProducesDistinctViews) {
  rng::Generator gen(6);
  const tensor::Tensor x = tensor::Tensor::full(2, 10, 1.0f);
  const TwoViews views = augment_pair(x, AugmentConfig{}, gen);
  EXPECT_FALSE(tensor::allclose(views.view1, views.view2, 1e-4f));
}

// --- partitioners -------------------------------------------------------------

struct PartitionCase {
  int num_clients;
  int samples_per_client;
  int classes_per_client;
};

class QuantityPartitionProperty
    : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(QuantityPartitionProperty, ExactClassCountAndSampleCount) {
  const PartitionCase param = GetParam();
  const SyntheticDataset synth = make_synthetic(small_config());
  PartitionConfig config;
  config.num_clients = param.num_clients;
  config.samples_per_client = param.samples_per_client;
  config.test_samples_per_client = 30;
  rng::Generator gen(7);
  const Partition partition =
      partition_quantity(synth.train, synth.test, config,
                         param.classes_per_client, gen);
  ASSERT_EQ(partition.num_clients(), param.num_clients);
  for (int c = 0; c < param.num_clients; ++c) {
    const auto& shard = partition.train_indices[static_cast<std::size_t>(c)];
    EXPECT_EQ(static_cast<int>(shard.size()), param.samples_per_client);
    std::set<int> classes;
    for (const int index : shard) {
      classes.insert(synth.train.labels[static_cast<std::size_t>(index)]);
    }
    EXPECT_EQ(static_cast<int>(classes.size()), param.classes_per_client);
    // Test shard holds only the client's classes.
    for (const int index :
         partition.test_indices[static_cast<std::size_t>(c)]) {
      EXPECT_TRUE(classes.count(
          synth.test.labels[static_cast<std::size_t>(index)]));
    }
    EXPECT_EQ(partition.test_indices[static_cast<std::size_t>(c)].size(),
              30u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, QuantityPartitionProperty,
    ::testing::Values(PartitionCase{4, 40, 2}, PartitionCase{10, 25, 1},
                      PartitionCase{7, 60, 3}, PartitionCase{3, 50, 5}));

TEST(QuantityPartition, CoversAllClassesAcrossClients) {
  const SyntheticDataset synth = make_synthetic(small_config());
  PartitionConfig config;
  config.num_clients = 10;
  config.samples_per_client = 20;
  config.test_samples_per_client = 10;
  rng::Generator gen(8);
  const Partition partition =
      partition_quantity(synth.train, synth.test, config, 2, gen);
  std::set<int> all_classes;
  for (int c = 0; c < partition.num_clients(); ++c) {
    for (const int index :
         partition.train_indices[static_cast<std::size_t>(c)]) {
      all_classes.insert(synth.train.labels[static_cast<std::size_t>(index)]);
    }
  }
  EXPECT_EQ(static_cast<int>(all_classes.size()), synth.train.num_classes);
}

class DirichletPartitionProperty : public ::testing::TestWithParam<double> {};

TEST_P(DirichletPartitionProperty, SampleCountsAndDistributionMatch) {
  const double alpha = GetParam();
  const SyntheticDataset synth = make_synthetic(small_config());
  PartitionConfig config;
  config.num_clients = 8;
  config.samples_per_client = 50;
  config.test_samples_per_client = 25;
  rng::Generator gen(9);
  const Partition partition =
      partition_dirichlet(synth.train, synth.test, config, alpha, gen);
  const auto train_props = class_proportions(synth.train, partition, true);
  const auto test_props = class_proportions(synth.test, partition, false);
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(partition.train_indices[static_cast<std::size_t>(c)].size(),
              50u);
    EXPECT_EQ(partition.test_indices[static_cast<std::size_t>(c)].size(),
              25u);
    // Test distribution tracks the train distribution per client.
    for (std::size_t k = 0; k < train_props[static_cast<std::size_t>(c)].size();
         ++k) {
      EXPECT_NEAR(train_props[static_cast<std::size_t>(c)][k],
                  test_props[static_cast<std::size_t>(c)][k], 0.06);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, DirichletPartitionProperty,
                         ::testing::Values(0.1, 0.3, 1.0, 10.0));

TEST(DirichletPartition, SmallAlphaIsMoreSkewed) {
  const SyntheticDataset synth = make_synthetic(small_config());
  PartitionConfig config;
  config.num_clients = 12;
  config.samples_per_client = 50;
  config.test_samples_per_client = 20;
  rng::Generator gen1(10);
  rng::Generator gen2(10);
  const Partition skewed =
      partition_dirichlet(synth.train, synth.test, config, 0.1, gen1);
  const Partition flat =
      partition_dirichlet(synth.train, synth.test, config, 100.0, gen2);
  auto mean_max_proportion = [&](const Partition& partition) {
    const auto proportions = class_proportions(synth.train, partition, true);
    double total = 0.0;
    for (const auto& row : proportions) {
      total += *std::max_element(row.begin(), row.end());
    }
    return total / static_cast<double>(proportions.size());
  };
  EXPECT_GT(mean_max_proportion(skewed), mean_max_proportion(flat) + 0.2);
}

TEST(IidPartition, NearUniformClassMix) {
  const SyntheticDataset synth = make_synthetic(small_config());
  PartitionConfig config;
  config.num_clients = 5;
  config.samples_per_client = 100;
  config.test_samples_per_client = 25;
  rng::Generator gen(11);
  const Partition partition =
      partition_iid(synth.train, synth.test, config, gen);
  const auto proportions = class_proportions(synth.train, partition, true);
  for (const auto& row : proportions) {
    for (const double p : row) {
      EXPECT_NEAR(p, 0.2, 0.05);
    }
  }
}

TEST(Partition, InvalidArgumentsThrow) {
  const SyntheticDataset synth = make_synthetic(small_config());
  PartitionConfig config;
  rng::Generator gen(12);
  config.num_clients = 0;
  EXPECT_THROW(partition_iid(synth.train, synth.test, config, gen),
               CheckError);
  config.num_clients = 2;
  EXPECT_THROW(
      partition_quantity(synth.train, synth.test, config, 0, gen),
      CheckError);
  EXPECT_THROW(
      partition_quantity(synth.train, synth.test, config, 99, gen),
      CheckError);
  EXPECT_THROW(
      partition_dirichlet(synth.train, synth.test, config, 0.0, gen),
      CheckError);
}

// --- pinned partitions -------------------------------------------------------
//
// FNV-1a over every client's train then test index list (length, then the
// indices), in client order. The constants were recorded while each client's
// list was still its own heap vector, so they pin that the flat index storage
// holds the same indices drawn in the same order.

std::uint64_t partition_hash(const Partition& partition) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto add = [&hash](std::uint32_t bits) {
    for (int b = 0; b < 32; b += 8) {
      hash ^= (bits >> b) & 0xFFu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (int c = 0; c < partition.num_clients(); ++c) {
    for (const IndexLists* side :
         {&partition.train_indices, &partition.test_indices}) {
      const std::span<const int> shard = (*side)[static_cast<std::size_t>(c)];
      add(static_cast<std::uint32_t>(shard.size()));
      for (const int index : shard) add(static_cast<std::uint32_t>(index));
    }
  }
  return hash;
}

PartitionConfig golden_partition_config() {
  PartitionConfig config;
  config.num_clients = 9;
  config.samples_per_client = 40;
  config.test_samples_per_client = 15;
  return config;
}

TEST(PartitionGolden, Iid) {
  const SyntheticDataset synth = make_synthetic(small_config());
  rng::Generator gen(31);
  const std::uint64_t hash = partition_hash(partition_iid(
      synth.train, synth.test, golden_partition_config(), gen));
  EXPECT_EQ(hash, 0xbc2b2d5d46d9cd4cULL) << "0x" << std::hex << hash;
}

TEST(PartitionGolden, Quantity) {
  const SyntheticDataset synth = make_synthetic(small_config());
  rng::Generator gen(32);
  const std::uint64_t hash = partition_hash(partition_quantity(
      synth.train, synth.test, golden_partition_config(), 2, gen));
  EXPECT_EQ(hash, 0x2c9761842fa33325ULL) << "0x" << std::hex << hash;
}

TEST(PartitionGolden, Dirichlet) {
  const SyntheticDataset synth = make_synthetic(small_config());
  rng::Generator gen(33);
  const std::uint64_t hash = partition_hash(partition_dirichlet(
      synth.train, synth.test, golden_partition_config(), 0.3, gen));
  EXPECT_EQ(hash, 0x95197cecb394cf38ULL) << "0x" << std::hex << hash;
}


// --- partition runs ----------------------------------------------------------
//
// The partitioners append whole runs of each class pool. The reference below
// is the per-element path that runs replaced, copied here: one draw per
// index, reshuffling an exhausted pool at the moment its next index is
// drawn. Both must give the same lists and leave the generator in the same
// state.

class PerElementPools {
 public:
  PerElementPools(const Dataset& dataset, rng::Generator& gen)
      : pools_(dataset.indices_by_class()), cursors_(pools_.size(), 0),
        gen_(&gen) {
    for (auto& pool : pools_) gen.shuffle(pool);
  }

  int draw(std::size_t klass) {
    auto& pool = pools_[klass];
    auto& cursor = cursors_[klass];
    if (cursor >= pool.size()) {
      gen_->shuffle(pool);
      cursor = 0;
    }
    return pool[cursor++];
  }

 private:
  std::vector<std::vector<int>> pools_;
  std::vector<std::size_t> cursors_;
  rng::Generator* gen_;
};

std::vector<int> reference_counts(const std::vector<double>& proportions,
                                  int n) {
  std::vector<int> counts(proportions.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  int assigned = 0;
  for (std::size_t k = 0; k < proportions.size(); ++k) {
    const double exact = proportions[k] * n;
    counts[k] = static_cast<int>(std::floor(exact));
    assigned += counts[k];
    remainders.emplace_back(exact - counts[k], k);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (int i = 0; assigned < n; ++i, ++assigned) {
    ++counts[remainders[static_cast<std::size_t>(i) % remainders.size()]
                 .second];
  }
  return counts;
}

enum class Split { kIid, kQuantity, kDirichlet };

// Per-element copy of partition_iid / partition_quantity /
// partition_dirichlet: the lists of every client, train then test.
std::vector<std::vector<int>> reference_partition(
    Split split, const Dataset& train, const Dataset& test,
    const PartitionConfig& config, rng::Generator& gen) {
  PerElementPools train_pools(train, gen);
  PerElementPools test_pools(test, gen);
  const std::size_t classes = static_cast<std::size_t>(train.num_classes);
  std::vector<int> deck;
  std::vector<std::vector<int>> lists;
  for (int c = 0; c < config.num_clients; ++c) {
    std::vector<double> proportions(classes, 1.0 / train.num_classes);
    if (split == Split::kQuantity) {  // two classes per client
      std::vector<int> chosen;
      while (chosen.size() < 2) {
        if (deck.empty()) {
          std::vector<int> fresh(classes);
          for (std::size_t k = 0; k < classes; ++k) {
            fresh[k] = static_cast<int>(k);
          }
          gen.shuffle(fresh);
          deck.insert(deck.end(), fresh.begin(), fresh.end());
        }
        const int klass = deck.back();
        deck.pop_back();
        if (std::find(chosen.begin(), chosen.end(), klass) == chosen.end()) {
          chosen.push_back(klass);
        }
      }
      proportions.assign(classes, 0.0);
      for (const int klass : chosen) {
        proportions[static_cast<std::size_t>(klass)] = 0.5;
      }
    } else if (split == Split::kDirichlet) {
      proportions = gen.dirichlet(0.3, train.num_classes);
    }
    const std::vector<int> train_counts =
        reference_counts(proportions, config.samples_per_client);
    std::vector<double> mirrored(classes);
    for (std::size_t k = 0; k < classes; ++k) {
      mirrored[k] = static_cast<double>(train_counts[k]) /
                    config.samples_per_client;
    }
    const std::vector<int> test_counts =
        reference_counts(mirrored, config.test_samples_per_client);
    for (auto [pools, counts] :
         {std::pair{&train_pools, &train_counts},
          std::pair{&test_pools, &test_counts}}) {
      std::vector<int>& list = lists.emplace_back();
      for (std::size_t k = 0; k < classes; ++k) {
        for (int i = 0; i < (*counts)[k]; ++i) list.push_back(pools->draw(k));
      }
    }
  }
  return lists;
}

// Labels only: the partitioners never read features. Class k has
// `sizes[k]` samples, interleaved so no class is contiguous.
Dataset labelled(const std::vector<int>& sizes) {
  Dataset dataset;
  dataset.num_classes = static_cast<int>(sizes.size());
  std::vector<int> left = sizes;
  for (bool any = true; any;) {
    any = false;
    for (std::size_t k = 0; k < left.size(); ++k) {
      if (left[k] > 0) {
        dataset.labels.push_back(static_cast<int>(k));
        --left[k];
        any = true;
      }
    }
  }
  return dataset;
}

TEST(PartitionRuns, MatchPerElementDraws) {
  // Class 0 is a one-sample pool and class 1 holds 3 samples, so one
  // client's run of class 1 spans several reshuffles. Four samples per
  // client over four classes, or two classes per client, leave zero counts.
  const Dataset train = labelled({1, 3, 50, 7});
  const Dataset test = labelled({2, 1, 20, 5});
  const SyntheticDataset synth = make_synthetic(small_config());
  struct Case {
    const Dataset* train;
    const Dataset* test;
    int clients;
    int samples;
    int test_samples;
  };
  const Case cases[] = {{&train, &test, 6, 40, 20},
                        {&train, &test, 9, 4, 3},
                        {&synth.train, &synth.test, 7, 300, 90}};
  for (const Case& each : cases) {
    PartitionConfig config;
    config.num_clients = each.clients;
    config.samples_per_client = each.samples;
    config.test_samples_per_client = each.test_samples;
    for (const Split split :
         {Split::kIid, Split::kQuantity, Split::kDirichlet}) {
      const std::uint64_t seed = 0x5eed + static_cast<std::uint64_t>(split);
      const Dataset& train_split = *each.train;
      const Dataset& test_split = *each.test;
      rng::Generator gen(seed);
      Partition partition;
      if (split == Split::kIid) {
        partition = partition_iid(train_split, test_split, config, gen);
      } else if (split == Split::kQuantity) {
        partition =
            partition_quantity(train_split, test_split, config, 2, gen);
      } else {
        partition =
            partition_dirichlet(train_split, test_split, config, 0.3, gen);
      }
      rng::Generator reference_gen(seed);
      const std::vector<std::vector<int>> expected = reference_partition(
          split, train_split, test_split, config, reference_gen);
      const std::string where =
          "split " + std::to_string(static_cast<int>(split)) + ", " +
          std::to_string(each.clients) + " clients";
      ASSERT_EQ(partition.num_clients(), each.clients) << where;
      for (std::size_t c = 0; c < expected.size() / 2; ++c) {
        const std::span<const int> train_list = partition.train_indices[c];
        const std::span<const int> test_list = partition.test_indices[c];
        EXPECT_EQ(std::vector<int>(train_list.begin(), train_list.end()),
                  expected[2 * c])
            << where << ", client " << c << " train";
        EXPECT_EQ(std::vector<int>(test_list.begin(), test_list.end()),
                  expected[2 * c + 1])
            << where << ", client " << c << " test";
      }
      EXPECT_EQ(gen.next_u64(), reference_gen.next_u64()) << where;
    }
  }
}

}  // namespace
}  // namespace calibre::data
