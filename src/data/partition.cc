#include "data/partition.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace calibre::data {
namespace {

// Per-class index pools with wrap-around: drawing more samples than the pool
// holds reshuffles and reuses it. This keeps partitioners valid for any
// (num_clients, samples_per_client) combination; reuse across clients is the
// documented substitute for the paper's larger raw datasets.
class ClassPools {
 public:
  ClassPools(const Dataset& dataset, rng::Generator& gen)
      : pools_(dataset.indices_by_class()), cursors_(pools_.size(), 0),
        gen_(&gen) {
    for (auto& pool : pools_) {
      CALIBRE_CHECK_MSG(!pool.empty(), "dataset missing samples for a class");
      gen.shuffle(pool);
    }
  }

  // Appends the next `count` indices of class `klass` to `lists`, in whole
  // runs from the pool's cursor. An exhausted pool is reshuffled only when
  // one more index is actually needed, so the lists and the generator's
  // state match drawing the indices one at a time.
  void append(std::size_t klass, std::size_t count,
              IndexLists::Builder& lists) {
    std::vector<int>& pool = pools_[klass];
    std::size_t& cursor = cursors_[klass];
    while (count > 0) {
      if (cursor == pool.size()) {
        gen_->shuffle(pool);
        cursor = 0;
      }
      const std::size_t run = std::min(count, pool.size() - cursor);
      lists.append({pool.data() + cursor, run});
      cursor += run;
      count -= run;
    }
  }

 private:
  std::vector<std::vector<int>> pools_;
  std::vector<std::size_t> cursors_;
  rng::Generator* gen_;
};

// Converts fractional class proportions into integer counts summing to n.
std::vector<int> proportions_to_counts(const std::vector<double>& proportions,
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

// The test counts that mirror `train_counts`' class proportions at
// test_samples_per_client scale.
std::vector<int> mirrored_test_counts(const std::vector<int>& train_counts,
                                      const PartitionConfig& config) {
  int total = 0;
  for (const int count : train_counts) total += count;
  CALIBRE_CHECK(total > 0);
  std::vector<double> proportions(train_counts.size(), 0.0);
  for (std::size_t k = 0; k < train_counts.size(); ++k) {
    proportions[k] = static_cast<double>(train_counts[k]) / total;
  }
  return proportions_to_counts(proportions, config.test_samples_per_client);
}

// A partition under construction: the per-class pools it draws from and
// both sides' index lists, each reserved for exactly num_clients lists of the
// configured per-client size.
class PartitionBuilder {
 public:
  PartitionBuilder(const Dataset& train, const Dataset& test,
                   const PartitionConfig& config, rng::Generator& gen)
      : train_pools_(train, gen),
        test_pools_(test, gen),
        train_(static_cast<std::size_t>(config.num_clients),
               static_cast<std::size_t>(config.num_clients) *
                   static_cast<std::size_t>(config.samples_per_client)),
        test_(static_cast<std::size_t>(config.num_clients),
              static_cast<std::size_t>(config.num_clients) *
                  static_cast<std::size_t>(config.test_samples_per_client)) {}

  // Appends one client's train then test shard: `*_counts[k]` indices of
  // class k, drawn from the matching pool.
  void add_client(const std::vector<int>& train_counts,
                  const std::vector<int>& test_counts) {
    append(train_counts, train_pools_, train_);
    append(test_counts, test_pools_, test_);
  }

  Partition build() && {
    return {std::move(train_).build(), std::move(test_).build()};
  }

 private:
  static void append(const std::vector<int>& counts, ClassPools& pools,
                     IndexLists::Builder& lists) {
    for (std::size_t k = 0; k < counts.size(); ++k) {
      pools.append(k, static_cast<std::size_t>(counts[k]), lists);
    }
    lists.end_list();
  }

  ClassPools train_pools_;
  ClassPools test_pools_;
  IndexLists::Builder train_;
  IndexLists::Builder test_;
};

void check_inputs(const Dataset& train, const Dataset& test,
                  const PartitionConfig& config) {
  CALIBRE_CHECK(config.num_clients > 0);
  CALIBRE_CHECK(config.samples_per_client > 0);
  CALIBRE_CHECK(config.test_samples_per_client > 0);
  CALIBRE_CHECK(train.num_classes == test.num_classes);
  CALIBRE_CHECK(train.num_classes > 0);
}

}  // namespace

IndexLists::Builder::Builder(std::size_t lists, std::size_t total)
    : lists_(lists), total_(total) {
  values_.reserve(total);
  offsets_.reserve(lists + 1);
  offsets_.push_back(0);
}

IndexLists IndexLists::Builder::build() && {
  CALIBRE_CHECK_MSG(offsets_.size() == lists_ + 1 && values_.size() == total_,
                    "built " << offsets_.size() - 1 << " lists of "
                             << values_.size() << " indices, reserved "
                             << lists_ << " of " << total_);
  IndexLists out;
  out.storage_ = std::make_shared<const Storage>(
      Storage{std::move(values_), std::move(offsets_)});
  return out;
}

IndexLists IndexLists::from_lists(const std::vector<std::vector<int>>& lists) {
  std::size_t total = 0;
  for (const auto& list : lists) total += list.size();
  Builder builder(lists.size(), total);
  for (const auto& list : lists) {
    builder.append(list);
    builder.end_list();
  }
  return std::move(builder).build();
}

std::size_t IndexLists::storage_bytes() const {
  if (!storage_) return 0;
  return storage_->values.capacity() * sizeof(int) +
         storage_->offsets.capacity() * sizeof(std::size_t);
}

Partition partition_iid(const Dataset& train, const Dataset& test,
                        const PartitionConfig& config, rng::Generator& gen) {
  check_inputs(train, test, config);
  PartitionBuilder partition(train, test, config, gen);
  // Every client gets the same uniform class mix.
  const std::vector<double> uniform(
      static_cast<std::size_t>(train.num_classes),
      1.0 / train.num_classes);
  const std::vector<int> train_counts =
      proportions_to_counts(uniform, config.samples_per_client);
  const std::vector<int> test_counts =
      mirrored_test_counts(train_counts, config);
  for (int c = 0; c < config.num_clients; ++c) {
    partition.add_client(train_counts, test_counts);
  }
  return std::move(partition).build();
}

Partition partition_quantity(const Dataset& train, const Dataset& test,
                             const PartitionConfig& config,
                             int classes_per_client, rng::Generator& gen) {
  check_inputs(train, test, config);
  CALIBRE_CHECK_MSG(
      classes_per_client > 0 && classes_per_client <= train.num_classes,
      "classes_per_client=" << classes_per_client);
  PartitionBuilder partition(train, test, config, gen);

  // Deal classes from reshuffled decks so every class is assigned to roughly
  // the same number of clients (the paper assigns S fixed labels per client).
  std::vector<int> deck;
  auto refill = [&] {
    std::vector<int> fresh(static_cast<std::size_t>(train.num_classes));
    for (int k = 0; k < train.num_classes; ++k) {
      fresh[static_cast<std::size_t>(k)] = k;
    }
    gen.shuffle(fresh);
    deck.insert(deck.end(), fresh.begin(), fresh.end());
  };

  for (int c = 0; c < config.num_clients; ++c) {
    std::vector<int> chosen;
    while (static_cast<int>(chosen.size()) < classes_per_client) {
      if (deck.empty()) refill();
      const int klass = deck.back();
      deck.pop_back();
      if (std::find(chosen.begin(), chosen.end(), klass) == chosen.end()) {
        chosen.push_back(klass);
      }
    }
    std::vector<double> proportions(
        static_cast<std::size_t>(train.num_classes), 0.0);
    for (const int klass : chosen) {
      proportions[static_cast<std::size_t>(klass)] =
          1.0 / classes_per_client;
    }
    const std::vector<int> train_counts =
        proportions_to_counts(proportions, config.samples_per_client);
    partition.add_client(train_counts,
                         mirrored_test_counts(train_counts, config));
  }
  return std::move(partition).build();
}

Partition partition_dirichlet(const Dataset& train, const Dataset& test,
                              const PartitionConfig& config, double alpha,
                              rng::Generator& gen) {
  check_inputs(train, test, config);
  CALIBRE_CHECK(alpha > 0.0);
  PartitionBuilder partition(train, test, config, gen);
  for (int c = 0; c < config.num_clients; ++c) {
    const std::vector<double> proportions =
        gen.dirichlet(alpha, train.num_classes);
    const std::vector<int> train_counts =
        proportions_to_counts(proportions, config.samples_per_client);
    partition.add_client(train_counts,
                         mirrored_test_counts(train_counts, config));
  }
  return std::move(partition).build();
}

std::vector<std::vector<double>> class_proportions(const Dataset& dataset,
                                                   const Partition& partition,
                                                   bool train_side) {
  const IndexLists& shards =
      train_side ? partition.train_indices : partition.test_indices;
  std::vector<std::vector<double>> out;
  out.reserve(shards.size());
  for (std::size_t c = 0; c < shards.size(); ++c) {
    const std::span<const int> shard = shards[c];
    std::vector<double> proportions(
        static_cast<std::size_t>(dataset.num_classes), 0.0);
    for (const int index : shard) {
      const int label = dataset.labels[static_cast<std::size_t>(index)];
      if (label >= 0) proportions[static_cast<std::size_t>(label)] += 1.0;
    }
    const double total = static_cast<double>(shard.size());
    if (total > 0) {
      for (auto& p : proportions) p /= total;
    }
    out.push_back(std::move(proportions));
  }
  return out;
}

}  // namespace calibre::data
