// Non-IID client partitioners (paper §V "Non-i.i.d. settings").
//
// * Quantity-based label non-IID, "(S, #samples)": each client holds samples
//   from exactly S classes and the same total sample count.
// * Distribution-based label non-IID, "(alpha, #samples)": each client's
//   class mix is drawn from Dirichlet(alpha); alpha = 0.3 in the paper.
//
// Each client also receives a private *test* shard whose class distribution
// matches its train shard ("the input x' used to predict y' is the sample of
// the test set that has a consistent class distribution with the training
// set" — paper §IV-A).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace calibre::data {

// Per-client index lists in one flat CSR buffer: list c is
// values[offsets[c], offsets[c + 1]). Immutable once built and held through
// a shared_ptr, so a copy (Partition -> FedDataset) aliases the buffer: a
// population's lists are held once however many views share them.
class IndexLists {
 public:
  // Appends lists in order into a buffer reserved for exactly `lists` lists
  // holding `total` indices between them; build() checks both counts.
  class Builder {
   public:
    Builder(std::size_t lists, std::size_t total);
    // Appends a run of indices to the list being built.
    void append(std::span<const int> run) {
      values_.insert(values_.end(), run.begin(), run.end());
    }
    void end_list() { offsets_.push_back(values_.size()); }
    IndexLists build() &&;

   private:
    std::size_t lists_;
    std::size_t total_;
    std::vector<int> values_;
    std::vector<std::size_t> offsets_;
  };

  IndexLists() = default;  // no lists
  // Packs hand-built lists (tests, small tools).
  static IndexLists from_lists(const std::vector<std::vector<int>>& lists);

  std::size_t size() const {
    return storage_ ? storage_->offsets.size() - 1 : 0;
  }
  std::span<const int> operator[](std::size_t c) const {
    const std::vector<std::size_t>& offsets = storage_->offsets;
    return {storage_->values.data() + offsets[c], offsets[c + 1] - offsets[c]};
  }
  // Every list back to back.
  const std::vector<int>& flat() const { return storage_->values; }
  // Heap bytes held by the buffer and its offsets.
  std::size_t storage_bytes() const;

 private:
  struct Storage {
    std::vector<int> values;
    std::vector<std::size_t> offsets;  // size() + 1 entries, front() == 0
  };
  std::shared_ptr<const Storage> storage_;
};

// Index shards into a shared train/test Dataset pair, one list per client.
struct Partition {
  IndexLists train_indices;
  IndexLists test_indices;

  int num_clients() const { return static_cast<int>(train_indices.size()); }
};

struct PartitionConfig {
  int num_clients = 100;
  int samples_per_client = 100;       // train samples per client
  int test_samples_per_client = 60;   // test samples per client
};

// IID baseline partition (uniform class mix per client).
Partition partition_iid(const Dataset& train, const Dataset& test,
                        const PartitionConfig& config, rng::Generator& gen);

// Quantity-based label non-IID: `classes_per_client` classes per client.
Partition partition_quantity(const Dataset& train, const Dataset& test,
                             const PartitionConfig& config,
                             int classes_per_client, rng::Generator& gen);

// Distribution-based label non-IID: Dirichlet(`alpha`) class proportions.
Partition partition_dirichlet(const Dataset& train, const Dataset& test,
                              const PartitionConfig& config, double alpha,
                              rng::Generator& gen);

// Per-client class proportions actually realised by a partition (rows sum
// to 1); used by tests and reporting.
std::vector<std::vector<double>> class_proportions(const Dataset& dataset,
                                                   const Partition& partition,
                                                   bool train_side);

}  // namespace calibre::data
