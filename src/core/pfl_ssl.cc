#include "core/pfl_ssl.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <numeric>

#include "common/check.h"
#include "data/augment.h"
#include "data/dataset.h"
#include "flapi/probe.h"
#include "nn/optim.h"

namespace calibre::core {

namespace {

// Rows per encode() call when a table block is encoded. Small enough that
// the activations stay in small per-thread tensor-pool buckets, which the
// device threads keep after the stage (larger slices raise peak RSS), large
// enough to keep the GEMMs efficient. The bits do not depend on it: a row's
// features do not depend on the rows encoded with it
// (EncoderRowInvariance.*).
constexpr std::size_t kSliceRows = 64;

}  // namespace

// The feature table of one sweep. Its positions are grouped, in sweep
// order, into blocks whose distinct rows' features fit the budget of
// resolve_threads(config) x |state| floats. A block takes a region of the
// table's storage when its first client enters it and gives it back when
// its last client has gathered, so the regions in use never exceed the
// budget. The storage is one buffer per sweep, freed with the table: a
// buffer per block left freed blocks cached in the device threads' malloc
// arenas (about +2 MB peak RSS on calibre_cifar10). Everything but the
// feature values is guarded by tables_mutex_; a slice's values are written
// by the thread that claimed it and read only after the block's encode
// finished.
struct PflSsl::SweepTable {
  struct Block {
    std::vector<int> train_rows;  // distinct rows of the base splits,
    std::vector<int> test_rows;   // ascending
    int unreleased = 0;           // positions that have not released it
    bool oversize = false;        // one client over budget: never tabled
    std::exception_ptr error;     // the first slice encode that threw
    // Offset in the storage of the block's (train_rows + test_rows) x
    // feature_dim floats, while it holds a region.
    std::optional<std::size_t> region;
    std::size_t next_slice = 0;
    std::size_t done_slices = 0;

    std::size_t rows() const { return train_rows.size() + test_rows.size(); }
    std::size_t train_slices() const {
      return (train_rows.size() + kSliceRows - 1) / kSliceRows;
    }
    std::size_t slices() const {
      return train_slices() + (test_rows.size() + kSliceRows - 1) / kSliceRows;
    }
  };

  // The sweep's global state, as passed by its first tabled position.
  const nn::ModelState* state = nullptr;
  std::size_t feature_dim = 0;
  std::size_t budget = 0;                 // floats
  std::vector<int> block_of;              // per position; -1: on its own
  std::vector<bool> arrived;              // per position
  std::vector<Block> blocks;
  std::size_t unreleased = 0;             // positions not yet released
  std::size_t capacity = 0;  // floats: min(budget, all tabled blocks)
  std::vector<float> storage;             // allocated on first use

  // The first offset where `floats` fit between the regions in use.
  std::optional<std::size_t> find_room(std::size_t floats) const {
    std::vector<std::pair<std::size_t, std::size_t>> taken;
    for (const Block& block : blocks) {
      if (block.region) {
        taken.emplace_back(*block.region,
                           *block.region + block.rows() * feature_dim);
      }
    }
    std::sort(taken.begin(), taken.end());
    std::size_t cursor = 0;
    for (const auto& [begin, end] : taken) {
      if (begin - cursor >= floats) return cursor;
      cursor = end;
    }
    if (capacity - cursor >= floats) return cursor;
    return std::nullopt;
  }
};

PflSsl::PflSsl(const fl::FlConfig& config, ssl::Kind kind,
               const ssl::SslConfig& ssl_config)
    : fl::Algorithm(config), kind_(kind), ssl_config_(ssl_config) {}

PflSsl::~PflSsl() = default;

std::string PflSsl::name() const { return "pFL-" + ssl::kind_name(kind_); }

std::unique_ptr<ssl::SslMethod> PflSsl::build_method() const {
  return ssl::make_method(kind_, config_.encoder, ssl_config_, config_.seed);
}

PflSsl::MethodLease::MethodLease(const PflSsl& owner,
                                 std::unique_ptr<ssl::SslMethod> method)
    : owner_(owner), method_(std::move(method)) {}

PflSsl::MethodLease::~MethodLease() {
  const std::lock_guard<std::mutex> lock(owner_.methods_mutex_);
  owner_.free_methods_.push_back(std::move(method_));
}

PflSsl::MethodLease PflSsl::lease_method() const {
  std::unique_ptr<ssl::SslMethod> method;
  {
    const std::lock_guard<std::mutex> lock(methods_mutex_);
    if (!free_methods_.empty()) {
      method = std::move(free_methods_.back());
      free_methods_.pop_back();
    }
  }
  if (method == nullptr) {
    method = build_method();
    const std::lock_guard<std::mutex> lock(methods_mutex_);
    if (!initial_) {
      initial_ = InitialValues{
          nn::ModelState::from_parameters(method->shared_parameters()),
          method->save_private_state()};
    }
  }
  // initial_ is written once, under the mutex, before any method reaches
  // the free list, so every caller that gets here has held the mutex since
  // it was written, and it never changes again.
  method->restore_private_state(initial_->private_state);
  return MethodLease(*this, std::move(method));
}

std::size_t PflSsl::idle_methods() const {
  const std::lock_guard<std::mutex> lock(methods_mutex_);
  return free_methods_.size();
}

std::size_t PflSsl::live_table_floats() const {
  const std::lock_guard<std::mutex> lock(tables_mutex_);
  return live_table_floats_;
}

std::size_t PflSsl::peak_table_floats() const {
  const std::lock_guard<std::mutex> lock(tables_mutex_);
  return peak_table_floats_;
}

nn::ModelState PflSsl::initialize() {
  // A leased method's shared parameters may be a previous borrower's, so
  // the initial global state is the first build's copy.
  const MethodLease method = lease_method();
  return initial_->shared;
}

void PflSsl::prepare_local_update(ssl::SslMethod& /*method*/,
                                  const fl::ClientContext& /*ctx*/,
                                  rng::Generator& /*gen*/,
                                  LocalScratch& /*scratch*/) {}

ag::VarPtr PflSsl::build_loss(ssl::SslMethod& /*method*/,
                              const ssl::SslForward& fwd,
                              rng::Generator& /*gen*/,
                              LocalScratch& /*scratch*/) {
  return fwd.loss;
}

void PflSsl::finalize_update(ssl::SslMethod& /*method*/,
                             const fl::ClientContext& /*ctx*/,
                             rng::Generator& /*gen*/,
                             fl::ClientUpdate& /*update*/) {}

bool PflSsl::personalizes_on_global(int /*client_id*/) const { return true; }

fl::ClientUpdate PflSsl::local_update(const nn::ModelState& global,
                                      const fl::ClientContext& ctx) {
  CALIBRE_CHECK(ctx.ssl_pool != nullptr && ctx.ssl_pool->rows() > 0);
  const MethodLease method = lease_method();
  global.apply_to(method->shared_parameters());

  rng::Generator gen(ctx.seed);
  LocalScratch scratch;
  prepare_local_update(*method, ctx, gen, scratch);
  nn::Sgd optimizer(method->trainable_parameters(), config_.ssl_opt);
  for (int epoch = 0; epoch < config_.local_epochs; ++epoch) {
    // NT-Xent style losses need a minimum batch to have negatives.
    const auto batches = data::make_batches(ctx.ssl_pool->rows(),
                                            config_.batch_size, gen,
                                            /*min_batch=*/4);
    for (const auto& batch : batches) {
      const tensor::Tensor x = tensor::take_rows(*ctx.ssl_pool, batch);
      tensor::Tensor view1;
      tensor::Tensor view2;
      if (ctx.oracle != nullptr) {
        view1 = ctx.oracle->render_view(x, gen);
        view2 = ctx.oracle->render_view(x, gen);
      } else {
        data::TwoViews views = data::augment_pair(x, config_.augment, gen);
        view1 = std::move(views.view1);
        view2 = std::move(views.view2);
      }
      optimizer.zero_grad();
      const ssl::SslForward fwd = method->forward(view1, view2);
      ag::backward(build_loss(*method, fwd, gen, scratch));
      optimizer.step();
      method->after_step();
    }
  }

  fl::ClientUpdate update;
  update.state = nn::ModelState::from_parameters(method->shared_parameters());
  update.weight = static_cast<float>(ctx.ssl_pool->rows());
  finalize_update(*method, ctx, gen, update);
  return update;
}

double PflSsl::personalize(const nn::ModelState& global,
                           const fl::PersonalizationContext& ctx) {
  tensor::Tensor train_features;
  tensor::Tensor test_features;
  if (ctx.sweep != nullptr) {
    sweep_features(global, *ctx.sweep, ctx.sweep_position, ctx,
                   train_features, test_features);
  } else {
    // A call on its own: a sweep of one client over its own datasets.
    std::vector<int> train_rows(static_cast<std::size_t>(ctx.train->size()));
    std::vector<int> test_rows(static_cast<std::size_t>(ctx.test->size()));
    std::iota(train_rows.begin(), train_rows.end(), 0);
    std::iota(test_rows.begin(), test_rows.end(), 0);
    fl::PersonalizationSweep own;
    own.id = fl::next_sweep_id();
    own.train = ctx.train;
    own.test = ctx.test;
    own.client_ids = {ctx.client_id};
    own.train_rows = {train_rows};
    own.test_rows = {test_rows};
    sweep_features(global, own, 0, ctx, train_features, test_features);
  }
  if (config_.probe.head == fl::ProbeConfig::Head::kPrototype) {
    return fl::prototype_probe_accuracy(train_features, ctx.train->labels,
                                        test_features, ctx.test->labels,
                                        config_.num_classes);
  }
  return fl::linear_probe_accuracy(train_features, ctx.train->labels,
                                   test_features, ctx.test->labels,
                                   config_.num_classes, config_.probe,
                                   ctx.seed);
}

std::unique_ptr<PflSsl::SweepTable> PflSsl::build_table(
    const nn::ModelState& global, const fl::PersonalizationSweep& sweep) const {
  auto table = std::make_unique<SweepTable>();
  table->feature_dim = static_cast<std::size_t>(config_.encoder.feature_dim);
  table->budget = fl::resolve_threads(config_) * global.size();
  table->block_of.assign(sweep.size(), -1);
  table->arrived.assign(sweep.size(), false);
  table->unreleased = sweep.size();

  // Greedy blocks in sweep order. `marks` flags the rows the open block
  // already holds, so a client adds only the rows that are new to it.
  std::vector<bool> train_marks(
      static_cast<std::size_t>(sweep.train->size()), false);
  std::vector<bool> test_marks(static_cast<std::size_t>(sweep.test->size()),
                               false);
  SweepTable::Block open;  // the block being filled
  auto add_rows = [](std::span<const int> rows, std::vector<bool>& marks,
                     std::vector<int>& held) {
    for (const int row : rows) {
      CALIBRE_CHECK(row >= 0 && static_cast<std::size_t>(row) < marks.size());
      if (!marks[static_cast<std::size_t>(row)]) {
        marks[static_cast<std::size_t>(row)] = true;
        held.push_back(row);
      }
    }
  };
  // Unmarks and drops the rows after the first `keep`.
  auto drop_rows = [](std::vector<int>& held, std::size_t keep,
                      std::vector<bool>& marks) {
    for (std::size_t i = keep; i < held.size(); ++i) {
      marks[static_cast<std::size_t>(held[i])] = false;
    }
    held.resize(keep);
  };
  auto over_budget = [&](const SweepTable::Block& block) {
    return block.rows() * table->feature_dim > table->budget;
  };
  auto finish_open = [&] {
    if (open.unreleased == 0) return;
    for (const int row : open.train_rows) {
      train_marks[static_cast<std::size_t>(row)] = false;
    }
    for (const int row : open.test_rows) {
      test_marks[static_cast<std::size_t>(row)] = false;
    }
    std::sort(open.train_rows.begin(), open.train_rows.end());
    std::sort(open.test_rows.begin(), open.test_rows.end());
    open.oversize = over_budget(open);
    if (open.oversize) {
      open.train_rows.clear();
      open.test_rows.clear();
    }
    table->blocks.push_back(std::move(open));
    open = SweepTable::Block{};
  };
  for (std::size_t position = 0; position < sweep.size(); ++position) {
    if (!personalizes_on_global(sweep.client_ids[position])) continue;
    const std::size_t train_before = open.train_rows.size();
    const std::size_t test_before = open.test_rows.size();
    add_rows(sweep.train_rows[position], train_marks, open.train_rows);
    add_rows(sweep.test_rows[position], test_marks, open.test_rows);
    if (open.unreleased > 0 && over_budget(open)) {
      // The client does not fit: the block closes without it and the next
      // one opens with it (alone, it may itself be over budget).
      drop_rows(open.train_rows, train_before, train_marks);
      drop_rows(open.test_rows, test_before, test_marks);
      finish_open();
      add_rows(sweep.train_rows[position], train_marks, open.train_rows);
      add_rows(sweep.test_rows[position], test_marks, open.test_rows);
    }
    table->block_of[position] = static_cast<int>(table->blocks.size());
    ++open.unreleased;
  }
  finish_open();
  for (const SweepTable::Block& block : table->blocks) {
    if (!block.oversize) table->capacity += block.rows() * table->feature_dim;
  }
  table->capacity = std::min(table->capacity, table->budget);
  return table;
}

void PflSsl::sweep_features(const nn::ModelState& global,
                            const fl::PersonalizationSweep& sweep,
                            int position,
                            const fl::PersonalizationContext& ctx,
                            tensor::Tensor& train, tensor::Tensor& test) {
  CALIBRE_CHECK(position >= 0 &&
                static_cast<std::size_t>(position) < sweep.size());
  const auto pos = static_cast<std::size_t>(position);
  CALIBRE_CHECK(ctx.train->size() ==
                    static_cast<std::int64_t>(sweep.train_rows[pos].size()) &&
                ctx.test->size() ==
                    static_cast<std::int64_t>(sweep.test_rows[pos].size()));
  SweepTable* table = nullptr;
  SweepTable::Block* block = nullptr;
  float* features = nullptr;  // the block's region, when the client uses it
  {
    std::unique_lock<std::mutex> lock(tables_mutex_);
    if (!tables_.contains(sweep.id)) {
      // Built without the lock (it asks personalizes_on_global); when
      // several first callers race, the first table in wins.
      lock.unlock();
      std::unique_ptr<SweepTable> built = build_table(global, sweep);
      lock.lock();
      tables_.try_emplace(sweep.id, std::move(built));
    }
    table = tables_.at(sweep.id).get();
    CALIBRE_CHECK_MSG(!table->arrived[pos],
                      "a sweep position was personalized twice");
    table->arrived[pos] = true;
    if (const int b = table->block_of[pos]; b >= 0) {
      if (table->state == nullptr) table->state = &global;
      CALIBRE_CHECK_MSG(&global == table->state,
                        "every call of a sweep passes the same global state");
      block = &table->blocks[static_cast<std::size_t>(b)];
      if (!block->oversize && !block->region) {
        // The block's first client gives it a region if the budget leaves
        // room; a client that finds no room encodes its own rows.
        const std::size_t floats = block->rows() * table->feature_dim;
        const std::optional<std::size_t> offset =
            live_table_floats_ + floats <= table->budget
                ? table->find_room(floats)
                : std::nullopt;
        if (offset) {
          table->storage.resize(table->capacity);
          block->region = offset;
          live_table_floats_ += floats;
          peak_table_floats_ = std::max(peak_table_floats_, live_table_floats_);
        }
      }
      if (block->region) features = table->storage.data() + *block->region;
    }
  }

  // Gives the position back, however this call ends. The block's last
  // client frees its features, the sweep's last position its table.
  bool released = false;
  auto release = [&] {
    if (released) return;
    released = true;
    const std::lock_guard<std::mutex> lock(tables_mutex_);
    if (block != nullptr && --block->unreleased == 0 && block->region) {
      live_table_floats_ -= block->rows() * table->feature_dim;
      block->region.reset();
    }
    if (--table->unreleased == 0) tables_.erase(sweep.id);
  };
  struct ReleaseOnExit {
    decltype(release)& fn;
    ~ReleaseOnExit() { fn(); }
  } release_on_exit{release};

  const std::size_t feature_dim = table->feature_dim;
  if (features != nullptr) {
    // Claims the block's next 64-row slice. When none is left it waits for
    // the slices other threads are still encoding and returns nothing. If
    // one of them threw, every client of the block rethrows its error: the
    // stage fails anyway, so nobody encodes its own rows instead.
    auto claim = [&]() -> std::optional<std::size_t> {
      std::unique_lock<std::mutex> lock(tables_mutex_);
      encoded_cv_.wait(lock, [&] {
        return block->error || block->next_slice < block->slices() ||
               block->done_slices == block->slices();
      });
      if (block->error) std::rethrow_exception(block->error);
      if (block->next_slice == block->slices()) return std::nullopt;
      return block->next_slice++;
    };
    if (std::optional<std::size_t> slice = claim()) {
      // One lease, so one apply_to, per thread and block it helps encode.
      const MethodLease method = lease_method();
      global.apply_to(method->shared_parameters());
      do {
        const bool train_side = *slice < block->train_slices();
        const std::vector<int>& rows =
            train_side ? block->train_rows : block->test_rows;
        const std::size_t first =
            (train_side ? *slice : *slice - block->train_slices()) *
            kSliceRows;
        const std::size_t count = std::min(kSliceRows, rows.size() - first);
        try {
          const tensor::Tensor encoded = method->encode(tensor::take_rows(
              (train_side ? sweep.train : sweep.test)->x,
              std::span<const int>(rows).subspan(first, count)));
          CALIBRE_CHECK(
              encoded.rows() == static_cast<std::int64_t>(count) &&
              encoded.cols() == static_cast<std::int64_t>(feature_dim));
          const std::size_t row0 =
              (train_side ? 0 : block->train_rows.size()) + first;
          std::memcpy(features + row0 * feature_dim, encoded.data(),
                      count * feature_dim * sizeof(float));
        } catch (...) {
          const std::lock_guard<std::mutex> lock(tables_mutex_);
          if (!block->error) block->error = std::current_exception();
          encoded_cv_.notify_all();
          throw;
        }
        const std::lock_guard<std::mutex> lock(tables_mutex_);
        if (++block->done_slices == block->slices()) {
          encoded_cv_.notify_all();
        }
      } while ((slice = claim()));
    }

    auto gather = [&](const std::vector<int>& distinct, std::size_t offset,
                      std::span<const int> rows) {
      tensor::Tensor out = tensor::Tensor::uninit(
          static_cast<std::int64_t>(rows.size()),
          static_cast<std::int64_t>(feature_dim));
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto at = static_cast<std::size_t>(
            std::lower_bound(distinct.begin(), distinct.end(), rows[i]) -
            distinct.begin());
        std::memcpy(out.data() + i * feature_dim,
                    features + (offset + at) * feature_dim,
                    feature_dim * sizeof(float));
      }
      return out;
    };
    train = gather(block->train_rows, 0, sweep.train_rows[pos]);
    test = gather(block->test_rows, block->train_rows.size(),
                  sweep.test_rows[pos]);
    release();
    return;
  }

  // Not in the table: encode the client's own rows under `global`.
  release();
  const MethodLease method = lease_method();
  global.apply_to(method->shared_parameters());
  train = method->encode(ctx.train->x);
  test = method->encode(ctx.test->x);
}

tensor::Tensor PflSsl::extract_features(const nn::ModelState& global,
                                        const tensor::Tensor& inputs) const {
  const MethodLease method = lease_method();
  global.apply_to(method->shared_parameters());
  return method->encode(inputs);
}

}  // namespace calibre::core
