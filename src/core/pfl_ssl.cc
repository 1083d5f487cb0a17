#include "core/pfl_ssl.h"

#include <algorithm>
#include <cstring>
#include <exception>

#include "common/check.h"
#include "data/augment.h"
#include "data/dataset.h"
#include "flapi/probe.h"
#include "nn/optim.h"

namespace calibre::core {

namespace {

// Rows per encode() call, on the table and on a client's own rows alike.
// Small enough that the activations stay in small per-thread tensor-pool
// buckets, which the device threads keep after the stage (encoding a
// client's rows in one call raises peak RSS), large enough to keep the
// GEMMs efficient. The bits do not depend on it: a row's features do not
// depend on the rows encoded with it (EncoderRowInvariance.*).
constexpr std::size_t kSliceRows = 64;

std::size_t slices_of(std::size_t rows) {
  return (rows + kSliceRows - 1) / kSliceRows;
}

// Encodes slice `slice` of a row set into `out`, the set's rows x
// feature_dim features. The set is `rows` of `x`, or every row of `x` when
// `rows` is null.
void encode_slice(ssl::SslMethod& method, const tensor::Tensor& x,
                  const std::vector<int>* rows, std::size_t slice,
                  std::size_t feature_dim, float* out) {
  const std::size_t total = rows != nullptr
                                ? rows->size()
                                : static_cast<std::size_t>(x.rows());
  const std::size_t first = slice * kSliceRows;
  const std::size_t count = std::min(kSliceRows, total - first);
  const tensor::Tensor encoded = method.encode(
      rows != nullptr
          ? tensor::take_rows(
                x, std::span<const int>(*rows).subspan(first, count))
          : tensor::slice_rows(x, static_cast<std::int64_t>(first),
                               static_cast<std::int64_t>(first + count)));
  CALIBRE_CHECK(encoded.rows() == static_cast<std::int64_t>(count) &&
                encoded.cols() == static_cast<std::int64_t>(feature_dim));
  std::memcpy(out + first * feature_dim, encoded.data(),
              count * feature_dim * sizeof(float));
}

// Every row of `x`, encoded a slice at a time.
tensor::Tensor encode_rows(ssl::SslMethod& method, const tensor::Tensor& x,
                           std::size_t feature_dim) {
  tensor::Tensor out =
      tensor::Tensor::uninit(x.rows(), static_cast<std::int64_t>(feature_dim));
  for (std::size_t slice = 0;
       slice < slices_of(static_cast<std::size_t>(x.rows())); ++slice) {
    encode_slice(method, x, nullptr, slice, feature_dim, out.data());
  }
  return out;
}

}  // namespace

// The feature table of one sweep: every distinct row of the base splits
// that its positions on the global state read, encoded once. It holds
// features only when they fit the budget of resolve_threads(config) x
// |state| floats; otherwise it only counts the sweep's positions, and each
// encodes its own rows. Everything but the feature values is guarded by
// tables_mutex_; a slice's values are written by the thread that claimed it
// and read only after the last slice is done.
struct PflSsl::SweepTable {
  std::vector<bool> on_global;  // per position: personalizes_on_global
  std::vector<bool> arrived;    // per position
  std::size_t unreleased = 0;   // positions not yet released
  std::vector<int> train_rows;  // distinct rows of the base splits read by
  std::vector<int> test_rows;   // the positions on_global, ascending
  // (train_rows + test_rows) x feature_dim floats; empty when not tabled.
  std::vector<float> features;
  // The sweep's global state, as passed by its first tabled position.
  const nn::ModelState* state = nullptr;
  std::exception_ptr error;  // the first slice encode that threw
  std::size_t next_slice = 0;
  std::size_t done_slices = 0;

  std::size_t train_slices() const { return slices_of(train_rows.size()); }
  std::size_t slices() const {
    return train_slices() + slices_of(test_rows.size());
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
  method->sync_momentum_branch();

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
  if (ctx.sweep == nullptr ||
      !sweep_features(global, *ctx.sweep, ctx.sweep_position, ctx,
                      train_features, test_features)) {
    // Not in a table: encode the client's own rows under `global`.
    const auto feature_dim =
        static_cast<std::size_t>(config_.encoder.feature_dim);
    const MethodLease method = lease_method();
    global.apply_to(method->shared_parameters());
    train_features = encode_rows(*method, ctx.train->x, feature_dim);
    test_features = encode_rows(*method, ctx.test->x, feature_dim);
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
    const fl::PersonalizationSweep& sweep) const {
  auto table = std::make_unique<SweepTable>();
  table->on_global.assign(sweep.size(), false);
  table->arrived.assign(sweep.size(), false);
  table->unreleased = sweep.size();
  for (std::size_t position = 0; position < sweep.size(); ++position) {
    table->on_global[position] =
        personalizes_on_global(sweep.client_ids[position]);
  }
  // Marks the rows of `split` that the positions on the global state read,
  // then lists them ascending.
  auto distinct = [&](const data::Dataset& split,
                      const std::vector<std::span<const int>>& rows) {
    std::vector<bool> marked(static_cast<std::size_t>(split.size()), false);
    for (std::size_t position = 0; position < sweep.size(); ++position) {
      if (!table->on_global[position]) continue;
      for (const int row : rows[position]) {
        CALIBRE_CHECK(row >= 0 &&
                      static_cast<std::size_t>(row) < marked.size());
        marked[static_cast<std::size_t>(row)] = true;
      }
    }
    std::vector<int> out;
    for (std::size_t row = 0; row < marked.size(); ++row) {
      if (marked[row]) out.push_back(static_cast<int>(row));
    }
    return out;
  };
  table->train_rows = distinct(*sweep.train, sweep.train_rows);
  table->test_rows = distinct(*sweep.test, sweep.test_rows);
  return table;
}

bool PflSsl::sweep_features(const nn::ModelState& global,
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
  const auto feature_dim =
      static_cast<std::size_t>(config_.encoder.feature_dim);
  SweepTable* table = nullptr;
  bool tabled = false;
  {
    std::unique_lock<std::mutex> lock(tables_mutex_);
    if (!tables_.contains(sweep.id)) {
      // Built without the lock (it asks personalizes_on_global); when
      // several first callers race, the first table in wins.
      lock.unlock();
      std::unique_ptr<SweepTable> built = build_table(sweep);
      lock.lock();
      const auto [entry, inserted] =
          tables_.try_emplace(sweep.id, std::move(built));
      // The sweep's one decision: its features are tabled if they fit what
      // the budget leaves beside the instance's other live tables.
      SweepTable& fresh = *entry->second;
      const std::size_t floats =
          (fresh.train_rows.size() + fresh.test_rows.size()) * feature_dim;
      if (inserted && live_table_floats_ + floats <=
                          fl::resolve_threads(config_) * global.size()) {
        fresh.features.resize(floats);
        live_table_floats_ += floats;
        peak_table_floats_ = std::max(peak_table_floats_, live_table_floats_);
      }
    }
    table = tables_.at(sweep.id).get();
    CALIBRE_CHECK_MSG(!table->arrived[pos],
                      "a sweep position was personalized twice");
    table->arrived[pos] = true;
    tabled = !table->features.empty() && table->on_global[pos];
    if (tabled) {
      if (table->state == nullptr) table->state = &global;
      CALIBRE_CHECK_MSG(&global == table->state,
                        "every call of a sweep passes the same global state");
    }
  }

  // Gives the position back, however this call ends. The sweep's last
  // position frees its table.
  struct Release {
    PflSsl& owner;
    SweepTable& table;
    std::uint64_t id;
    ~Release() {
      const std::lock_guard<std::mutex> lock(owner.tables_mutex_);
      if (--table.unreleased == 0) {
        owner.live_table_floats_ -= table.features.size();
        owner.tables_.erase(id);
      }
    }
  } release{*this, *table, sweep.id};
  if (!tabled) return false;

  // Claims the table's next 64-row slice. When none is left it waits for
  // the slices other threads are still encoding and returns nothing. If one
  // of them threw, every tabled client rethrows its error: the stage fails
  // anyway, so nobody encodes its own rows instead.
  auto claim = [&]() -> std::optional<std::size_t> {
    std::unique_lock<std::mutex> lock(tables_mutex_);
    encoded_cv_.wait(lock, [&] {
      return table->error || table->next_slice < table->slices() ||
             table->done_slices == table->slices();
    });
    if (table->error) std::rethrow_exception(table->error);
    if (table->next_slice == table->slices()) return std::nullopt;
    return table->next_slice++;
  };
  float* const features = table->features.data();
  float* const test_features =
      features + table->train_rows.size() * feature_dim;
  if (std::optional<std::size_t> slice = claim()) {
    // One lease, so one apply_to, per thread that helps encode the table.
    const MethodLease method = lease_method();
    global.apply_to(method->shared_parameters());
    do {
      try {
        if (*slice < table->train_slices()) {
          encode_slice(*method, sweep.train->x, &table->train_rows, *slice,
                       feature_dim, features);
        } else {
          encode_slice(*method, sweep.test->x, &table->test_rows,
                       *slice - table->train_slices(), feature_dim,
                       test_features);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(tables_mutex_);
        if (!table->error) table->error = std::current_exception();
        encoded_cv_.notify_all();
        throw;
      }
      const std::lock_guard<std::mutex> lock(tables_mutex_);
      if (++table->done_slices == table->slices()) encoded_cv_.notify_all();
    } while ((slice = claim()));
  }

  auto gather = [&](const std::vector<int>& distinct, const float* from,
                    std::span<const int> rows) {
    tensor::Tensor out = tensor::Tensor::uninit(
        static_cast<std::int64_t>(rows.size()),
        static_cast<std::int64_t>(feature_dim));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto at = static_cast<std::size_t>(
          std::lower_bound(distinct.begin(), distinct.end(), rows[i]) -
          distinct.begin());
      std::memcpy(out.data() + i * feature_dim, from + at * feature_dim,
                  feature_dim * sizeof(float));
    }
    return out;
  };
  train = gather(table->train_rows, features, sweep.train_rows[pos]);
  test = gather(table->test_rows, test_features, sweep.test_rows[pos]);
  return true;
}

tensor::Tensor PflSsl::extract_features(const nn::ModelState& global,
                                        const tensor::Tensor& inputs) const {
  const MethodLease method = lease_method();
  global.apply_to(method->shared_parameters());
  return method->encode(inputs);
}

}  // namespace calibre::core
