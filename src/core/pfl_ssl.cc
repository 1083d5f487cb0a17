#include "core/pfl_ssl.h"

#include "common/check.h"
#include "data/augment.h"
#include "data/dataset.h"
#include "flapi/probe.h"
#include "nn/optim.h"

namespace calibre::core {

PflSsl::PflSsl(const fl::FlConfig& config, ssl::Kind kind,
               const ssl::SslConfig& ssl_config)
    : fl::Algorithm(config), kind_(kind), ssl_config_(ssl_config) {}

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
  const MethodLease method = lease_method();
  global.apply_to(method->shared_parameters());
  const tensor::Tensor train_features = method->encode(ctx.train->x);
  const tensor::Tensor test_features = method->encode(ctx.test->x);
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

tensor::Tensor PflSsl::extract_features(const nn::ModelState& global,
                                        const tensor::Tensor& inputs) const {
  const MethodLease method = lease_method();
  global.apply_to(method->shared_parameters());
  return method->encode(inputs);
}

}  // namespace calibre::core
