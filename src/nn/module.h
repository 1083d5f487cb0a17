// Neural-network module abstraction on top of the autograd engine.
//
// A Module owns persistent parameter leaves (ag::parameter). forward()
// builds a fresh autograd graph per call that links into those leaves, so
// calling ag::backward on any scalar derived from the output fills the
// parameters' grads, which the optimizer then consumes in place.
#pragma once

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"

namespace calibre::nn {

class Module {
 public:
  virtual ~Module() = default;

  // Builds the forward graph for a [batch, in] input.
  virtual ag::VarPtr forward(const ag::VarPtr& x) = 0;

  // Appends this module's parameter leaves to `out` in a stable order.
  virtual void collect_parameters(std::vector<ag::VarPtr>& out) const = 0;

  // All parameters, in collection order.
  std::vector<ag::VarPtr> parameters() const {
    std::vector<ag::VarPtr> out;
    collect_parameters(out);
    return out;
  }

  // Number of scalar parameters.
  std::int64_t parameter_count() const {
    std::int64_t total = 0;
    for (const ag::VarPtr& p : parameters()) total += p->value.size();
    return total;
  }

  // Clears accumulated gradients before the next forward/backward.
  void zero_grad() const {
    for (const ag::VarPtr& p : parameters()) p->zero_grad();
  }
};

// Runs `modules` in order. Does not own forward semantics beyond chaining.
class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<std::shared_ptr<Module>> modules)
      : modules_(std::move(modules)) {}

  void push_back(std::shared_ptr<Module> module) {
    modules_.push_back(std::move(module));
  }

  ag::VarPtr forward(const ag::VarPtr& x) override {
    ag::VarPtr out = x;
    for (const auto& module : modules_) out = module->forward(out);
    return out;
  }

  void collect_parameters(std::vector<ag::VarPtr>& out) const override {
    for (const auto& module : modules_) module->collect_parameters(out);
  }

  std::size_t size() const { return modules_.size(); }

 private:
  std::vector<std::shared_ptr<Module>> modules_;
};

}  // namespace calibre::nn
