// A forwarding fl::Algorithm that drops the personalization sweep, shared by
// bench_micro's personalize suite and the PersonalizeSweep.* tests.
//
// fl::personalize_clients over a WithoutSweep makes every personalize call
// one without a sweep, so core::PflSsl encodes each client's own rows and
// builds no feature table (DESIGN.md §7.3). Comparing it with the sweep
// checks that the table changes no bits and measures what it saves.
#pragma once

#include <string>

#include "flapi/algorithm.h"

namespace calibre::bench {

class WithoutSweep : public fl::Algorithm {
 public:
  explicit WithoutSweep(fl::Algorithm& inner)
      : fl::Algorithm(inner.config()), inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  nn::ModelState initialize() override { return inner_.initialize(); }
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override {
    return inner_.local_update(global, ctx);
  }
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override {
    fl::PersonalizationContext alone = ctx;
    alone.sweep = nullptr;
    alone.sweep_position = 0;
    return inner_.personalize(global, alone);
  }

 private:
  fl::Algorithm& inner_;
};

}  // namespace calibre::bench
