// Flat-vector views over parameter lists, shared by the baselines that do
// their own update arithmetic (SCAFFOLD, FedProx, APFL, Ditto, PerFedAvg).
#pragma once

#include <vector>

#include "autograd/variable.h"
#include "common/check.h"

namespace calibre::algos {

inline std::vector<float> flat_grads(const std::vector<ag::VarPtr>& params) {
  std::vector<float> out;
  for (const ag::VarPtr& p : params) {
    CALIBRE_CHECK_MSG(p->grad.size() == p->value.size(),
                      "parameter has no gradient");
    out.insert(out.end(), p->grad.storage().begin(), p->grad.storage().end());
  }
  return out;
}

// values[i] += alpha * delta[i], pairwise over the flat layout.
inline void axpy_flat(std::vector<float>& values,
                      const std::vector<float>& delta, float alpha) {
  CALIBRE_CHECK(values.size() == delta.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] += alpha * delta[i];
  }
}

// out = a * x + (1 - a) * y.
inline std::vector<float> mix_flat(const std::vector<float>& x,
                                   const std::vector<float>& y, float a) {
  CALIBRE_CHECK(x.size() == y.size());
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = a * x[i] + (1.0f - a) * y[i];
  }
  return out;
}

}  // namespace calibre::algos
