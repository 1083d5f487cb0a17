#include "tensor/rng.h"

#include <cmath>

#include "common/check.h"

namespace calibre::rng {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Generator::Generator(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64(sm);
  }
}

double Generator::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

double Generator::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Generator::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::vector<int> Generator::sample_without_replacement(int n, int k) {
  CALIBRE_CHECK_MSG(k >= 0 && k <= n, "k=" << k << " n=" << n);
  std::vector<int> indices(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) indices[static_cast<std::size_t>(i)] = i;
  // Partial Fisher–Yates: only the first k positions need shuffling.
  for (int i = 0; i < k; ++i) {
    const int j =
        i + static_cast<int>(uniform_index(static_cast<std::uint64_t>(n - i)));
    std::swap(indices[static_cast<std::size_t>(i)],
              indices[static_cast<std::size_t>(j)]);
  }
  indices.resize(static_cast<std::size_t>(k));
  return indices;
}

int Generator::categorical(const std::vector<double>& weights) {
  CALIBRE_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    CALIBRE_CHECK_MSG(w >= 0.0, "negative categorical weight");
    total += w;
  }
  CALIBRE_CHECK_MSG(total > 0.0, "categorical weights sum to zero");
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

double Generator::gamma(double shape) {
  CALIBRE_CHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 1e-300 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Generator::dirichlet(double alpha, int k) {
  CALIBRE_CHECK(k > 0);
  std::vector<double> draw(static_cast<std::size_t>(k));
  double total = 0.0;
  for (auto& value : draw) {
    value = gamma(alpha);
    total += value;
  }
  if (total <= 0.0) {
    // Degenerate draw (possible for tiny alpha): fall back to one-hot.
    const auto hot = uniform_index(static_cast<std::uint64_t>(k));
    for (std::size_t i = 0; i < draw.size(); ++i) {
      draw[i] = (i == hot) ? 1.0 : 0.0;
    }
    return draw;
  }
  for (auto& value : draw) value /= total;
  return draw;
}

Generator Generator::fork() { return Generator(next_u64()); }

}  // namespace calibre::rng
