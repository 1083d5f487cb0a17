// Deterministic random number generation.
//
// All randomness in the library flows through rng::Generator so that every
// experiment is reproducible bit-for-bit from its seed. The generator is
// xoshiro256** seeded via SplitMix64, which gives high-quality streams from
// arbitrary 64-bit seeds and lets us derive independent sub-streams (one per
// client, one per dataset, ...) with Generator::fork().
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace calibre::rng {

class Generator {
 public:
  // Seeds the four xoshiro256** state words from `seed` via SplitMix64.
  explicit Generator(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next raw 64-bit value. The xoshiro256** step and its uniform() and
  // uniform_index() wrappers are inline: a loop of draws (shuffle, the
  // partitioners' reshuffles) runs without a call per draw.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): the 53 high bits.
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    CALIBRE_CHECK(n > 0);
    // Rejection sampling to avoid modulo bias: accept r >= (2^64 mod n).
    // That threshold is < n, so any r >= n is accepted without computing it.
    std::uint64_t r = next_u64();
    if (r < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (r < threshold) r = next_u64();
    }
    return r % n;
  }

  // Standard normal via Box–Muller (cached second value).
  double normal();

  // Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);

  // Fisher–Yates shuffle of `values`. It draws from a local copy of the
  // generator, written back at the end, so the state stays in registers
  // across the loop instead of round-tripping through memory per step.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    Generator local = *this;
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(local.uniform_index(i));
      std::swap(values[i - 1], values[j]);
    }
    *this = local;
  }

  // Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<int> sample_without_replacement(int n, int k);

  // Samples from a categorical distribution given (unnormalised) weights.
  int categorical(const std::vector<double>& weights);

  // Samples a Dirichlet vector with concentration `alpha` for each of `k`
  // components (via Gamma(alpha, 1) draws, Marsaglia–Tsang).
  std::vector<double> dirichlet(double alpha, int k);

  // Derives an independent generator; deterministic given this generator's
  // current state. Useful for giving each client its own stream.
  Generator fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  double gamma(double shape);

  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace calibre::rng
