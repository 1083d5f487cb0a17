// Tests for the deterministic RNG: reproducibility, distribution sanity and
// the sampling helpers every experiment depends on.
#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/check.h"
#include "tensor/rng.h"

namespace calibre::rng {
namespace {

TEST(Rng, SameSeedSameStream) {
  Generator a(123);
  Generator b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Generator a(1);
  Generator b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next_u64() == b.next_u64();
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInRange) {
  Generator gen(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = gen.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = gen.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Generator gen(9);
  double total = 0.0;
  double total_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = gen.uniform();
    total += u;
    total_sq += u * u;
  }
  const double mean = total / n;
  const double variance = total_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(variance, 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMoments) {
  Generator gen(11);
  double total = 0.0;
  double total_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = gen.normal();
    total += x;
    total_sq += x * x;
  }
  EXPECT_NEAR(total / n, 0.0, 0.03);
  EXPECT_NEAR(total_sq / n, 1.0, 0.05);
}

TEST(Rng, NormalWithParams) {
  Generator gen(13);
  double total = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) total += gen.normal(5.0, 2.0);
  EXPECT_NEAR(total / n, 5.0, 0.1);
}

TEST(Rng, UniformIndexBounds) {
  Generator gen(15);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t v = gen.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
  EXPECT_THROW(gen.uniform_index(0), CheckError);
}

// uniform_index skips computing its rejection threshold when the draw is
// already >= n. The threshold (2^64 mod n) is always < n, so the accept test
// is unchanged: the values and the stream position must match the plain
// rejection loop exactly, including at n = 2^63 + 1 where about half of all
// draws are rejected.
TEST(Rng, UniformIndexMatchesRejectionReference) {
  const auto reference = [](Generator& gen, std::uint64_t n, int& rejected) {
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = gen.next_u64();
      if (r >= threshold) return r % n;
      ++rejected;
    }
  };
  const std::uint64_t sizes[] = {1,
                                 2,
                                 3,
                                 7,
                                 400,
                                 1200,
                                 std::uint64_t{1} << 32,
                                 (std::uint64_t{1} << 63) + 1,
                                 ~std::uint64_t{0}};
  const int draws = 100000;
  for (const std::uint64_t n : sizes) {
    Generator fast(n ^ 0x5eed);
    Generator slow(n ^ 0x5eed);
    int mismatches = 0;
    int rejected = 0;
    for (int i = 0; i < draws; ++i) {
      mismatches += fast.uniform_index(n) != reference(slow, n, rejected);
    }
    EXPECT_EQ(mismatches, 0) << "n=" << n;
    EXPECT_EQ(fast.next_u64(), slow.next_u64()) << "stream diverged, n=" << n;
    if (n == (std::uint64_t{1} << 63) + 1) {
      EXPECT_GT(rejected, draws * 2 / 5) << "rejection path not exercised";
    }
  }
}

TEST(Rng, SampleWithoutReplacement) {
  Generator gen(17);
  const std::vector<int> sample = gen.sample_without_replacement(10, 6);
  EXPECT_EQ(sample.size(), 6u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 6u);
  for (const int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
  // k == n returns a permutation.
  const std::vector<int> all = gen.sample_without_replacement(5, 5);
  std::set<int> unique_all(all.begin(), all.end());
  EXPECT_EQ(unique_all.size(), 5u);
  EXPECT_THROW(gen.sample_without_replacement(3, 4), CheckError);
}

TEST(Rng, CategoricalFollowsWeights) {
  Generator gen(19);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 8000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(
      gen.categorical(weights))];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.03);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.03);
  EXPECT_THROW(gen.categorical({}), CheckError);
  EXPECT_THROW(gen.categorical({0.0, 0.0}), CheckError);
  EXPECT_THROW(gen.categorical({-1.0, 2.0}), CheckError);
}

TEST(Rng, ShuffleIsPermutation) {
  Generator gen(21);
  std::vector<int> values = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = values;
  gen.shuffle(values);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, original);
}

class DirichletProperty : public ::testing::TestWithParam<double> {};

TEST_P(DirichletProperty, SumsToOneAndNonNegative) {
  Generator gen(23);
  const double alpha = GetParam();
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<double> draw = gen.dirichlet(alpha, 10);
    double total = 0.0;
    for (const double p : draw) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, DirichletProperty,
                         ::testing::Values(0.05, 0.3, 1.0, 10.0));

TEST(Rng, DirichletConcentrationControlsSkew) {
  Generator gen(25);
  // Small alpha: most mass on a few components; large alpha: flat.
  double max_small = 0.0;
  double max_large = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const auto small = gen.dirichlet(0.1, 10);
    const auto large = gen.dirichlet(50.0, 10);
    max_small += *std::max_element(small.begin(), small.end());
    max_large += *std::max_element(large.begin(), large.end());
  }
  EXPECT_GT(max_small / trials, 0.5);
  EXPECT_LT(max_large / trials, 0.2);
}

TEST(Rng, ForkProducesIndependentStream) {
  Generator a(31);
  Generator forked = a.fork();
  // The fork and its parent should not produce the same next values.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next_u64() == forked.next_u64();
  }
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace calibre::rng
