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

// The first 64 outputs of three seeds (the default seed among them),
// recorded while next_u64 was still an out-of-line call. They pin the
// SplitMix64 seeding and the xoshiro256** step exactly, whatever form the
// step takes.
TEST(Rng, XoshiroKnownAnswers) {
  struct KnownStream {
    std::uint64_t seed;
    std::uint64_t outputs[64];
  };
  static const KnownStream kStreams[] = {
    {0x0ULL,
     {0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL, 0x1a5f849d4933e6e0ULL,
      0x6aa594f1262d2d2cULL, 0xbba5ad4a1f842e59ULL, 0xffef8375d9ebcacaULL,
      0x6c160deed2f54c98ULL, 0x8920ad648fc30a3fULL, 0xdb032c0ba7539731ULL,
      0xeb3a475a3e749a3dULL, 0x1d42993fa43f2a54ULL, 0x11361bf526a14bb5ULL,
      0x1b4f07a5ab3d8e9cULL, 0xa7a3257f6986db7fULL, 0x7efdaa95605dfc9cULL,
      0x4bde97c0a78eaab8ULL, 0xb455eac43518666cULL, 0x304dbf6c06730690ULL,
      0x8cbe7776598a798cULL, 0x0ecbdf7ffcd727e5ULL, 0x4ff52157533fe270ULL,
      0x7e61475b87242f2eULL, 0x52558c68a9316824ULL, 0xa0bd00c592471176ULL,
      0xfc9b83a3a0c63b9eULL, 0x4d786c0f0a8b88efULL, 0xa52473c4f62f2338ULL,
      0xe9dc0037db25d6d9ULL, 0xfce5eba9d25094c3ULL, 0xe3dbe61ee2d64b51ULL,
      0x23f62e432b1272dfULL, 0x4ac7443a342c4913ULL, 0xc31cf1a9658c1991ULL,
      0x290c97ffce918b1dULL, 0xf54455e02e90636aULL, 0xf57745758bb8f33fULL,
      0xe5e1b685122823d9ULL, 0x2c16cde0fd8097ecULL, 0x3cdebc44a5bc1936ULL,
      0x6833bafa723c2dbdULL, 0xb6fa6c4ba1d3d39eULL, 0xe5b932b656c2edc3ULL,
      0x09cf0b6121615c9fULL, 0x214e25d57fc636d5ULL, 0xcf3d1721806e2537ULL,
      0xcf796fc6335ddc02ULL, 0x353c8b86489b0322ULL, 0xfc4865822547b6aaULL,
      0xe8c93d84ee8b3f8cULL, 0xd1b42120a323f2d6ULL, 0xa73a11d247ff36b2ULL,
      0xae42236958bba58cULL, 0xb622679e2affcf3aULL, 0xcc3bab0060f645f4ULL,
      0x2e01e45c78f0daa7ULL, 0x08566c5f16be948aULL, 0x73beac2187e1f640ULL,
      0x8e903d752c1b5d6eULL, 0x5b34681094d7511dULL, 0x70ebad382047f5c1ULL,
      0xeae5ca1448d4e9ccULL, 0x3d2d62775b631bd5ULL, 0x8cb72ebc5b4f7dc3ULL,
      0x099c2939ea690a80ULL}},
    {0x2aULL,
     {0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
      0xecb8ad4703b360a1ULL, 0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
      0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL, 0xc2e96e726e97647eULL,
      0x9556615f775fbc3dULL, 0xaeb53b340c103971ULL, 0x4a69db9873af8965ULL,
      0xcd0feda93006c6b6ULL, 0x52480865a4b42742ULL, 0xb60dec3bf2d887cdULL,
      0xe0b55a68b96677faULL, 0x9de4159eda9cef95ULL, 0xd9f4b354ec3844d4ULL,
      0xb5215f43ed431a77ULL, 0xb5344cbe421f4f3aULL, 0x17c5ad539dbb98d9ULL,
      0x2dd4705aaba5de2bULL, 0x6faa904a94c529bdULL, 0x9a1da25458817417ULL,
      0x5061938da99c7af0ULL, 0x7d3babc0d1e23440ULL, 0x6624536f5ad584d4ULL,
      0xca03e50015c044b8ULL, 0xa293144f4f3bd3faULL, 0x3b38bd77133b0bdaULL,
      0x6a0da881492d3bfdULL, 0x9f6b51d30d502b3aULL, 0xdcf83ab9a2b09168ULL,
      0xf1dbbb3e7caf8512ULL, 0xd06fa2c515268d8aULL, 0xbf3b601241d6460cULL,
      0xc8dac160a4cf65b7ULL, 0x0b79e57de69e68a1ULL, 0x77ffe08aaffca9f2ULL,
      0xf8dae1deeb08090bULL, 0x896c10e1f50e7c45ULL, 0xb35f3c33364236adULL,
      0xcdb713a2484aba0dULL, 0xd17557ee842fc622ULL, 0xe5fa6d9f51a65be7ULL,
      0x202a8f768818eb71ULL, 0x90a2b65696578132ULL, 0x8de344cfe2c7f797ULL,
      0xdb73c7b4d941a5a9ULL, 0xd3e1718bf28e10a9ULL, 0x850b3263a0953dbbULL,
      0x51466fd43f32a0ecULL, 0x3130eb9b89d02158ULL, 0xa4d4d91162b2d044ULL,
      0x0752374ea697b934ULL, 0x5bb7058b670da327ULL, 0x91be7d3d72cec5d7ULL,
      0xc687f6037de59e9cULL, 0x81dbd737ae287209ULL, 0x9eb080fc911ead60ULL,
      0xf3759893228a56ecULL, 0xf18b1a75d5c9a1abULL, 0x3818ca12dc164711ULL,
      0xc990d448a6cc309eULL}},
    {0x9e3779b97f4a7c15ULL,
     {0x422ea740d0977210ULL, 0xe062b061b42e2928ULL, 0x5a071fc5930841b6ULL,
      0x01334ef8ed3cc2bdULL, 0xe45cbd6a2d9e96dbULL, 0x3bc1fe841a5f292fULL,
      0x60001d95ebbbd8e6ULL, 0xa0aee00b5b303762ULL, 0x9e23c8d7514cf750ULL,
      0xfc79b675a1a76a3cULL, 0xd430797eb1952242ULL, 0x5d8c1e38c042f56dULL,
      0x62192f394c129095ULL, 0xb66848e210a0f50dULL, 0x2d1d2eb24edaba45ULL,
      0x794532bcac68202cULL, 0xbb7d1f4df9e5ff45ULL, 0x66390d3db66e29b0ULL,
      0xf0f80671e1d4661eULL, 0x42a14ac362313e60ULL, 0xcf8d9f59b229831aULL,
      0x446c1abc2269490aULL, 0x3815637316a45d1aULL, 0xfc1e6678ef2f7ca3ULL,
      0x45ffb16b9099ad54ULL, 0x0a722e98ed34373fULL, 0x6a6d3b285ef35674ULL,
      0xe69f32b41009c751ULL, 0x2ebffd092fecc2c4ULL, 0x1b36a0a69057ee11ULL,
      0xd3d6bfe419cac2baULL, 0xe35f32d2673f4198ULL, 0x6fe7068fe5a004eeULL,
      0x6e576fb35b5d03dbULL, 0x380e9ea5ea0cf745ULL, 0x1c224cad7297ca71ULL,
      0xc0f7e17e5e024b5fULL, 0x8b92f2b80551c0d1ULL, 0xed2520e2bf2ba6bfULL,
      0x3a3297f70b69d9f3ULL, 0xbfe986d63c73e8a9ULL, 0x10540fa29e607c2dULL,
      0x689fa05b7980affdULL, 0x13ea665ebf22447fULL, 0x069f7dbe91277d3aULL,
      0xe102b1ea2cba8da6ULL, 0xa619dab3c7f2e133ULL, 0xc0e5e2d4f5b2ccffULL,
      0xe729ce76e6353385ULL, 0x5782189ae774c6d0ULL, 0x7baf12bdedf0e62dULL,
      0xab49de89479e576aULL, 0x292290d609fa0877ULL, 0xdc98bc47a59779e8ULL,
      0xcfb430efddc3312cULL, 0x7a5ff42a198824b0ULL, 0x4c484f937e7d135dULL,
      0x18d5e30a12ea443bULL, 0x05004994ece2d85dULL, 0x3295a229208ba09dULL,
      0x4b3dedcb443c2ad0ULL, 0xfe234fc08a53812dULL, 0x824e0a04805d29afULL,
      0x29126099d325c091ULL}},
  };
  for (const KnownStream& stream : kStreams) {
    Generator gen(stream.seed);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(gen.next_u64(), stream.outputs[i])
          << "seed 0x" << std::hex << stream.seed << std::dec << ", output "
          << i;
    }
  }
  EXPECT_EQ(Generator().next_u64(), kStreams[2].outputs[0]);
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
