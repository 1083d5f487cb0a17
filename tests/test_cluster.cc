// Tests for KMeans and the cluster-quality metrics.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "cluster/quality.h"
#include "common/check.h"

namespace calibre::cluster {
namespace {

using tensor::Tensor;

// Three well-separated Gaussian blobs; returns points + ground truth.
void make_blobs(int per_blob, Tensor& points, std::vector<int>& labels,
                std::uint64_t seed = 5) {
  rng::Generator gen(seed);
  const float centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  points = Tensor(3 * per_blob, 2);
  labels.clear();
  for (int blob = 0; blob < 3; ++blob) {
    for (int i = 0; i < per_blob; ++i) {
      const int row = blob * per_blob + i;
      points(row, 0) = centers[blob][0] + static_cast<float>(gen.normal());
      points(row, 1) = centers[blob][1] + static_cast<float>(gen.normal());
      labels.push_back(blob);
    }
  }
}

TEST(KMeans, RecoversSeparatedBlobs) {
  Tensor points;
  std::vector<int> labels;
  make_blobs(30, points, labels);
  rng::Generator gen(1);
  KMeansConfig config;
  config.k = 3;
  const KMeansResult result = kmeans(points, config, gen);
  // Perfect recovery up to relabeling: purity of assignments = 1.
  EXPECT_DOUBLE_EQ(cluster_purity(result.assignments, labels), 1.0);
  EXPECT_NEAR(normalized_mutual_information(result.assignments, labels), 1.0,
              1e-9);
  // Every cluster non-empty, sizes sum to N.
  int total = 0;
  for (const int size : result.cluster_sizes) {
    EXPECT_GT(size, 0);
    total += size;
  }
  EXPECT_EQ(total, 90);
  EXPECT_GT(result.mean_distance, 0.0f);
}

TEST(KMeans, KClampedToSampleCount) {
  rng::Generator gen(2);
  const Tensor points = Tensor::randn(3, 4, gen);
  KMeansConfig config;
  config.k = 10;
  const KMeansResult result = kmeans(points, config, gen);
  EXPECT_EQ(result.centroids.rows(), 3);
}

TEST(KMeans, SingleClusterCentroidIsMean) {
  rng::Generator gen(3);
  const Tensor points = Tensor::randn(20, 3, gen);
  KMeansConfig config;
  config.k = 1;
  const KMeansResult result = kmeans(points, config, gen);
  const Tensor mean = tensor::mul_scalar(tensor::col_sum(points), 1.0f / 20);
  EXPECT_TRUE(tensor::allclose(result.centroids, mean, 1e-4f));
}

TEST(KMeans, DeterministicGivenRngState) {
  Tensor points;
  std::vector<int> labels;
  make_blobs(20, points, labels);
  rng::Generator gen_a(4);
  rng::Generator gen_b(4);
  KMeansConfig config;
  config.k = 3;
  const KMeansResult a = kmeans(points, config, gen_a);
  const KMeansResult b = kmeans(points, config, gen_b);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_TRUE(tensor::allclose(a.centroids, b.centroids));
}

TEST(KMeans, EmptyInputThrows) {
  rng::Generator gen(5);
  KMeansConfig config;
  EXPECT_THROW(kmeans(Tensor(0, 3), config, gen), CheckError);
}

TEST(KMeans, AssignToCentroids) {
  const Tensor centroids(2, 1, {0.0f, 10.0f});
  const Tensor points(4, 1, {1.0f, -1.0f, 9.0f, 12.0f});
  float mean_distance = 0.0f;
  const std::vector<int> assignments =
      assign_to_centroids(points, centroids, &mean_distance);
  EXPECT_EQ(assignments, (std::vector<int>{0, 0, 1, 1}));
  EXPECT_NEAR(mean_distance, (1 + 1 + 1 + 2) / 4.0f, 1e-5f);
}

TEST(KMeans, ClusterMeansHandlesEmptyCluster) {
  const Tensor points(2, 2, {1, 1, 3, 3});
  const Tensor means = cluster_means(points, {0, 0}, 2);
  EXPECT_FLOAT_EQ(means(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(means(1, 0), 0.0f);  // empty cluster -> zero row
}

TEST(KMeans, MoreClustersLowerDistance) {
  Tensor points;
  std::vector<int> labels;
  make_blobs(30, points, labels);
  rng::Generator gen(6);
  KMeansConfig c2;
  c2.k = 2;
  KMeansConfig c6;
  c6.k = 6;
  const float d2 = kmeans(points, c2, gen).mean_distance;
  const float d6 = kmeans(points, c6, gen).mean_distance;
  EXPECT_LT(d6, d2);
}

// --- quality metrics ----------------------------------------------------------

TEST(Quality, SilhouetteHighForSeparatedBlobs) {
  Tensor points;
  std::vector<int> labels;
  make_blobs(25, points, labels);
  EXPECT_GT(silhouette_score(points, labels), 0.7);
}

TEST(Quality, SilhouetteNearZeroForRandomLabels) {
  Tensor points;
  std::vector<int> labels;
  make_blobs(25, points, labels, 7);
  rng::Generator gen(8);
  std::vector<int> random_labels(labels.size());
  for (auto& label : random_labels) {
    label = static_cast<int>(gen.uniform_index(3));
  }
  EXPECT_LT(std::abs(silhouette_score(points, random_labels)), 0.15);
}

TEST(Quality, SilhouetteIgnoresUnlabeled) {
  Tensor points;
  std::vector<int> labels;
  make_blobs(10, points, labels);
  std::vector<int> with_unlabeled = labels;
  with_unlabeled[0] = -1;
  const double score = silhouette_score(points, with_unlabeled);
  EXPECT_GT(score, 0.5);
}

TEST(Quality, SilhouetteDegenerateCases) {
  rng::Generator gen(9);
  const Tensor points = Tensor::randn(10, 2, gen);
  // Single cluster: no score.
  EXPECT_DOUBLE_EQ(silhouette_score(points, std::vector<int>(10, 0)), 0.0);
  // All unlabeled.
  EXPECT_DOUBLE_EQ(silhouette_score(points, std::vector<int>(10, -1)), 0.0);
}

TEST(Quality, PurityBounds) {
  const std::vector<int> labels = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(cluster_purity(labels, labels), 1.0);
  const std::vector<int> one_cluster = {0, 0, 0, 0, 0, 0};
  EXPECT_NEAR(cluster_purity(one_cluster, labels), 1.0 / 3.0, 1e-9);
  // Purity is invariant to cluster relabeling.
  const std::vector<int> relabeled = {5, 5, 9, 9, 7, 7};
  EXPECT_DOUBLE_EQ(cluster_purity(relabeled, labels), 1.0);
}

TEST(Quality, NmiProperties) {
  const std::vector<int> labels = {0, 0, 1, 1, 2, 2};
  EXPECT_NEAR(normalized_mutual_information(labels, labels), 1.0, 1e-9);
  // Relabeling invariance.
  const std::vector<int> relabeled = {2, 2, 0, 0, 1, 1};
  EXPECT_NEAR(normalized_mutual_information(relabeled, labels), 1.0, 1e-9);
  // Constant clustering carries no information.
  const std::vector<int> constant(6, 0);
  EXPECT_NEAR(normalized_mutual_information(constant, labels), 0.0, 1e-9);
  // Symmetry.
  const std::vector<int> other = {0, 1, 0, 1, 2, 2};
  EXPECT_NEAR(normalized_mutual_information(other, labels),
              normalized_mutual_information(labels, other), 1e-12);
}

// Parameterized: purity never decreases when clusters are split further.
class PuritySplitProperty : public ::testing::TestWithParam<int> {};

TEST_P(PuritySplitProperty, SplittingNeverHurtsPurity) {
  const int k = GetParam();
  Tensor points;
  std::vector<int> labels;
  make_blobs(20, points, labels, 10);
  rng::Generator gen(11);
  KMeansConfig coarse;
  coarse.k = k;
  KMeansConfig fine;
  fine.k = k * 2;
  const double coarse_purity =
      cluster_purity(kmeans(points, coarse, gen).assignments, labels);
  const double fine_purity =
      cluster_purity(kmeans(points, fine, gen).assignments, labels);
  EXPECT_GE(fine_purity + 1e-9, coarse_purity);
}

INSTANTIATE_TEST_SUITE_P(Ks, PuritySplitProperty, ::testing::Values(2, 3, 5));

// --- golden ---------------------------------------------------------------
//
// Every distance KMeans reads comes from the GEMM kernels: a one-column
// product per k-means++ seeding step, a k-column one per Lloyd iteration.
// The seeding's categorical draws read those distances, so a single changed
// bit can move a centroid, and with it every later draw. These fingerprints
// pin the centroids, assignments, iteration count, mean distance and the
// generator's next raw draw. Release-build bits only: sanitized builds
// compile the kernels differently.
#if defined(CALIBRE_SANITIZED_BUILD)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif

std::string kmeans_fingerprint(std::int64_t n, std::int64_t dim,
                               std::uint64_t seed) {
  rng::Generator data_gen(seed);
  const Tensor points = Tensor::randn(n, dim, data_gen);
  rng::Generator gen(seed + 1);
  const KMeansResult result = kmeans(points, KMeansConfig{}, gen);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](std::uint32_t bits) {
    for (int b = 0; b < 32; b += 8) {
      hash ^= (bits >> b) & 0xFFu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (std::int64_t i = 0; i < result.centroids.size(); ++i) {
    mix(std::bit_cast<std::uint32_t>(result.centroids.data()[i]));
  }
  for (const int a : result.assignments) mix(static_cast<std::uint32_t>(a));
  std::ostringstream out;
  out << "hash 0x" << std::hex << hash << std::dec << " iterations "
      << result.iterations << " mean " << std::hexfloat << result.mean_distance
      << " next 0x" << std::hex << gen.next_u64();
  return out.str();
}

TEST(KMeansGolden, Batch32x64K10) {
  const std::string got = kmeans_fingerprint(32, 64, 2020);
  if (kSanitizedBuild) return;
  EXPECT_EQ(got,
            "hash 0x71b4a4845c78c3bf iterations 2 mean 0x1.754076p+2 "
            "next 0xb3375df73539e763");
}

TEST(KMeansGolden, Shard200x64K10) {
  const std::string got = kmeans_fingerprint(200, 64, 2021);
  if (kSanitizedBuild) return;
  EXPECT_EQ(got,
            "hash 0x676a4760a43766c8 iterations 8 mean 0x1.e03d0cp+2 "
            "next 0x86d763c08c718d30");
}

}  // namespace
}  // namespace calibre::cluster
