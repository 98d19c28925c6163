#include "util/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nubb {
namespace {

// --- BinomialDistribution ----------------------------------------------------

struct BinomialCase {
  std::uint32_t n;
  double p;
};

class BinomialMomentsTest : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMomentsTest, MeanAndVarianceMatchTheory) {
  const BinomialCase& c = GetParam();
  const BinomialDistribution dist(c.n, c.p);
  Xoshiro256StarStar rng(2024);
  RunningStats stats;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) stats.add(static_cast<double>(dist(rng)));

  // 5-sigma tolerance on the sample mean.
  const double mean_tolerance = 5.0 * std::sqrt(dist.variance() / kDraws) + 1e-12;
  EXPECT_NEAR(stats.mean(), dist.mean(), mean_tolerance);
  // Variance tolerance is looser (4th-moment fluctuations): 10% + epsilon.
  EXPECT_NEAR(stats.variance(), dist.variance(), 0.1 * dist.variance() + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMomentsTest,
    ::testing::Values(BinomialCase{7, 0.0}, BinomialCase{7, 1.0}, BinomialCase{7, 0.5},
                      BinomialCase{7, 1.0 / 7.0},  // the Section 4.2 capacity model
                      BinomialCase{7, 6.0 / 7.0}, BinomialCase{1, 0.3}, BinomialCase{64, 0.25},
                      BinomialCase{65, 0.25},  // first size on the inversion path
                      BinomialCase{500, 0.02}, BinomialCase{1000, 0.7}));

TEST(BinomialTest, SupportIsRespected) {
  const BinomialDistribution dist(7, 0.4);
  Xoshiro256StarStar rng(5);
  for (int i = 0; i < 10000; ++i) {
    const auto x = dist(rng);
    EXPECT_LE(x, 7u);
  }
}

TEST(BinomialTest, DegenerateParametersAreExact) {
  Xoshiro256StarStar rng(5);
  const BinomialDistribution zero(10, 0.0);
  const BinomialDistribution one(10, 1.0);
  const BinomialDistribution no_trials(0, 0.5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zero(rng), 0u);
    EXPECT_EQ(one(rng), 10u);
    EXPECT_EQ(no_trials(rng), 0u);
  }
}

TEST(BinomialTest, RejectsInvalidProbability) {
  EXPECT_THROW(BinomialDistribution(5, -0.1), PreconditionError);
  EXPECT_THROW(BinomialDistribution(5, 1.1), PreconditionError);
}

TEST(BinomialTest, InversionPathMatchesBernoulliPathInDistribution) {
  // Same parameters near the 64-trial implementation boundary: compare
  // empirical means across the two code paths.
  const BinomialDistribution small(64, 0.3);   // Bernoulli-sum path
  const BinomialDistribution large(65, 0.3);   // inversion path
  Xoshiro256StarStar rng_a(9);
  Xoshiro256StarStar rng_b(10);
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 50000; ++i) {
    a.add(static_cast<double>(small(rng_a)) / 64.0);
    b.add(static_cast<double>(large(rng_b)) / 65.0);
  }
  EXPECT_NEAR(a.mean(), b.mean(), 0.005);
}

// --- DiscreteCdfDistribution --------------------------------------------------

TEST(DiscreteCdfTest, ProbabilitiesMatchNormalisedWeights) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  const DiscreteCdfDistribution dist(weights);
  EXPECT_DOUBLE_EQ(dist.probability(0), 0.1);
  EXPECT_DOUBLE_EQ(dist.probability(1), 0.2);
  EXPECT_DOUBLE_EQ(dist.probability(2), 0.3);
  EXPECT_DOUBLE_EQ(dist.probability(3), 0.4);
}

TEST(DiscreteCdfTest, SamplesFollowWeights) {
  const std::vector<double> weights = {5.0, 1.0, 0.0, 4.0};
  const DiscreteCdfDistribution dist(weights);
  Xoshiro256StarStar rng(31);
  std::vector<std::uint64_t> counts(4, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[dist(rng)];

  EXPECT_EQ(counts[2], 0u);  // zero-weight outcome never drawn
  const std::vector<double> expected = {0.5, 0.1, 0.0, 0.4};
  for (std::size_t i = 0; i < 4; ++i) {
    if (expected[i] == 0.0) continue;
    const double observed = static_cast<double>(counts[i]) / kDraws;
    EXPECT_NEAR(observed, expected[i], 0.01);
  }
}

TEST(DiscreteCdfTest, SingleOutcomeAlwaysDrawn) {
  const DiscreteCdfDistribution dist({3.0});
  Xoshiro256StarStar rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist(rng), 0u);
}

TEST(DiscreteCdfTest, RejectsInvalidWeights) {
  EXPECT_THROW(DiscreteCdfDistribution({}), PreconditionError);
  EXPECT_THROW(DiscreteCdfDistribution({0.0, 0.0}), PreconditionError);
  EXPECT_THROW(DiscreteCdfDistribution({1.0, -1.0}), PreconditionError);
}

// --- sample_geometric ----------------------------------------------------------

TEST(GeometricTest, MeanMatchesTheory) {
  Xoshiro256StarStar rng(17);
  const double p = 0.25;
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(static_cast<double>(sample_geometric(rng, p)));
  }
  // E[failures before success] = (1-p)/p = 3.
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(GeometricTest, CertainSuccessIsZero) {
  Xoshiro256StarStar rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sample_geometric(rng, 1.0), 0u);
}

TEST(GeometricTest, RejectsInvalidProbability) {
  Xoshiro256StarStar rng(17);
  EXPECT_THROW(sample_geometric(rng, 0.0), PreconditionError);
  EXPECT_THROW(sample_geometric(rng, 1.5), PreconditionError);
}

// --- shuffle -------------------------------------------------------------------

TEST(ShuffleTest, ProducesAPermutation) {
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  Xoshiro256StarStar rng(8);
  shuffle(values, rng);
  std::vector<int> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ShuffleTest, FirstPositionIsUniform) {
  // Chi-square-lite: each of 5 values should land in slot 0 about equally.
  constexpr int kTrials = 50000;
  std::vector<int> counts(5, 0);
  Xoshiro256StarStar rng(8);
  for (int t = 0; t < kTrials; ++t) {
    std::vector<int> values = {0, 1, 2, 3, 4};
    shuffle(values, rng);
    ++counts[values[0]];
  }
  for (const int c : counts) EXPECT_NEAR(c, kTrials / 5.0, 5.0 * std::sqrt(kTrials / 5.0));
}

// --- sample_without_replacement -------------------------------------------------

TEST(SampleWithoutReplacementTest, ValuesAreDistinctAndInRange) {
  Xoshiro256StarStar rng(4);
  for (int t = 0; t < 100; ++t) {
    const auto picks = sample_without_replacement(50, 10, rng);
    ASSERT_EQ(picks.size(), 10u);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 10u);
    for (const auto v : picks) EXPECT_LT(v, 50u);
  }
}

TEST(SampleWithoutReplacementTest, FullDrawIsAPermutation) {
  Xoshiro256StarStar rng(4);
  const auto picks = sample_without_replacement(20, 20, rng);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(SampleWithoutReplacementTest, RejectsOversizedRequest) {
  Xoshiro256StarStar rng(4);
  EXPECT_THROW(sample_without_replacement(5, 6, rng), PreconditionError);
}

TEST(SampleWithoutReplacementTest, CoversThePopulation) {
  // Drawing 1 of 4 repeatedly should hit every element.
  Xoshiro256StarStar rng(4);
  std::set<std::size_t> seen;
  for (int t = 0; t < 1000; ++t) {
    seen.insert(sample_without_replacement(4, 1, rng)[0]);
  }
  EXPECT_EQ(seen.size(), 4u);
}

}  // namespace
}  // namespace nubb
