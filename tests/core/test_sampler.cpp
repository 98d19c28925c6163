#include "core/sampler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nubb {
namespace {

TEST(BinSamplerTest, UniformFastPathStaysInRange) {
  const BinSampler sampler = BinSampler::uniform(10);
  EXPECT_EQ(sampler.size(), 10u);
  Xoshiro256StarStar rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(sampler.sample(rng), 10u);
  EXPECT_DOUBLE_EQ(sampler.probability(3), 0.1);
}

TEST(BinSamplerTest, UniformIsActuallyUniform) {
  const BinSampler sampler = BinSampler::uniform(8);
  Xoshiro256StarStar rng(2);
  std::vector<std::uint64_t> counts(8, 0);
  constexpr int kDraws = 160000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.sample(rng)];
  const double stat = chi_square_statistic(counts, std::vector<double>(8, 0.125));
  EXPECT_LT(stat, chi_square_critical_1e4(7));
}

TEST(BinSamplerTest, FromWeightsFollowsWeights) {
  const BinSampler sampler = BinSampler::from_weights({1.0, 3.0});
  Xoshiro256StarStar rng(3);
  int ones = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ones += sampler.sample(rng) == 1;
  EXPECT_NEAR(static_cast<double>(ones) / kDraws, 0.75, 0.01);
  EXPECT_DOUBLE_EQ(sampler.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(sampler.probability(1), 0.75);
}

TEST(BinSamplerTest, FromPolicyProportionalMatchesCapacityShares) {
  const std::vector<std::uint64_t> caps = {1, 2, 3, 4};
  const BinSampler sampler =
      BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
  EXPECT_DOUBLE_EQ(sampler.probability(0), 0.1);
  EXPECT_DOUBLE_EQ(sampler.probability(3), 0.4);
}

TEST(BinSamplerTest, FromPolicyUniformUsesFastPath) {
  // Behavioural check: probability of each bin is exactly 1/n regardless of
  // wildly different capacities.
  const std::vector<std::uint64_t> caps = {1, 1000000};
  const BinSampler sampler = BinSampler::from_policy(SelectionPolicy::uniform(), caps);
  EXPECT_DOUBLE_EQ(sampler.probability(0), 0.5);
  EXPECT_DOUBLE_EQ(sampler.probability(1), 0.5);
}

TEST(BinSamplerTest, TopOnlyNeverDrawsSmallBins) {
  const std::vector<std::uint64_t> caps = {1, 1, 8, 8};
  const BinSampler sampler =
      BinSampler::from_policy(SelectionPolicy::top_capacity_only(8), caps);
  Xoshiro256StarStar rng(4);
  for (int i = 0; i < 10000; ++i) {
    const auto s = sampler.sample(rng);
    EXPECT_TRUE(s == 2 || s == 3);
  }
}

TEST(BinSamplerTest, OverflowingPolicyWeightsAreRejected) {
  // 100000^400 overflows to inf. A table built from it would not follow the
  // policy (its limit is an even split between the two large bins), so
  // construction must refuse it.
  const std::vector<std::uint64_t> caps = {1, 1, 100000, 100000};
  EXPECT_THROW(BinSampler::from_policy(SelectionPolicy::capacity_power(400), caps),
               PreconditionError);
}

TEST(BinSamplerTest, ProbabilityOutOfRangeThrows) {
  const BinSampler sampler = BinSampler::uniform(3);
  EXPECT_THROW(sampler.probability(3), PreconditionError);
}

TEST(BinSamplerTest, EmptyUniformThrows) {
  EXPECT_THROW(BinSampler::uniform(0), PreconditionError);
}

TEST(BinSamplerTest, SamplerIsCopyableAndShared) {
  // Copies share the immutable alias table; both must behave identically.
  const BinSampler original = BinSampler::from_weights({2.0, 1.0});
  const BinSampler copy = original;  // NOLINT(performance-unnecessary-copy-initialization)
  Xoshiro256StarStar rng_a(9);
  Xoshiro256StarStar rng_b(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(original.sample(rng_a), copy.sample(rng_b));
  }
}

}  // namespace
}  // namespace nubb
