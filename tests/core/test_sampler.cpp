#include "core/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
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

/// Half capacity-1 and half capacity-10 bins in shuffled order.
std::vector<std::uint64_t> shuffled_mixed_1_10(std::size_t n) {
  std::vector<std::uint64_t> caps(n, 1);
  std::fill(caps.begin() + static_cast<std::ptrdiff_t>(n / 2), caps.end(), 10);
  Xoshiro256StarStar rng(5);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(caps[i], caps[static_cast<std::size_t>(rng.bounded(i + 1))]);
  }
  return caps;
}

TEST(BinSamplerTest, PolicyFedTableEqualsTableBuiltFromPolicyWeights) {
  // from_policy writes each weight straight into the table; the result must
  // be byte for byte the table built from the materialised weight vector.
  for (const std::vector<std::uint64_t>& caps :
       {std::vector<std::uint64_t>{10}, shuffled_mixed_1_10(1000),
        shuffled_mixed_1_10(1000000)}) {
    std::vector<double> custom(caps.size());
    Xoshiro256StarStar rng(17);
    for (double& w : custom) w = rng.next_double() + 0.01;
    for (const SelectionPolicy& policy :
         {SelectionPolicy::proportional_to_capacity(), SelectionPolicy::capacity_power(0.0),
          SelectionPolicy::capacity_power(2.0), SelectionPolicy::capacity_power(-1.0),
          SelectionPolicy::top_capacity_only(10), SelectionPolicy::custom(custom)}) {
      const std::string label = policy.describe() + " n=" + std::to_string(caps.size());
      const BinSampler sampler = BinSampler::from_policy(policy, caps);
      const AliasTable reference(policy.weights(caps));
      const AliasTable* table = sampler.alias_table();
      ASSERT_NE(table, nullptr) << label;
      ASSERT_EQ(table->size(), reference.size()) << label;
      EXPECT_EQ(table->support_size(), reference.support_size()) << label;
      EXPECT_EQ(std::memcmp(table->threshold_data(), reference.threshold_data(),
                            caps.size() * sizeof(std::uint64_t)),
                0)
          << label;
      EXPECT_EQ(std::memcmp(table->alias_data(), reference.alias_data(),
                            caps.size() * sizeof(std::uint32_t)),
                0)
          << label;
    }
  }
  // Uniform keeps its table-free fast path.
  EXPECT_EQ(BinSampler::from_policy(SelectionPolicy::uniform(), shuffled_mixed_1_10(1000))
                .alias_table(),
            nullptr);
}

/// The PreconditionError message `f` throws ("" and a test failure if it
/// throws nothing).
template <typename F>
std::string precondition_message(F f) {
  try {
    f();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no PreconditionError";
  return "";
}

TEST(BinSamplerTest, PolicyFedBuildKeepsEachRejection) {
  // Through from_policy each bad policy fails with the exception and the
  // message of the vector path: materialise the weights, then build.
  const std::vector<std::uint64_t> overflow_caps = {1, 1, 100000, 100000};
  const SelectionPolicy overflow = SelectionPolicy::capacity_power(400);
  const std::string overflow_msg =
      precondition_message([&] { BinSampler::from_policy(overflow, overflow_caps); });
  EXPECT_EQ(overflow_msg,
            precondition_message([&] { AliasTable table(overflow.weights(overflow_caps)); }));
  EXPECT_NE(overflow_msg.find("alias table weights must be finite"), std::string::npos)
      << overflow_msg;

  const std::vector<std::uint64_t> caps = {1, 2, 4, 8};
  const std::pair<SelectionPolicy, std::string> cases[] = {
      {SelectionPolicy::top_capacity_only(100), "top_capacity_only threshold excludes every bin"},
      {SelectionPolicy::custom({1.0, 2.0}),
       "custom weights size does not match the number of bins"}};
  for (const auto& [policy, reason] : cases) {
    const std::string msg = precondition_message([&] { BinSampler::from_policy(policy, caps); });
    EXPECT_EQ(msg, precondition_message([&] { (void)policy.weights(caps); }));
    EXPECT_NE(msg.find(reason), std::string::npos) << msg;
  }
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
