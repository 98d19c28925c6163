#include "util/alias_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nubb {
namespace {

TEST(AliasTableTest, SingleOutcome) {
  const AliasTable table({42.0});
  Xoshiro256StarStar rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(table.probability(0), 1.0);
}

TEST(AliasTableTest, ReconstructedProbabilitiesMatchInputs) {
  const std::vector<double> weights = {1.0, 5.0, 3.0, 0.5, 0.5};
  const AliasTable table(weights);
  const double total = 10.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(table.probability(i), weights[i] / total, 1e-12)
        << "slot reconstruction broke for outcome " << i;
  }
}

/// Vose's construction written the plain way: normalise, scale by n, two
/// vector stacks, a per-slot double probability, then ceil(p * 2^53). The
/// table builds in place in its two arrays and must come out bit-identical.
struct ReferenceTable {
  std::vector<double> prob;
  std::vector<std::uint32_t> alias;
  std::vector<std::uint64_t> threshold;
  std::size_t support = 0;
};

ReferenceTable reference_vose(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  double total = 0.0;
  for (const double w : weights) total += w;
  std::vector<double> scaled(n);
  ReferenceTable ref;
  for (std::size_t i = 0; i < n; ++i) {
    const double normalized = weights[i] / total;
    scaled[i] = normalized * static_cast<double>(n);
    if (normalized > 0.0) ++ref.support;
  }
  ref.prob.assign(n, 1.0);
  ref.alias.resize(n);
  for (std::size_t i = 0; i < n; ++i) ref.alias[i] = static_cast<std::uint32_t>(i);

  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    ref.prob[s] = scaled[s];
    ref.alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (const std::uint32_t l : large) ref.prob[l] = 1.0;
  for (const std::uint32_t s : small) ref.prob[s] = 1.0;

  ref.threshold.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref.threshold[i] = static_cast<std::uint64_t>(std::ceil(ref.prob[i] * 0x1.0p53));
  }
  return ref;
}

/// The shapes that stress Vose's small/large pairing: all-equal at an odd
/// count, one-hot among zeros, and a long power-law tail.
std::vector<std::vector<double>> adversarial_weights() {
  std::vector<std::vector<double>> adversarial;
  adversarial.push_back(std::vector<double>(257, 1.0));  // all equal, odd count
  {
    std::vector<double> one_hot(100, 0.0);
    one_hot[37] = 5.0;
    adversarial.push_back(std::move(one_hot));
  }
  {
    std::vector<double> power_law;
    for (int i = 1; i <= 500; ++i) {
      power_law.push_back(1.0 / (static_cast<double>(i) * static_cast<double>(i)));
    }
    adversarial.push_back(std::move(power_law));
  }
  return adversarial;
}

std::vector<double> random_weights(std::size_t n) {
  std::vector<double> weights;
  Xoshiro256StarStar rng(10);
  for (std::size_t i = 0; i < n; ++i) weights.push_back(rng.next_double() + 0.01);
  return weights;
}

/// Half capacity-1 and half capacity-10 bins in shuffled order, the paper's
/// mixed 1:10 profile under proportional weights.
std::vector<double> shuffled_mixed_1_10(std::size_t n) {
  std::vector<double> weights(n, 1.0);
  std::fill(weights.begin() + static_cast<std::ptrdiff_t>(n / 2), weights.end(), 10.0);
  Xoshiro256StarStar rng(5);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(weights[i], weights[static_cast<std::size_t>(rng.bounded(i + 1))]);
  }
  return weights;
}

void expect_matches_reference(const std::vector<double>& weights, const std::string& label) {
  const AliasTable table(weights);
  const ReferenceTable ref = reference_vose(weights);
  ASSERT_EQ(table.size(), weights.size()) << label;
  EXPECT_EQ(table.support_size(), ref.support) << label;
  const auto t = std::mismatch(ref.threshold.begin(), ref.threshold.end(), table.threshold_data());
  EXPECT_TRUE(t.first == ref.threshold.end())
      << label << ": threshold differs at slot " << (t.first - ref.threshold.begin());
  const auto a = std::mismatch(ref.alias.begin(), ref.alias.end(), table.alias_data());
  EXPECT_TRUE(a.first == ref.alias.end())
      << label << ": alias differs at slot " << (a.first - ref.alias.begin());
}

TEST(AliasTableTest, ReconstructedProbabilitiesSumToOneOnAdversarialWeights) {
  // probability() reconstructs an outcome's mass from the two slot arrays.
  // The reconstruction must stay exact — summing to 1 and matching the
  // normalised inputs to 1e-12 — on the shapes that stress Vose's
  // small/large pairing.
  for (const auto& weights : adversarial_weights()) {
    const AliasTable table(weights);
    double total = 0.0;
    for (const double w : weights) total += w;
    double sum = 0.0;
    for (std::size_t i = 0; i < table.size(); ++i) sum += table.probability(i);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "n=" << weights.size();
    for (std::size_t i = 0; i < table.size(); ++i) {
      EXPECT_NEAR(table.probability(i), weights[i] / total, 1e-12)
          << "outcome " << i << " of n=" << weights.size();
    }
  }
}

TEST(AliasTableTest, InPlaceBuildMatchesReferenceConstruction) {
  expect_matches_reference({42.0}, "n=1");
  for (const auto& weights : adversarial_weights()) {
    expect_matches_reference(weights, "adversarial n=" + std::to_string(weights.size()));
  }
  expect_matches_reference(random_weights(5000), "random n=5000");
  // Mixed 1:10: a capacity-10 outcome's remainder after its first donation
  // is exactly 1.0, which stays "large", so the pairing carries through one
  // long chain of such outcomes.
  expect_matches_reference(shuffled_mixed_1_10(1000), "mixed 1:10 n=1000");
  expect_matches_reference(shuffled_mixed_1_10(1000000), "mixed 1:10 n=1M");
}

TEST(AliasTableTest, IntegerThresholdsDecideExactlyLikeDoubleCompare) {
  // The fused kernel accepts slot s iff (next() >> 11) < threshold[s]; that
  // must agree with `next_double() < prob[s]` for every slot and for
  // mantissas on both sides of the boundary.
  std::vector<double> weights;
  for (int i = 1; i <= 64; ++i) weights.push_back(static_cast<double>(i % 9 + 1));
  const AliasTable table(weights);
  const std::vector<double> prob = reference_vose(weights).prob;
  const std::uint64_t* threshold = table.threshold_data();
  for (std::size_t s = 0; s < table.size(); ++s) {
    const std::uint64_t t = threshold[s];
    for (const std::uint64_t mantissa :
         {std::uint64_t{0}, t > 0 ? t - 1 : 0, t, t + 1, (std::uint64_t{1} << 53) - 1}) {
      const double u = static_cast<double>(mantissa) * 0x1.0p-53;
      EXPECT_EQ(mantissa < t, u < prob[s]) << "slot " << s << " mantissa " << mantissa;
    }
  }
}

TEST(AliasTableTest, SupportSizeCountsPositiveWeightOutcomes) {
  EXPECT_EQ(AliasTable({1.0, 0.0, 2.0, 0.0}).support_size(), 2u);
  EXPECT_EQ(AliasTable({3.0}).support_size(), 1u);
  EXPECT_EQ(AliasTable(std::vector<double>(8, 1.0)).support_size(), 8u);
}

TEST(AliasTableTest, ZeroWeightOutcomesAreNeverSampled) {
  const AliasTable table({0.0, 1.0, 0.0, 2.0});
  Xoshiro256StarStar rng(99);
  for (int i = 0; i < 100000; ++i) {
    const auto s = table.sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTableTest, UniformWeightsPassChiSquare) {
  constexpr std::size_t kOutcomes = 64;
  const AliasTable table(std::vector<double>(kOutcomes, 1.0));
  Xoshiro256StarStar rng(7);
  std::vector<std::uint64_t> counts(kOutcomes, 0);
  constexpr int kDraws = 640000;
  for (int i = 0; i < kDraws; ++i) ++counts[table.sample(rng)];

  const std::vector<double> expected(kOutcomes, 1.0 / kOutcomes);
  const double stat = chi_square_statistic(counts, expected);
  EXPECT_LT(stat, chi_square_critical_1e4(kOutcomes - 1));
}

TEST(AliasTableTest, SkewedWeightsPassChiSquare) {
  // Capacity-proportional-like weights with a 100x spread.
  std::vector<double> weights;
  for (int i = 1; i <= 20; ++i) weights.push_back(static_cast<double>(i * i));
  const AliasTable table(weights);

  double total = 0.0;
  for (const double w : weights) total += w;
  std::vector<double> expected;
  for (const double w : weights) expected.push_back(w / total);

  Xoshiro256StarStar rng(13);
  std::vector<std::uint64_t> counts(weights.size(), 0);
  for (int i = 0; i < 400000; ++i) ++counts[table.sample(rng)];

  const double stat = chi_square_statistic(counts, expected);
  EXPECT_LT(stat, chi_square_critical_1e4(weights.size() - 1));
}

TEST(AliasTableTest, ExtremeSkewStillCorrect) {
  // One outcome a million times more likely than the other.
  const AliasTable table({1e6, 1.0});
  Xoshiro256StarStar rng(3);
  std::uint64_t rare = 0;
  constexpr int kDraws = 2000000;
  for (int i = 0; i < kDraws; ++i) rare += table.sample(rng);
  // Expectation is kDraws / (1e6 + 1) ~ 2; allow a generous Poisson band.
  EXPECT_LE(rare, 12u);
}

TEST(AliasTableTest, ManyOutcomesBuildAndProbabilitySumIsOne) {
  const AliasTable table(random_weights(5000));
  double sum = 0.0;
  for (std::size_t i = 0; i < table.size(); ++i) sum += table.probability(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(AliasTableTest, MemoryConfigReachesTheTableBuffers) {
  // The alias/threshold arrays live on AlignedBuffers and obey the same
  // huge-page policy as the slot arrays. Sampling is identical under every
  // policy — the config moves the storage, never the distribution.
  std::vector<double> weights;
  for (int i = 1; i <= 300; ++i) weights.push_back(static_cast<double>(i % 11 + 1));

  MemoryConfig off;
  off.huge_pages = HugePages::kOff;
  const AliasTable plain(weights, off);
  // A few hundred entries sit far below the 2 MiB auto threshold.
  EXPECT_FALSE(plain.huge_page_advised());
  EXPECT_FALSE(AliasTable(weights).huge_page_advised());

  MemoryConfig on;
  on.huge_pages = HugePages::kOn;
  const AliasTable hugepaged(weights, on);

  Xoshiro256StarStar rng_a(21);
  Xoshiro256StarStar rng_b(21);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(plain.sample(rng_a), hugepaged.sample(rng_b));
  }
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain.threshold_data()[i], hugepaged.threshold_data()[i]);
  }
}

TEST(AliasTableTest, RejectsInvalidWeights) {
  EXPECT_THROW(AliasTable({}), PreconditionError);
  EXPECT_THROW(AliasTable({0.0}), PreconditionError);
  EXPECT_THROW(AliasTable({1.0, -2.0}), PreconditionError);
  EXPECT_THROW(AliasTable({1.0, std::numeric_limits<double>::infinity()}), PreconditionError);
  EXPECT_THROW(AliasTable({1.0, std::numeric_limits<double>::quiet_NaN()}), PreconditionError);
  // Each weight is finite, but their total overflows to inf.
  EXPECT_THROW(AliasTable({DBL_MAX, DBL_MAX}), PreconditionError);
}

}  // namespace
}  // namespace nubb
