/// PlacementKernel equivalence and safety tests.
///
/// The kernel's contract is "byte-identical to the historic per-ball path":
/// same destinations, same final allocation, same RNG consumption — for
/// every tie-break rule, choice count, distinct mode, sampler kind, and
/// both comparison widths (the 64-bit fast path and the 128-bit fallback).
/// A frozen copy of the pre-kernel reference implementation lives below;
/// any divergence is a kernel bug, not a test to re-baseline.

#include "core/placement_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/builder.hpp"
#include "core/game.hpp"
#include "core/protocol.hpp"
#include "core/weighted.hpp"
#include "util/assert.hpp"

namespace nubb {
namespace {

// --- frozen pre-kernel reference (PR 1 game.cpp, verbatim semantics) -------

void reference_draw_choices(const BinSampler& sampler, std::uint32_t d, bool distinct,
                            Xoshiro256StarStar& rng, std::size_t* out) {
  if (!distinct) {
    for (std::uint32_t k = 0; k < d; ++k) out[k] = sampler.sample(rng);
    return;
  }
  for (std::uint32_t k = 0; k < d; ++k) {
    for (;;) {
      const std::size_t candidate = sampler.sample(rng);
      bool seen = false;
      for (std::uint32_t j = 0; j < k; ++j) {
        if (out[j] == candidate) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        out[k] = candidate;
        break;
      }
    }
  }
}

std::size_t reference_place_one_ball(BinArray& bins, const BinSampler& sampler,
                                     const GameConfig& cfg, Xoshiro256StarStar& rng) {
  std::size_t choices[64] = {};
  reference_draw_choices(sampler, cfg.choices, cfg.distinct_choices, rng, choices);
  const std::size_t dest = choose_destination(
      bins, std::span<const std::size_t>(choices, cfg.choices), cfg.tie_break, rng);
  bins.add_ball(dest);
  return dest;
}

struct GameOutcome {
  std::vector<std::uint64_t> balls;
  Load max_load;
  std::size_t argmax;
  std::uint64_t total;
  std::array<std::uint64_t, 4> rng_state;
};

GameOutcome reference_outcome(const std::vector<std::uint64_t>& caps,
                              const BinSampler& sampler, const GameConfig& cfg,
                              std::uint64_t balls, std::uint64_t seed) {
  BinArray bins(caps);
  Xoshiro256StarStar rng(seed);
  for (std::uint64_t b = 0; b < balls; ++b) {
    reference_place_one_ball(bins, sampler, cfg, rng);
  }
  return {bins.ball_counts(), bins.max_load(), bins.argmax_bin(), bins.total_balls(),
          rng.state()};
}

GameOutcome kernel_outcome(const std::vector<std::uint64_t>& caps, const BinSampler& sampler,
                           const GameConfig& cfg, std::uint64_t balls, std::uint64_t seed) {
  BinArray bins(caps);
  Xoshiro256StarStar rng(seed);
  PlacementKernel kernel(bins, sampler, cfg, balls);
  kernel.run(balls, rng);
  return {bins.ball_counts(), bins.max_load(), bins.argmax_bin(), bins.total_balls(),
          rng.state()};
}

void expect_same_outcome(const GameOutcome& a, const GameOutcome& b, const char* what) {
  EXPECT_EQ(a.balls, b.balls) << what;
  EXPECT_EQ(a.max_load.balls, b.max_load.balls) << what;
  EXPECT_EQ(a.max_load.capacity, b.max_load.capacity) << what;
  EXPECT_EQ(a.argmax, b.argmax) << what;
  EXPECT_EQ(a.total, b.total) << what;
  EXPECT_EQ(a.rng_state, b.rng_state) << what << " (RNG consumption diverged)";
}

// --- equivalence sweeps -----------------------------------------------------

TEST(PlacementKernelTest, MatchesReferenceAcrossConfigurations) {
  const auto caps = two_class_capacities(40, 1, 20, 10);
  const BinSampler proportional =
      BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
  const BinSampler uniform = BinSampler::uniform(caps.size());

  const TieBreak tie_breaks[] = {TieBreak::kPreferLargerCapacity, TieBreak::kUniform,
                                 TieBreak::kFirstChoice};
  const std::uint32_t choice_counts[] = {1, 2, 3, 8};
  int case_index = 0;
  for (const BinSampler* sampler : {&proportional, &uniform}) {
    for (const TieBreak tb : tie_breaks) {
      for (const std::uint32_t d : choice_counts) {
        for (const bool distinct : {false, true}) {
          GameConfig cfg;
          cfg.choices = d;
          cfg.tie_break = tb;
          cfg.distinct_choices = distinct;
          const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(case_index++);
          const auto ref = reference_outcome(caps, *sampler, cfg, /*balls=*/500, seed);
          const auto ker = kernel_outcome(caps, *sampler, cfg, /*balls=*/500, seed);
          expect_same_outcome(ref, ker, "full sweep case");
        }
      }
    }
  }
}

TEST(PlacementKernelTest, Uses64BitPathOnSmallArrays) {
  const auto caps = two_class_capacities(50, 1, 50, 10);
  BinArray bins(caps);
  const BinSampler sampler = BinSampler::uniform(caps.size());
  PlacementKernel kernel(bins, sampler, GameConfig{});
  EXPECT_TRUE(kernel.uses_fast64_path());
}

TEST(PlacementKernelTest, FallsBackTo128BitOnHugeCapacities) {
  // horizon * max_capacity would wrap uint64, so the kernel must take the
  // exact 128-bit path — and still match the reference.
  const std::vector<std::uint64_t> caps = {1000000000000000000ULL, 999999999999999999ULL,
                                           3ULL, 2ULL, 1ULL};
  const BinSampler sampler = BinSampler::uniform(caps.size());
  GameConfig cfg;  // d = 2, capacity tie-break

  {
    BinArray bins(caps);
    PlacementKernel kernel(bins, sampler, cfg, /*planned_balls=*/200);
    EXPECT_FALSE(kernel.uses_fast64_path());
  }

  const auto ref = reference_outcome(caps, sampler, cfg, /*balls=*/200, 77);
  const auto ker = kernel_outcome(caps, sampler, cfg, /*balls=*/200, 77);
  expect_same_outcome(ref, ker, "128-bit fallback");
}

TEST(PlacementKernelTest, PlaceOneMatchesRun) {
  // Single-ball stepping (place_one) and the fused bulk loop (run) are two
  // code paths; they must produce identical games.
  const auto caps = two_class_capacities(30, 1, 30, 10);
  const BinSampler sampler =
      BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
  GameConfig cfg;
  constexpr std::uint64_t kBalls = 400;

  BinArray stepped(caps);
  {
    Xoshiro256StarStar rng(5);
    PlacementKernel kernel(stepped, sampler, cfg, kBalls);
    for (std::uint64_t b = 0; b < kBalls; ++b) kernel.place_one(rng);
  }
  BinArray bulk(caps);
  {
    Xoshiro256StarStar rng(5);
    PlacementKernel kernel(bulk, sampler, cfg, kBalls);
    kernel.run(kBalls, rng);
  }
  EXPECT_EQ(stepped.ball_counts(), bulk.ball_counts());
  EXPECT_EQ(stepped.max_load(), bulk.max_load());
  EXPECT_EQ(stepped.argmax_bin(), bulk.argmax_bin());
}

TEST(PlacementKernelTest, StaleDecisionsIgnoreLiveCommits) {
  // With a frozen all-zero snapshot, every decision sees empty bins even as
  // balls accumulate — exactly the batched-arrivals staleness contract.
  BinArray bins({1, 1});
  const BinSampler sampler = BinSampler::uniform(2);
  GameConfig cfg;
  cfg.choices = 2;
  cfg.distinct_choices = true;  // force both candidates every ball
  cfg.tie_break = TieBreak::kFirstChoice;
  PlacementKernel kernel(bins, sampler, cfg, 10);
  const std::vector<std::uint64_t> frozen = {0, 0};
  Xoshiro256StarStar rng(9);
  for (int b = 0; b < 10; ++b) {
    // Stale loads tie at 1/1 every time; kFirstChoice picks the first drawn
    // candidate, so both bins keep receiving balls only via draw order — the
    // live imbalance never feeds back.
    kernel.place_one_stale(frozen.data(), rng);
  }
  EXPECT_EQ(bins.total_balls(), 10u);
}

TEST(PlacementKernelTest, RunRejectsMoreThanPlannedBalls) {
  BinArray bins({1, 1, 1});
  const BinSampler sampler = BinSampler::uniform(3);
  PlacementKernel kernel(bins, sampler, GameConfig{}, /*planned_balls=*/5);
  Xoshiro256StarStar rng(1);
  kernel.run(5, rng);
  EXPECT_THROW(kernel.run(1, rng), PreconditionError);
}

TEST(PlacementKernelTest, ValidatesOnConstruction) {
  BinArray bins({1, 1});
  const BinSampler sampler = BinSampler::uniform(2);
  Xoshiro256StarStar rng(1);

  GameConfig zero_choices;
  zero_choices.choices = 0;
  EXPECT_THROW(PlacementKernel(bins, sampler, zero_choices), PreconditionError);

  GameConfig too_distinct;
  too_distinct.choices = 3;
  too_distinct.distinct_choices = true;
  EXPECT_THROW(PlacementKernel(bins, sampler, too_distinct), PreconditionError);

  const BinSampler mismatched = BinSampler::uniform(5);
  EXPECT_THROW(PlacementKernel(bins, mismatched, GameConfig{}), PreconditionError);
}

// --- Greedy[3] bulk run vs per-ball stepping -------------------------------
//
// Under stream v1 the bulk run() is the per-ball body in a loop, so this pins
// that a bulk v1 run and place_one() stepping play identical games (same
// allocation, same RNG consumption) on profiles with frequent exact ties
// (~50% of d=3 balls tie on the mixed 1:10 profile).

std::vector<std::uint64_t> power_law_profile(std::size_t n, std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  return zipf_capacities(n, 1.2, 32, rng);
}

TEST(PlacementKernelGreedy3Test, StraightLineBodyMatchesGenericLoop) {
  const std::vector<std::vector<std::uint64_t>> profiles = {
      two_class_capacities(40, 1, 20, 10), power_law_profile(64, 2024)};
  const TieBreak tie_breaks[] = {TieBreak::kPreferLargerCapacity, TieBreak::kUniform,
                                 TieBreak::kFirstChoice};
  int case_index = 0;
  for (const auto& caps : profiles) {
    const BinSampler proportional =
        BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
    const BinSampler uniform = BinSampler::uniform(caps.size());
    for (const BinSampler* sampler : {&proportional, &uniform}) {
      for (const TieBreak tb : tie_breaks) {
        GameConfig cfg;
        cfg.choices = 3;
        cfg.tie_break = tb;
        const std::uint64_t seed = 4000 + static_cast<std::uint64_t>(case_index++);
        constexpr std::uint64_t kBalls = 600;

        BinArray stepped(caps);
        Xoshiro256StarStar stepped_rng(seed);
        PlacementKernel stepped_kernel(stepped, *sampler, cfg, kBalls);
        for (std::uint64_t b = 0; b < kBalls; ++b) stepped_kernel.place_one(stepped_rng);

        BinArray bulk(caps);
        Xoshiro256StarStar bulk_rng(seed);
        PlacementKernel bulk_kernel(bulk, *sampler, cfg, kBalls);
        bulk_kernel.run(kBalls, bulk_rng);

        EXPECT_EQ(stepped.ball_counts(), bulk.ball_counts()) << "case " << case_index;
        EXPECT_EQ(stepped.max_load(), bulk.max_load()) << "case " << case_index;
        EXPECT_EQ(stepped.argmax_bin(), bulk.argmax_bin()) << "case " << case_index;
        EXPECT_EQ(stepped_rng.state(), bulk_rng.state())
            << "case " << case_index << " (RNG consumption diverged)";
      }
    }
  }
}

TEST(PlacementKernelGreedy3Test, MatchesFrozenReferenceOnTieHeavyProfiles) {
  // Same contract as the full sweep, but at ball counts that drive loads
  // deep into exact-tie territory, on both paper profiles.
  for (const auto& caps :
       {two_class_capacities(40, 1, 20, 10), power_law_profile(48, 77)}) {
    GameConfig cfg;
    cfg.choices = 3;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      const std::uint64_t seed = seed_for_replication(9001, rep);
      const BinSampler sampler =
          BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
      const auto ref = reference_outcome(caps, sampler, cfg, /*balls=*/800, seed);
      const auto ker = kernel_outcome(caps, sampler, cfg, /*balls=*/800, seed);
      expect_same_outcome(ref, ker, "greedy[3] tie-heavy");
    }
  }
}

// --- weighted fold-in vs the frozen pre-kernel weighted path ----------------
//
// A verbatim copy of the seed-era weighted placement (per-ball validation,
// exact Load comparisons, add_weight bookkeeping). The kernel's weighted run
// loop must reproduce it ball for ball, including the size-draw-first RNG
// order.

std::size_t frozen_place_one_weighted_ball(WeightedBinArray& bins, const BinSampler& sampler,
                                           std::uint64_t w, const GameConfig& cfg,
                                           Xoshiro256StarStar& rng) {
  std::size_t choices[64] = {};
  reference_draw_choices(sampler, cfg.choices, cfg.distinct_choices, rng, choices);

  std::size_t best[64] = {};
  std::size_t best_count = 0;
  Load best_load{0, 1};
  for (std::uint32_t k = 0; k < cfg.choices; ++k) {
    const std::size_t candidate = choices[k];
    const Load post{bins.weight(candidate) + w, bins.capacity(candidate)};
    if (best_count == 0 || post < best_load) {
      best_load = post;
      best[0] = candidate;
      best_count = 1;
    } else if (post == best_load) {
      bool duplicate = false;
      for (std::size_t i = 0; i < best_count; ++i) {
        if (best[i] == candidate) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) best[best_count++] = candidate;
    }
  }

  std::size_t dest = best[0];
  if (best_count > 1) {
    switch (cfg.tie_break) {
      case TieBreak::kFirstChoice:
        dest = best[0];
        break;
      case TieBreak::kUniform:
        dest = best[rng.bounded(best_count)];
        break;
      case TieBreak::kPreferLargerCapacity: {
        std::uint64_t cmax = 0;
        for (std::size_t i = 0; i < best_count; ++i) {
          if (bins.capacity(best[i]) > cmax) cmax = bins.capacity(best[i]);
        }
        std::size_t filtered = 0;
        for (std::size_t i = 0; i < best_count; ++i) {
          if (bins.capacity(best[i]) == cmax) best[filtered++] = best[i];
        }
        dest = filtered == 1 ? best[0] : best[rng.bounded(filtered)];
        break;
      }
    }
  }
  bins.add_weight(dest, w);
  return dest;
}

struct WeightedOutcome {
  std::vector<std::uint64_t> weights;
  Load max_load;
  std::size_t argmax;
  std::uint64_t total;
  std::array<std::uint64_t, 4> rng_state;
};

WeightedOutcome frozen_weighted_outcome(const std::vector<std::uint64_t>& caps,
                                        const BinSampler& sampler, const BallSizeModel& sizes,
                                        const GameConfig& cfg, std::uint64_t balls,
                                        std::uint64_t seed) {
  WeightedBinArray bins(caps);
  Xoshiro256StarStar rng(seed);
  for (std::uint64_t b = 0; b < balls; ++b) {
    frozen_place_one_weighted_ball(bins, sampler, sizes.sample(rng), cfg, rng);
  }
  return {bins.weights(), bins.max_load(), bins.argmax_bin(), bins.total_weight(),
          rng.state()};
}

WeightedOutcome kernel_weighted_outcome(const std::vector<std::uint64_t>& caps,
                                        const BinSampler& sampler, const BallSizeModel& sizes,
                                        const GameConfig& cfg, std::uint64_t balls,
                                        std::uint64_t seed) {
  WeightedBinArray bins(caps);
  Xoshiro256StarStar rng(seed);
  GameConfig game = cfg;
  game.balls = balls;
  play_weighted_game(bins, sampler, sizes, game, rng);
  return {bins.weights(), bins.max_load(), bins.argmax_bin(), bins.total_weight(),
          rng.state()};
}

TEST(PlacementKernelWeightedTest, MatchesFrozenReferenceAcrossConfigurations) {
  const std::vector<std::vector<std::uint64_t>> profiles = {
      two_class_capacities(30, 1, 15, 10), power_law_profile(48, 4242)};
  const BallSizeModel models[] = {BallSizeModel::constant(3),
                                  BallSizeModel::uniform_range(1, 4),
                                  BallSizeModel::shifted_geometric(0.4, 16)};
  const TieBreak tie_breaks[] = {TieBreak::kPreferLargerCapacity, TieBreak::kUniform,
                                 TieBreak::kFirstChoice};
  const std::uint32_t choice_counts[] = {1, 2, 3, 8};
  int case_index = 0;
  for (const auto& caps : profiles) {
    const BinSampler proportional =
        BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
    const BinSampler uniform = BinSampler::uniform(caps.size());
    for (const BinSampler* sampler : {&proportional, &uniform}) {
      for (const auto& sizes : models) {
        for (const TieBreak tb : tie_breaks) {
          for (const std::uint32_t d : choice_counts) {
            for (const bool distinct : {false, true}) {
              GameConfig cfg;
              cfg.choices = d;
              cfg.tie_break = tb;
              cfg.distinct_choices = distinct;
              const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(case_index++);
              const auto ref =
                  frozen_weighted_outcome(caps, *sampler, sizes, cfg, /*balls=*/200, seed);
              const auto ker =
                  kernel_weighted_outcome(caps, *sampler, sizes, cfg, /*balls=*/200, seed);
              EXPECT_EQ(ref.weights, ker.weights) << "weighted case " << case_index;
              EXPECT_EQ(ref.max_load, ker.max_load) << "weighted case " << case_index;
              EXPECT_EQ(ref.argmax, ker.argmax) << "weighted case " << case_index;
              EXPECT_EQ(ref.total, ker.total) << "weighted case " << case_index;
              EXPECT_EQ(ref.rng_state, ker.rng_state)
                  << "weighted case " << case_index << " (RNG consumption diverged)";
              if (distinct) {
                // Stream v2 defines distinct mode to consume the v1 order, so
                // the frozen reference holds for it unchanged.
                cfg.stream = RngStream::kV2;
                const auto v2 =
                    kernel_weighted_outcome(caps, *sampler, sizes, cfg, /*balls=*/200, seed);
                EXPECT_EQ(ref.weights, v2.weights) << "weighted v2 case " << case_index;
                EXPECT_EQ(ref.max_load, v2.max_load) << "weighted v2 case " << case_index;
                EXPECT_EQ(ref.argmax, v2.argmax) << "weighted v2 case " << case_index;
                EXPECT_EQ(ref.total, v2.total) << "weighted v2 case " << case_index;
                EXPECT_EQ(ref.rng_state, v2.rng_state)
                    << "weighted v2 case " << case_index << " (RNG consumption diverged)";
              }
            }
          }
        }
      }
    }
  }
}

TEST(PlacementKernelWeightedTest, PlaceOneAmountMatchesFrozenReference) {
  const auto caps = two_class_capacities(20, 1, 10, 4);
  const BinSampler sampler =
      BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
  GameConfig cfg;
  WeightedBinArray frozen(caps);
  WeightedBinArray kernelised(caps);
  Xoshiro256StarStar frozen_rng(55);
  Xoshiro256StarStar kernel_rng(55);
  for (int b = 0; b < 120; ++b) {
    const std::uint64_t w = 1 + static_cast<std::uint64_t>(b % 5);
    const std::size_t a = frozen_place_one_weighted_ball(frozen, sampler, w, cfg, frozen_rng);
    const std::size_t c = place_one_weighted_ball(kernelised, sampler, w, cfg, kernel_rng);
    ASSERT_EQ(a, c) << "ball " << b;
  }
  EXPECT_EQ(frozen.weights(), kernelised.weights());
  EXPECT_EQ(frozen_rng.state(), kernel_rng.state());
}

TEST(PlacementKernelWeightedTest, ValidatesWeightedConstruction) {
  WeightedBinArray bins({1, 1});
  const BinSampler sampler = BinSampler::uniform(2);
  GameConfig cfg;
  EXPECT_THROW(PlacementKernel(bins, sampler, cfg, /*planned_balls=*/0,
                               /*max_ball_weight=*/1),
               PreconditionError);
  EXPECT_THROW(PlacementKernel(bins, sampler, cfg, /*planned_balls=*/1,
                               /*max_ball_weight=*/0),
               PreconditionError);

  PlacementKernel kernel(bins, sampler, cfg, /*planned_balls=*/2, /*max_ball_weight=*/3);
  Xoshiro256StarStar rng(1);
  kernel.run_weighted(2, BallSizeModel::uniform_range(1, 3), rng);
  EXPECT_THROW(kernel.run_weighted(1, BallSizeModel::constant(1), rng), PreconditionError);
}

TEST(PlacementKernelWeightedTest, HugeWeightsFallBackTo128Bit) {
  // planned * max_ball_weight * cmax wraps uint64, so the weighted kernel
  // must select the exact 128-bit path — and still match the reference.
  const std::vector<std::uint64_t> caps = {1000000000000ULL, 999999999999ULL, 3ULL};
  const BinSampler sampler = BinSampler::uniform(caps.size());
  GameConfig cfg;
  {
    WeightedBinArray bins(caps);
    PlacementKernel kernel(bins, sampler, cfg, /*planned_balls=*/100,
                           /*max_ball_weight=*/1000000000ULL);
    EXPECT_FALSE(kernel.uses_fast64_path());
  }
  const BallSizeModel sizes = BallSizeModel::uniform_range(999999999ULL, 1000000000ULL);
  const auto ref = frozen_weighted_outcome(caps, sampler, sizes, cfg, /*balls=*/100, 31);
  const auto ker = kernel_weighted_outcome(caps, sampler, sizes, cfg, /*balls=*/100, 31);
  EXPECT_EQ(ref.weights, ker.weights);
  EXPECT_EQ(ref.rng_state, ker.rng_state);
}

// --- ball_counts() view consistency over the interleaved layout -------------

TEST(PlacementKernelViewTest, BallCountsViewTracksKernelCommits) {
  const auto caps = two_class_capacities(16, 1, 8, 10);
  const BinSampler sampler =
      BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
  BinArray bins(caps);
  Xoshiro256StarStar rng(17);
  GameConfig cfg;
  PlacementKernel kernel(bins, sampler, cfg, /*planned_balls=*/500);

  // Interleave bulk runs, single-ball commits, and view reads: the
  // materialised view must always equal the per-bin accessors.
  auto expect_view_consistent = [&bins] {
    const std::vector<std::uint64_t>& view = bins.ball_counts();
    ASSERT_EQ(view.size(), bins.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
      ASSERT_EQ(view[i], bins.balls(i)) << "bin " << i;
      total += view[i];
    }
    ASSERT_EQ(total, bins.total_balls());
  };

  expect_view_consistent();  // empty array
  kernel.run(100, rng);
  expect_view_consistent();
  kernel.place_one(rng);
  expect_view_consistent();
  const std::vector<std::uint64_t> snapshot = bins.ball_counts();
  kernel.place_one_stale(snapshot.data(), rng);
  expect_view_consistent();
  kernel.run(200, rng);
  expect_view_consistent();

  // Mutations through the public API refresh the view too.
  bins.add_ball(0);
  expect_view_consistent();
  bins.remove_ball(0);
  expect_view_consistent();
  bins.clear();
  expect_view_consistent();
  EXPECT_EQ(bins.total_balls(), 0u);
}

TEST(PlacementKernelViewTest, ViewIsAnIndependentSnapshot) {
  // ball_counts() materialises a fresh vector from the slots on every call:
  // a snapshot taken before a mutation is unaffected by it — the batched
  // driver's staleness contract — and later calls observe the new state.
  BinArray bins({2, 2, 2});
  bins.add_ball(1);
  const std::vector<std::uint64_t> copy = bins.ball_counts();
  bins.add_ball(2);
  EXPECT_EQ(copy, (std::vector<std::uint64_t>{0, 1, 0}));
  EXPECT_EQ(bins.ball_counts(), (std::vector<std::uint64_t>{0, 1, 1}));
}

TEST(PlacementKernelTest, DistinctChoicesRequirePositiveSupport) {
  // Regression (PR 2): weights {1, 0, 0} give positive probability to one
  // bin only; asking for two *distinct* candidates used to spin forever in
  // the rejection loop. It must fail fast instead.
  BinArray bins({1, 1, 1});
  const BinSampler sampler = BinSampler::from_weights({1.0, 0.0, 0.0});
  GameConfig cfg;
  cfg.choices = 2;
  cfg.distinct_choices = true;
  EXPECT_THROW(PlacementKernel(bins, sampler, cfg), PreconditionError);

  // With exactly d reachable bins the rejection loop terminates.
  const BinSampler two_reachable = BinSampler::from_weights({1.0, 1.0, 0.0});
  PlacementKernel kernel(bins, two_reachable, cfg, /*planned_balls=*/20);
  Xoshiro256StarStar rng(3);
  kernel.run(20, rng);
  EXPECT_EQ(bins.balls(2), 0u);
  EXPECT_EQ(bins.total_balls(), 20u);
}

}  // namespace
}  // namespace nubb
