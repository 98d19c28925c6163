#include "core/reallocation.hpp"

#include "core/metrics.hpp"
#include "core/placement_kernel.hpp"
#include "core/sampler.hpp"
#include "util/assert.hpp"

namespace nubb {

RebalanceResult rebalance(BinArray& bins, const BinSampler& sampler, const GameConfig& cfg,
                          double target_max_load, std::uint64_t max_moves,
                          Xoshiro256StarStar& rng) {
  NUBB_REQUIRE_MSG(target_max_load > 0.0, "rebalance target must be positive");
  NUBB_REQUIRE_MSG(sampler.size() == bins.size(), "sampler and bin array size mismatch");

  RebalanceResult result;
  std::uint32_t consecutive_failures = 0;

  // One kernel for the whole rebalance: every move removes a ball before
  // placing one, so the net ball count never exceeds the current total and
  // a planned horizon of one ball is exact.
  PlacementKernel kernel(bins, sampler, cfg, /*planned_balls=*/1);

  while (result.moves < max_moves && bins.max_load().value() > target_max_load) {
    const std::size_t source = bins.argmax_bin();
    bins.remove_ball(source);
    const std::size_t dest = kernel.place_one(rng);
    if (dest == source) {
      // The move was a no-op; the d draws favoured the source bin again.
      if (++consecutive_failures >= 3) {
        ++result.failed_moves;
        break;
      }
      ++result.failed_moves;
      continue;
    }
    consecutive_failures = 0;
    ++result.moves;
  }

  result.final_max_load = bins.max_load().value();
  result.reached_target = result.final_max_load <= target_max_load;
  return result;
}

std::vector<IncrementalGrowthStep> simulate_incremental_growth(
    const GrowthModel& model, std::size_t total_disks, std::size_t first_batch,
    std::size_t batch_size, std::size_t disks_per_step, const SelectionPolicy& policy,
    const GameConfig& cfg, double rebalance_target_gap, std::uint64_t max_moves_per_step,
    Xoshiro256StarStar& rng) {
  NUBB_REQUIRE_MSG(disks_per_step >= 1, "need at least one disk per step");
  NUBB_REQUIRE_MSG(total_disks >= first_batch, "total disks below the first batch size");

  std::vector<IncrementalGrowthStep> steps;

  // Start with the initial batch, filled to m = C.
  std::vector<std::uint64_t> caps = growth_capacities(first_batch, first_batch, batch_size,
                                                      model);
  BinArray bins(caps, cfg.memory);
  {
    const BinSampler sampler = BinSampler::from_policy(policy, bins.capacities(), cfg.memory);
    GameConfig fill = cfg;
    fill.balls = bins.total_capacity();
    play_game(bins, sampler, fill, rng);
  }

  for (std::size_t disks = first_batch; disks <= total_disks; disks += disks_per_step) {
    if (disks > first_batch) {
      // Append the disks added since the previous step and fill only the
      // added capacity (old balls stay put).
      const auto grown = growth_capacities(disks, first_batch, batch_size, model);
      const std::vector<std::uint64_t> added(grown.begin() + static_cast<std::ptrdiff_t>(
                                                  bins.size()),
                                             grown.end());
      bins.append_bins(added);
      const BinSampler sampler = BinSampler::from_policy(policy, bins.capacities(), cfg.memory);
      GameConfig fill = cfg;
      fill.balls = bins.total_capacity() - bins.total_balls();
      if (fill.balls > 0) play_game(bins, sampler, fill, rng);
    }

    IncrementalGrowthStep step;
    step.disks = bins.size();
    step.total_capacity = bins.total_capacity();
    step.incremental_max_load = bins.max_load().value();

    if (rebalance_target_gap >= 0.0) {
      const BinSampler sampler = BinSampler::from_policy(policy, bins.capacities(), cfg.memory);
      const double target = bins.average_load() + rebalance_target_gap;
      const RebalanceResult r =
          rebalance(bins, sampler, cfg, target, max_moves_per_step, rng);
      step.rebalanced_max_load = r.final_max_load;
      step.moves = r.moves;
    } else {
      step.rebalanced_max_load = step.incremental_max_load;
    }
    steps.push_back(step);
  }
  return steps;
}

}  // namespace nubb
