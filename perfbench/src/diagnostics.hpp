#pragma once

/// \file diagnostics.hpp
/// Benchmark-side scalar replay of one stream-v2 game, built from the
/// public placement_resolve.hpp pieces in the block order of
/// docs/stream-v2.md. It times the scalar stages separately and computes
/// the per-ball diagnostics that explain the kernel's speed, without
/// touching the library: nothing here runs inside the kernel.

#include <cstdint>
#include <vector>

#include "core/game.hpp"
#include "core/sampler.hpp"

namespace perfbench {

struct ReplayResult {
  std::uint64_t balls = 0;
  double cand_fill_ns = 0.0;  ///< total time in fill_candidates_v2
  double tie_fill_ns = 0.0;   ///< total time in fill_ties_v2
  double resolve_ns = 0.0;    ///< total time in the resolve loop
  std::uint64_t load_ties = 0;        ///< balls whose minimum load is shared
  std::uint64_t duplicate_balls = 0;  ///< balls drawing one bin twice
  std::uint64_t groups = 0;           ///< aligned groups of four balls
  std::uint64_t dirty_groups = 0;     ///< groups the AVX2 loop replays scalar
  std::uint64_t draws = 0;            ///< candidate draws
  std::uint64_t alias_fallbacks = 0;  ///< draws that took alias[slot]
  bool draws_match = true;            ///< counting draw == fill_candidates_v2
  std::uint64_t fingerprint = 0;      ///< FNV-1a of the final slots

  /// Accumulate another game's times and counts.
  void add(const ReplayResult& o) {
    balls += o.balls;
    cand_fill_ns += o.cand_fill_ns;
    tie_fill_ns += o.tie_fill_ns;
    resolve_ns += o.resolve_ns;
    load_ties += o.load_ties;
    duplicate_balls += o.duplicate_balls;
    groups += o.groups;
    dirty_groups += o.dirty_groups;
    draws += o.draws;
    alias_fallbacks += o.alias_fallbacks;
    draws_match = draws_match && o.draws_match;
  }
};

/// Replay one game of `m` unit balls (d = 2 or 3, Algorithm-1 tie-break,
/// alias sampler, 64-bit comparison width) seeded with `seed`.
/// `diagnostics` selects the counting pass; the timed pass runs the bare
/// stages. Both leave the same final state.
ReplayResult replay_game(const nubb::BinSampler& sampler,
                         const std::vector<std::uint64_t>& capacities,
                         const nubb::GameConfig& game, std::uint64_t m, std::uint64_t seed,
                         bool diagnostics);

}  // namespace perfbench
