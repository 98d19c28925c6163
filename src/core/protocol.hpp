#pragma once

/// \file protocol.hpp
/// Algorithm 1 of the paper: the greedy d-choice allocation rule.
///
/// For one ball:
///   1. draw a set B of d candidate bins (the sampling itself lives in
///      game.hpp; this file decides *where the ball goes* given B);
///   2. compute, for every candidate, the load it would have after
///      receiving the ball;
///   3. keep the candidates minimising that post-allocation load (B_opt);
///   4. tie-break: drop every bin of B_opt whose capacity is below the
///      maximum capacity in B_opt, then choose uniformly at random.
///
/// Step 4 is the paper's innovation over classic Greedy[d]; alternative
/// tie-break policies are provided for ablations (they matter: Section 3
/// argues moving ties toward bigger bins is what keeps big bins' load
/// constant).

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/bin_array.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nubb {

/// Which documented RNG draw-order discipline a game consumes (the *process*
/// is identical; only the order in which draws leave the engine differs, so
/// fixed-seed results differ between streams but distributions agree).
///
///  * kV1 — the per-ball reference order: per ball, an optional size draw,
///    then per candidate an interleaved (bounded slot, mantissa) pair, then
///    one tie-break draw only when a tie survives. Every pre-existing golden
///    value is pinned to this stream.
///  * kV2 — the batch-drawn order of docs/stream-v2.md: each bulk run fills
///    a block of up to 256 balls' draws up front (sizes, then the
///    candidates — one fused slot-and-mantissa word each under an alias
///    table — then packed tie words), and resolves the block's balls
///    afterwards without drawing — the layout that unlocks cross-ball
///    pipelining.
enum class RngStream : std::uint8_t {
  kV1 = 1,
  kV2 = 2,
};

/// How to resolve exact post-allocation load ties among the d candidates.
enum class TieBreak {
  kPreferLargerCapacity,  ///< Algorithm 1 (paper): larger capacity wins, rest uniform
  kUniform,               ///< classic: uniform among all least-loaded candidates
  kFirstChoice            ///< deterministic: earliest candidate in choice order
};

/// Decide the destination bin for one ball among `choices` (indices into
/// `bins`, duplicates allowed — they are treated as a set, matching the
/// paper's "set B of d bins"). Does not modify `bins`.
///
/// \pre choices non-empty; all indices < bins.size().
std::size_t choose_destination(const BinArray& bins, std::span<const std::size_t> choices,
                               TieBreak tie_break, Xoshiro256StarStar& rng);

}  // namespace nubb
