#pragma once

/// \file game.hpp
/// One complete balls-into-bins game: throw m balls, each placed by
/// Algorithm 1 among d bins drawn from a BinSampler.

#include <cstdint>
#include <functional>

#include "core/bin_array.hpp"
#include "core/protocol.hpp"
#include "core/sampler.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace nubb {

/// Parameters of a single game.
struct GameConfig {
  /// Number of balls m. 0 means "m = total capacity C" (the paper's default
  /// setting where the optimal maximum load is exactly 1).
  std::uint64_t balls = 0;

  /// Number of random choices d per ball (d >= 1; the paper analyses d >= 2).
  std::uint32_t choices = 2;

  /// Tie-break rule; Algorithm 1 uses kPreferLargerCapacity.
  TieBreak tie_break = TieBreak::kPreferLargerCapacity;

  /// If true the d candidates are forced distinct (sampling repeats until d
  /// different bins were seen). The paper's analysis uses independent
  /// choices (duplicates possible); distinct mode exists for ablations.
  bool distinct_choices = false;

  /// Arrival batch size. 1 is the paper's sequential process; > 1 means
  /// balls arrive in rounds of `batch` whose decisions observe the loads as
  /// of the round start (stale information, see batched.hpp). Consumed by
  /// the replication engine (`GameFixture::run_one`) and
  /// `play_batched_game`; the sequential entry points (`place_one_ball`,
  /// `play_game`, `play_game_heights`) model the batch = 1 process and
  /// ignore this field.
  std::uint64_t batch = 1;

  /// RNG draw-order stream (see RngStream). kV2 is the batch-drawn bulk
  /// engine and the default of every CLI tool (`--stream`). kV1 is the
  /// per-ball reference order and stays the default here: the v1 goldens,
  /// the frozen-reference kernel tests, the exact-oracle check and the S = 1
  /// serving determinism tests pin it, and flipping it would move the
  /// fixed-seed outcome of every caller that leaves the stream unset. Bulk
  /// v1 runs place ball after ball through the per-ball path, several times
  /// slower than v2. The realised process distribution is the same for
  /// both; fixed-seed outcomes are not.
  RngStream stream = RngStream::kV1;

  /// Storage knobs for the bin state built for this game: huge-page backing
  /// and the cross-ball candidate prefetch. Never observable in results —
  /// fixed-seed outcomes are bit-identical across every setting (the RNG
  /// draw order does not depend on memory layout); only throughput moves.
  MemoryConfig memory;

  /// Resolve-stage SIMD selection for bulk stream-v2 runs (`nubb_run --simd`,
  /// env NUBB_SIMD under kAuto; see util/simd.hpp). Never observable in
  /// results: the AVX2 kernels consume the identical draw stream and are
  /// bit-identical to the scalar resolve on every fixed seed — like `memory`,
  /// only throughput moves. Ignored (scalar) under stream v1.
  SimdMode simd = SimdMode::kAuto;
};

/// Snapshot handed to checkpoint callbacks during a game.
struct GameCheckpoint {
  std::uint64_t balls_thrown = 0;
  Load max_load{0, 1};
  double average_load = 0.0;
};

using CheckpointFn = std::function<void(const GameCheckpoint&, const BinArray&)>;

/// Final outcome of a game (the BinArray itself holds the full allocation).
struct GameResult {
  Load max_load{0, 1};
  std::size_t argmax_bin = 0;
  std::uint64_t balls_thrown = 0;

  double max_load_value() const noexcept { return max_load.value(); }
};

/// Place one ball according to `cfg` and return its destination bin.
std::size_t place_one_ball(BinArray& bins, const BinSampler& sampler, const GameConfig& cfg,
                           Xoshiro256StarStar& rng);

/// Play a full game on `bins` (which must be empty or mid-game; balls are
/// *added* to the current state). If `checkpoint_interval > 0`,
/// `on_checkpoint` is invoked after every `checkpoint_interval` balls and
/// once more after the final ball if it does not fall on the interval.
GameResult play_game(BinArray& bins, const BinSampler& sampler, const GameConfig& cfg,
                     Xoshiro256StarStar& rng, std::uint64_t checkpoint_interval = 0,
                     const CheckpointFn& on_checkpoint = {});

/// Play a game and record every ball's *height* — the load of its
/// destination bin immediately after the allocation (paper Section 2).
/// Returns one height per ball, in throw order. The maximum over the
/// returned heights equals the final maximum load (the running maximum only
/// moves at an allocation, to exactly that ball's height).
std::vector<double> play_game_heights(BinArray& bins, const BinSampler& sampler,
                                      const GameConfig& cfg, Xoshiro256StarStar& rng);

}  // namespace nubb
