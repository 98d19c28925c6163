#pragma once

/// \file placement_kernel.hpp
/// Fused hot-path placement: draw d candidates, choose the destination,
/// commit the ball — one pass, specialised once per game.
///
/// Why a kernel object: the per-ball API (`place_one_ball`) re-validates its
/// configuration, re-resolves the sampler through a shared_ptr, branches on
/// the tie-break rule, and compares exact rational loads by 128-bit cross
/// multiplication — on every single ball, although all of it is loop
/// invariant. The kernel hoists validation and configuration dispatch to
/// construction time (the tie-break rule and the comparison width select one
/// fully specialised inner loop), caches raw pointers to the bin state and
/// the alias table, and compares loads with plain 64-bit multiplications
/// whenever the worst-case numerator times the largest capacity cannot
/// overflow, falling back to the exact 128-bit cross multiplication only
/// when it could.
///
/// One kernel, three historical loops: the commit stage adds an integer
/// `amount` to the destination slot's numerator — 1 for the core game, the
/// ball's weight for the weighted game — so the unweighted, weighted, and
/// batched-arrivals paths all run the same fused body. The decide and
/// commit stages operate on the interleaved (numerator, capacity) BinSlot
/// layout shared by BinArray and WeightedBinArray, so a random candidate
/// probe touches one cache line, not two.
///
/// RNG discipline: under stream v1 (GameConfig's default, the per-ball
/// reference order) the kernel consumes random draws in exactly the same
/// order and quantity as the historic unfused paths (the ball's size draw
/// where the game is weighted, d candidate draws, then one bounded draw only
/// when a tie survives capacity filtering), so every fixed-seed golden value
/// is bit-identical to the pre-kernel code. A bulk v1 run is the per-ball
/// body in a loop; bulk speed is stream v2's job. Under stream v2
/// (GameConfig::stream == RngStream::kV2, the default of every CLI tool)
/// each bulk run is consumed in blocks of up to kStreamBlock balls whose
/// draws are batch-filled up front in three phases — sizes, then one 64-bit
/// word per candidate (under an alias table the word's high product half is
/// the slot and its low half the acceptance mantissa; uniform samplers use
/// the identical bounded draw), then packed tie words — after which the
/// resolve pass is branch-predictable straight-line code consuming no RNG
/// at all; see docs/stream-v2.md for the exact draw-order contract. Both
/// streams realise the same stochastic process (v2's reuse of the bounded
/// draw's low product half and modulo tie picks sit below the 2^-53
/// threshold quantisation both streams share); only fixed-seed outcomes
/// differ.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bin_array.hpp"
#include "core/game.hpp"
#include "core/sampler.hpp"
#include "util/assert.hpp"
#include "util/int128.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace nubb {

class WeightedBinArray;
class BallSizeModel;

namespace detail {

/// Decide stage's read view of the live interleaved slots: the numerator and
/// capacity of a candidate share one BinSlot (one cache line).
struct SlotLoadView {
  const BinSlot* slots;
  std::uint64_t num(std::size_t i) const noexcept { return slots[i].num; }
  std::uint64_t cap(std::size_t i) const noexcept { return slots[i].cap; }
};

/// Decide on numerators frozen at a batch boundary while capacities (and
/// commits) stay live — the batched-arrivals staleness contract.
struct StaleLoadView {
  const std::uint64_t* nums;
  const BinSlot* slots;
  std::uint64_t num(std::size_t i) const noexcept { return nums[i]; }
  std::uint64_t cap(std::size_t i) const noexcept { return slots[i].cap; }
};

/// Fused "choose" stage shared by every kernel path: among `choices[0..d)`,
/// minimise the exact post-allocation load `(view.num(i) + add) / view.cap(i)`
/// with set semantics (a bin drawn twice carries no extra tie-break weight),
/// then apply the tie-break `TB`. `add` is the committed amount: 1 for unit
/// balls, the ball's weight in the weighted game. `Fast64` selects 64-bit
/// cross multiplication; the caller guarantees `(view.num(i) + add) *
/// max(caps)` cannot wrap when it is set. `tie_pick(count)` resolves a
/// surviving tie of `count > 1` members to an index in [0, count); it is
/// invoked at most once per ball.
template <bool Fast64, TieBreak TB, class View, class TiePick>
inline std::size_t decide_destination_impl(const View& view, const std::size_t* choices,
                                           std::uint32_t d, std::uint64_t add,
                                           TiePick&& tie_pick) {
  constexpr std::uint32_t kMaxChoices = 64;
  std::size_t best[kMaxChoices];
  best[0] = choices[0];
  std::size_t best_count = 1;
  std::uint64_t best_num = view.num(choices[0]) + add;  // post-allocation numerator
  std::uint64_t best_cap = view.cap(choices[0]);

  for (std::uint32_t i = 1; i < d; ++i) {
    const std::size_t cand = choices[i];
    const std::uint64_t num = view.num(cand) + add;
    const std::uint64_t cap = view.cap(cand);
    bool less;
    bool equal;
    if constexpr (Fast64) {
      const std::uint64_t lhs = num * best_cap;
      const std::uint64_t rhs = best_num * cap;
      less = lhs < rhs;
      equal = lhs == rhs;
    } else {
      const uint128 lhs = static_cast<uint128>(num) * best_cap;
      const uint128 rhs = static_cast<uint128>(best_num) * cap;
      less = lhs < rhs;
      equal = lhs == rhs;
    }
    if (less) {
      best[0] = cand;
      best_count = 1;
      best_num = num;
      best_cap = cap;
    } else if (equal) {
      // Set semantics: a duplicate of a recorded candidate must not get
      // double weight in the uniform tie-break.
      bool duplicate = false;
      for (std::size_t j = 0; j < best_count; ++j) {
        if (best[j] == cand) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) best[best_count++] = cand;
    }
  }

  if (best_count == 1) return best[0];
  if constexpr (TB == TieBreak::kFirstChoice) {
    return best[0];  // candidates were recorded in choice order
  } else if constexpr (TB == TieBreak::kUniform) {
    return best[tie_pick(best_count)];
  } else {
    // Algorithm 1 lines 4-6: keep only maximum-capacity members of B_opt.
    std::uint64_t cmax = 0;
    for (std::size_t j = 0; j < best_count; ++j) {
      if (view.cap(best[j]) > cmax) cmax = view.cap(best[j]);
    }
    std::size_t filtered = 0;
    for (std::size_t j = 0; j < best_count; ++j) {
      if (view.cap(best[j]) == cmax) best[filtered++] = best[j];
    }
    if (filtered == 1) return best[0];
    return best[tie_pick(filtered)];
  }
}

/// Stream-v1 form: a surviving tie consumes one bounded draw at resolve
/// time — identical to the historic `choose_destination`.
template <bool Fast64, TieBreak TB, class View>
inline std::size_t decide_destination(const View& view, const std::size_t* choices,
                                      std::uint32_t d, std::uint64_t add,
                                      Xoshiro256StarStar& rng) {
  return decide_destination_impl<Fast64, TB>(
      view, choices, d, add,
      [&rng](std::size_t count) { return static_cast<std::size_t>(rng.bounded(count)); });
}

/// Stream-v2 form: the ball's tie material was drawn in the block's tie
/// phase; a surviving tie of `count` members resolves to `tie_word % count`
/// (modulo bias <= count / 2^32, far below the 2^-53 threshold quantisation
/// of the candidate draws). Consumes no RNG.
template <bool Fast64, TieBreak TB, class View>
inline std::size_t decide_destination_pretied(const View& view, const std::size_t* choices,
                                              std::uint32_t d, std::uint64_t add,
                                              std::uint64_t tie_word) {
  return decide_destination_impl<Fast64, TB>(
      view, choices, d, add,
      [tie_word](std::size_t count) { return static_cast<std::size_t>(tie_word % count); });
}

}  // namespace detail

/// One game's placement loop, fused and pre-validated. Construct once per
/// game (construction is O(1)); every driver — sequential, batched,
/// checkpointed, growth, reallocation, weighted — funnels its balls through
/// here.
///
/// Pointer caching: the kernel holds raw pointers into the bin array's slots
/// and the sampler's alias table. `clear()` and `BinArray::remove_ball()`
/// keep the kernel valid; `append_bins()` does not (construct a fresh kernel
/// after growing the array). The bin array and sampler must outlive the
/// kernel.
class PlacementKernel {
 public:
  static constexpr std::uint32_t kMaxChoices = 64;

  /// Stream-v2 block size: each bulk run consumes its balls in blocks of up
  /// to this many, whose draws are batch-filled before any ball resolves.
  /// Part of the stream-v2 draw-order contract (docs/stream-v2.md): changing
  /// it changes v2 fixed-seed outcomes.
  static constexpr std::size_t kStreamBlock = 256;

  /// Validates once what the per-ball path used to validate per ball
  /// (choice count, sampler/bin size match, distinct-mode support).
  /// `planned_balls` bounds how many balls will be committed through this
  /// kernel; 0 means the GameConfig convention (cfg.balls, or m = C when
  /// cfg.balls is 0). The bound selects the load-comparison width, and
  /// run() enforces it.
  PlacementKernel(BinArray& bins, const BinSampler& sampler, const GameConfig& cfg,
                  std::uint64_t planned_balls = 0);

  /// Weighted form: the same fused loops committing integer ball weights
  /// into a WeightedBinArray. `planned_balls` must be explicit (the m = C
  /// convention is scaled by mean ball size, which the caller owns);
  /// `max_ball_weight` is the largest weight any single ball can carry —
  /// together they bound the worst-case numerator for the comparison-width
  /// choice exactly as `planned_balls` alone does for unit balls.
  PlacementKernel(WeightedBinArray& bins, const BinSampler& sampler, const GameConfig& cfg,
                  std::uint64_t planned_balls, std::uint64_t max_ball_weight);

  /// Balls this kernel is sized for.
  std::uint64_t planned_balls() const noexcept { return planned_; }

  /// Balls committed through this kernel so far.
  std::uint64_t placed_balls() const noexcept { return placed_; }

  /// True when the kernel compares loads with 64-bit arithmetic (exposed
  /// for tests and diagnostics).
  bool uses_fast64_path() const noexcept { return fast64_; }

  /// The resolve implementation the bulk stream-v2 runs actually execute
  /// (never just what was requested): kAvx2 only when GameConfig::simd
  /// resolved to it AND the game shape has a vector form (stream v2,
  /// 64-bit comparison width, independent choices). Scalar and AVX2 runs
  /// are bit-identical — this is telemetry, not a result knob.
  SimdImpl simd_impl() const noexcept { return simd_; }

  /// Place one unit ball on the live loads; returns the destination bin.
  /// \pre the caller keeps the net ball count within the planned horizon
  ///      (run() checks this; the single-ball form trusts the caller so
  ///      remove-then-place loops like rebalancing stay O(1) per move).
  std::size_t place_one(Xoshiro256StarStar& rng) {
    ++placed_;
    return place_fn_(*this, nullptr, 1, rng);
  }

  /// Place one ball of weight `amount` (same precondition as place_one; the
  /// caller keeps the committed amounts within the planned horizon).
  std::size_t place_one_amount(std::uint64_t amount, Xoshiro256StarStar& rng) {
    ++placed_;
    return place_fn_(*this, nullptr, amount, rng);
  }

  /// Place one unit ball deciding on `stale_counts` (ball counts frozen at a
  /// batch boundary, one entry per bin) while committing to the live bins —
  /// the batched-arrivals mode.
  std::size_t place_one_stale(const std::uint64_t* stale_counts, Xoshiro256StarStar& rng) {
    ++placed_;
    return place_fn_(*this, stale_counts, 1, rng);
  }

  /// Place `count` unit balls on the live loads in one fused loop.
  void run(std::uint64_t count, Xoshiro256StarStar& rng);

  /// Place `count` balls whose weights are drawn per ball from `sizes`
  /// (size draw first, then candidates — the historic weighted RNG order).
  /// Requires construction over a WeightedBinArray whose `max_ball_weight`
  /// bound covers everything `sizes` can return.
  void run_weighted(std::uint64_t count, const BallSizeModel& sizes,
                    Xoshiro256StarStar& rng);

 private:
  using PlaceFn = std::size_t (*)(PlacementKernel&, const std::uint64_t*, std::uint64_t,
                                  Xoshiro256StarStar&);
  using RunFn = void (*)(PlacementKernel&, std::uint64_t, Xoshiro256StarStar&);
  using RunWeightedFn = void (*)(PlacementKernel&, std::uint64_t, const BallSizeModel&,
                                 Xoshiro256StarStar&);

  template <bool Fast64, TieBreak TB, RngStream S>
  static std::size_t place_impl(PlacementKernel& k, const std::uint64_t* stale_counts,
                                std::uint64_t amount, Xoshiro256StarStar& rng);
  template <bool Fast64, TieBreak TB>
  static void run_impl(PlacementKernel& k, std::uint64_t count, Xoshiro256StarStar& rng);
  template <bool Fast64, TieBreak TB>
  static void run_weighted_impl(PlacementKernel& k, std::uint64_t count,
                                const BallSizeModel& sizes, Xoshiro256StarStar& rng);
  template <bool Fast64, TieBreak TB>
  static void run_v2_impl(PlacementKernel& k, std::uint64_t count, Xoshiro256StarStar& rng);
  template <bool Fast64, TieBreak TB>
  static void run_weighted_v2_impl(PlacementKernel& k, std::uint64_t count,
                                   const BallSizeModel& sizes, Xoshiro256StarStar& rng);
  template <bool Fast64, TieBreak TB, class Sizes>
  static void run_loop_v2(PlacementKernel& k, std::uint64_t count, Sizes sz,
                          Xoshiro256StarStar& rng);

  // AVX2 counterparts of the stream-v2 bulk entry points, defined and
  // explicitly instantiated in placement_kernel_avx2.cpp (the only core TU
  // compiled with -mavx2; it builds aborting stubs when the flag is
  // unavailable, so these always link). Installed by select_for_tie_break
  // only when simd_ resolved to kAvx2 on a Fast64 non-distinct v2 kernel;
  // bit-identical to run_v2_impl / run_weighted_v2_impl.
  template <TieBreak TB>
  static void run_v2_avx2_impl(PlacementKernel& k, std::uint64_t count,
                               Xoshiro256StarStar& rng);
  template <TieBreak TB>
  static void run_weighted_v2_avx2_impl(PlacementKernel& k, std::uint64_t count,
                                        const BallSizeModel& sizes, Xoshiro256StarStar& rng);
  template <TieBreak TB, class Sizes>
  static void run_loop_v2_avx2(PlacementKernel& k, std::uint64_t count, Sizes sz,
                               Xoshiro256StarStar& rng);

  void validate(const BinSampler& sampler, std::size_t bins, const GameConfig& cfg) const;
  void select_impl(TieBreak tie_break);
  template <TieBreak TB>
  void select_for_tie_break();

  // Raw pointers into the owning bin array (BinArray or WeightedBinArray):
  // interleaved slots plus the bookkeeping the commit stage maintains with
  // add_ball/add_weight semantics.
  BinSlot* slots_ = nullptr;
  std::uint64_t* total_ = nullptr;
  Load* max_load_ = nullptr;
  std::size_t* argmax_ = nullptr;
  const AliasTable* table_ = nullptr;  // null => uniform draw over n_
  std::size_t n_ = 0;
  std::uint32_t d_ = 1;
  bool distinct_ = false;
  bool fast64_ = false;
  bool prefetch_ = true;  // cross-ball candidate prefetch in bulk v2 runs
  // Every bin capacity fits 32 bits: lets the AVX2 resolve kernels use the
  // halved-multiply cross products (the capacity is always the multiplier).
  bool caps_u32_ = false;
  SimdImpl simd_ = SimdImpl::kScalar;  // what bulk v2 runs execute (see simd_impl)
  RngStream stream_ = RngStream::kV1;
  std::uint64_t planned_ = 0;
  std::uint64_t placed_ = 0;
  PlaceFn place_fn_ = nullptr;
  RunFn run_fn_ = nullptr;
  RunWeightedFn run_weighted_fn_ = nullptr;
  // Candidate staging buffer, zeroed once at construction instead of once
  // per ball (the draw stage always overwrites entries [0, d) — kernels are
  // single-threaded scratch, one per worker, never shared).
  std::size_t choices_[kMaxChoices] = {};
  // Stream-v2 block buffers (kStreamBlock * d resolved candidates, the
  // block's packed tie words, and one size per ball for the weighted loop).
  // Allocated lazily by the first bulk v2 run so per-ball entry points never
  // pay for them.
  std::vector<std::uint32_t> v2_cand_;
  std::vector<std::uint64_t> v2_tie_;
  std::vector<std::uint64_t> v2_sizes_;
};

}  // namespace nubb
