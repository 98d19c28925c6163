#pragma once

/// \file placement_resolve.hpp
/// The stream-v2 resolve-stage building blocks, shared between the scalar
/// placement kernel TU and the AVX2 TU (placement_kernel_avx2.cpp). Hoisted
/// verbatim from placement_kernel.cpp's anonymous namespace: the SIMD loops
/// vectorise the per-element math but fall back to these exact scalar bodies
/// for duplicate candidates, destination collisions within a group, and
/// chunk tails, which is what keeps the two paths bit-identical. Everything
/// here is header-only and NUBB_ALWAYS_INLINE so each TU compiles it at its
/// own ISA level — except the two AVX2 entry points declared at the end,
/// which only the AVX2 TU defines.

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/placement_kernel.hpp"
#include "core/weighted.hpp"
#include "util/inline.hpp"
#include "util/int128.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"

namespace nubb::detail {

/// Branchless `c ? a : b` on unsigned integers. The ternary spelling is NOT
/// equivalent in practice: gcc if-converts it only sometimes (it kept the
/// kFirstChoice fold branchless but compiled the kPreferLargerCapacity pick
/// as a jump around the selects), and a ~50/50 data-dependent jump in the
/// resolve loop costs ~15 cycles per ball in mispredicts. The xor-mask form
/// cannot be turned back into a branch.
template <class T>
NUBB_ALWAYS_INLINE inline T csel(bool c, T a, T b) {
  static_assert(std::is_unsigned_v<T>);
  const T mask = static_cast<T>(0) - static_cast<T>(c);
  return static_cast<T>(b ^ ((b ^ a) & mask));
}

/// One stream-v2 candidate draw under an alias table: a single 64-bit word
/// serves as both the slot draw and the acceptance mantissa. The word is
/// drawn through the same 128-bit product and low-half rejection as
/// Xoshiro256StarStar::bounded (`reject` is the hoisted `2^64 mod n`), so
/// the slot is exactly uniform; the acceptance mantissa is bits 11..63 of
/// the accepted low half, whose residual non-uniformity (a grid of spacing
/// n over [reject, 2^64)) is below the 2^-53 threshold quantisation shared
/// with stream v1. Part of the docs/stream-v2.md contract.
NUBB_ALWAYS_INLINE inline std::size_t draw_candidate_v2(const std::uint64_t* const threshold,
                                                        const std::uint32_t* const alias,
                                                        const std::uint64_t n,
                                                        const std::uint64_t reject,
                                                        Xoshiro256StarStar& rng) {
  std::uint64_t lo;
  std::uint64_t hi;
  for (;;) {
    const uint128 m = static_cast<uint128>(rng.next()) * n;
    lo = static_cast<std::uint64_t>(m);
    hi = static_cast<std::uint64_t>(m >> 64);
    if (lo >= reject) [[likely]] break;
  }
  const auto slot = static_cast<std::uint32_t>(hi);
  const std::uint32_t al = alias[slot];
  // Unconditional alias load + forced conditional move: the accept test on
  // real profiles is a coin flip (mixed 1:10 rejects ~40% of slots), which
  // as a branch costs more in mispredicts than the extra L1 load — and the
  // ternary spelling did compile to a jump around an out-of-line alias path.
  return static_cast<std::size_t>(csel((lo >> 11) < threshold[slot], slot, al));
}

/// Mutable bookkeeping a fused loop keeps in registers for its whole run and
/// flushes back to the bin array once at the end: the total committed
/// amount and the running maximum load (add_ball/add_weight semantics).
/// Passed and returned by value so every loop body below optimises as a
/// small self-contained function.
struct RunTotals {
  std::uint64_t total;
  std::uint64_t max_num;
  std::uint64_t max_cap;
  std::size_t argmax;
};

/// Exact post-allocation load comparison of num_a/cap_a vs num_b/cap_b by
/// cross multiplication at the width the kernel selected at construction.
template <bool Fast64>
NUBB_ALWAYS_INLINE inline void load_less_equal(std::uint64_t num_a, std::uint64_t cap_a,
                                               std::uint64_t num_b, std::uint64_t cap_b,
                                               bool& less, bool& equal) {
  if constexpr (Fast64) {
    const std::uint64_t lhs = num_a * cap_b;
    const std::uint64_t rhs = num_b * cap_a;
    less = lhs < rhs;
    equal = lhs == rhs;
  } else {
    const uint128 lhs = static_cast<uint128>(num_a) * cap_b;
    const uint128 rhs = static_cast<uint128>(num_b) * cap_a;
    less = lhs < rhs;
    equal = lhs == rhs;
  }
}

/// Fused composite-key comparison for kPreferLargerCapacity: `beats` is
/// "key_a strictly precedes key_b" under (load ascending, capacity
/// descending), `tied` is full key equality. Exact on integers:
/// lhs < rhs gives beats regardless of the bump; lhs == rhs promotes to
/// beats exactly when cap_a > cap_b; lhs > rhs implies lhs >= rhs + 1 so
/// the bump cannot flip it. The +1 cannot wrap — the Fast64 gate caps
/// every cross product at 2^64 - 2, and 128-bit products are below
/// 2^128 - 1 by construction. Three operations cheaper per pair than
/// assembling the same bits from load_less_equal plus capacity tests,
/// which is what the Greedy[3] resolve budget needed.
template <bool Fast64>
NUBB_ALWAYS_INLINE inline void key_beats_tied(std::uint64_t num_a, std::uint64_t cap_a,
                                              std::uint64_t num_b, std::uint64_t cap_b,
                                              bool& beats, bool& tied) {
  if constexpr (Fast64) {
    const std::uint64_t lhs = num_a * cap_b;
    const std::uint64_t rhs = num_b * cap_a;
    beats = lhs < rhs + static_cast<std::uint64_t>(cap_a > cap_b);
    tied = (lhs == rhs) & (cap_a == cap_b);
  } else {
    const uint128 lhs = static_cast<uint128>(num_a) * cap_b;
    const uint128 rhs = static_cast<uint128>(num_b) * cap_a;
    beats = lhs < rhs + static_cast<uint128>(cap_a > cap_b);
    tied = (lhs == rhs) & (cap_a == cap_b);
  }
}

/// Commit `amount` into `dest` whose post-allocation numerator and capacity
/// the decide stage already holds in registers; update the running maximum.
template <bool Fast64>
NUBB_ALWAYS_INLINE inline void commit_known(BinSlot* slots, std::size_t dest,
                                            std::uint64_t num, std::uint64_t cap,
                                            std::uint64_t amount, RunTotals& t) {
  slots[dest].num = num;
  t.total += amount;
  bool greater;
  if constexpr (Fast64) {
    greater = num * t.max_cap > t.max_num * cap;
  } else {
    greater = Load{t.max_num, t.max_cap} < Load{num, cap};
  }
  // Deliberately a branch, not a conditional move: the maximum changes a
  // vanishing fraction of balls once the run warms up, and an if-converted
  // update (gcc spills argmax) threads a store-to-load-forwarding chain
  // through every iteration of the resolve loops. [[unlikely]] alone does
  // not stop gcc's if-conversion here; the barrier does.
  if (greater) [[unlikely]] {
    NUBB_FORCE_BRANCH();
    t.max_num = num;
    t.max_cap = cap;
    t.argmax = dest;
  }
}

/// Commit into a destination whose slot has not been read yet.
template <bool Fast64>
NUBB_ALWAYS_INLINE inline void commit_amount(BinSlot* slots, std::size_t dest,
                                             std::uint64_t amount, RunTotals& t) {
  const BinSlot s = slots[dest];
  commit_known<Fast64>(slots, dest, s.num + amount, s.cap, amount, t);
}

/// Branchless decide-and-commit for one stream-v2 Greedy[2] ball: both
/// candidates and the ball's tie bit are pre-drawn, so apart from the rare
/// duplicate pair and the rarely-taken running-max update every decision is
/// a conditional move (the ~50/50 winner-pick branch alone cost the first
/// v2 cut a third of its per-ball budget in mispredicts). Returns the
/// destination so the AVX2 group loop can track intra-group collisions.
template <bool Fast64, TieBreak TB>
NUBB_ALWAYS_INLINE inline std::size_t resolve_ball_d2_w(BinSlot* const slots,
                                                        const std::size_t c0,
                                                        const std::size_t c1,
                                                        const std::uint64_t w,
                                                        const bool tie_bit, RunTotals& t) {
  if (c0 == c1) [[unlikely]] {
    commit_amount<Fast64>(slots, c0, w, t);  // a duplicate pair is the set {c0}
    return c0;
  }
  const BinSlot s0 = slots[c0];
  const BinSlot s1 = slots[c1];
  const std::uint64_t n0 = s0.num + w;
  const std::uint64_t n1 = s1.num + w;
  bool c1_less;
  bool equal;
  load_less_equal<Fast64>(n1, s1.cap, n0, s0.cap, c1_less, equal);
  bool pick1;
  if constexpr (TB == TieBreak::kFirstChoice) {
    pick1 = c1_less;
  } else if constexpr (TB == TieBreak::kUniform) {
    pick1 = c1_less | (equal & tie_bit);
  } else {
    // Prefer the larger capacity; the tie bit decides only between equals.
    const bool cap_gt = s1.cap > s0.cap;
    const bool cap_eq = s1.cap == s0.cap;
    pick1 = c1_less | (equal & (cap_gt | (cap_eq & tie_bit)));
  }
  const std::size_t dest = csel(pick1, c1, c0);
  const std::uint64_t num = csel(pick1, n1, n0);
  const std::uint64_t cap = csel(pick1, s1.cap, s0.cap);
  commit_known<Fast64>(slots, dest, num, cap, w, t);
  return dest;
}

/// Branchless decide-and-commit for one stream-v2 Greedy[3] ball with
/// distinct candidates (duplicates — probability <= 3/n per ball — fall
/// back to the generic pretied fold, which shares the tie contract). The
/// tie pick is `field mod bc` over the co-minimal members in recorded
/// order, exactly like decide_destination_pretied. Returns the destination
/// (see resolve_ball_d2_w).
template <bool Fast64, TieBreak TB>
NUBB_ALWAYS_INLINE inline std::size_t resolve_ball_d3_w(
    BinSlot* const slots, const std::size_t c0, const std::size_t c1, const std::size_t c2,
    const std::uint64_t w, const std::uint32_t tie_field, RunTotals& t) {
  if (c0 == c1 || c0 == c2 || c1 == c2) [[unlikely]] {
    const std::size_t choices[3] = {c0, c1, c2};
    const std::size_t dest = detail::decide_destination_pretied<Fast64, TB>(
        detail::SlotLoadView{slots}, choices, 3, w, tie_field);
    commit_amount<Fast64>(slots, dest, w, t);
    return dest;
  }
  const BinSlot s0 = slots[c0];
  const BinSlot s1 = slots[c1];
  const BinSlot s2 = slots[c2];
  const std::uint64_t n0 = s0.num + w;
  const std::uint64_t n1 = s1.num + w;
  const std::uint64_t n2 = s2.num + w;
  if constexpr (TB == TieBreak::kFirstChoice) {
    // Strict-less fold: the first minimum wins, no tie material consumed.
    std::size_t m = c0;
    std::uint64_t mn = n0;
    std::uint64_t mp = s0.cap;
    bool less;
    bool equal;
    load_less_equal<Fast64>(n1, s1.cap, mn, mp, less, equal);
    m = csel(less, c1, m);
    mn = csel(less, n1, mn);
    mp = csel(less, s1.cap, mp);
    load_less_equal<Fast64>(n2, s2.cap, mn, mp, less, equal);
    m = csel(less, c2, m);
    mn = csel(less, n2, mn);
    mp = csel(less, s2.cap, mp);
    commit_known<Fast64>(slots, m, mn, mp, w, t);
    return m;
  } else {
    // kPreferLargerCapacity orders candidates by the composite key (load
    // ascending, capacity descending) — the co-minimal class is then
    // exactly the capacity-filtered tie set of decide_destination; kUniform
    // orders by load alone. All three pairwise comparisons are computed
    // INDEPENDENTLY so their multiplies pipeline instead of chaining
    // through a sequential fold (the fold's key-select feeds the next
    // compare, ~10 serial cycles per step); class membership is then pure
    // combinational logic on the six relation bits, and the rank-j member
    // is picked by conditional moves. Branching to a tie-free fast path
    // instead is NOT profitable: at the paper's m = C operating point
    // loads are small integers, load-equal candidates are frequent, and
    // the branch mispredicts its way to ~2x slower.
    bool a;  // K1 < K0
    bool b;  // K2 < K0
    bool c;  // K2 < K1
    bool e;  // K1 == K0
    bool f;  // K2 == K0
    bool g;  // K2 == K1
    if constexpr (TB == TieBreak::kPreferLargerCapacity) {
      key_beats_tied<Fast64>(n1, s1.cap, n0, s0.cap, a, e);
      key_beats_tied<Fast64>(n2, s2.cap, n0, s0.cap, b, f);
      key_beats_tied<Fast64>(n2, s2.cap, n1, s1.cap, c, g);
    } else {
      load_less_equal<Fast64>(n1, s1.cap, n0, s0.cap, a, e);
      load_less_equal<Fast64>(n2, s2.cap, n0, s0.cap, b, f);
      load_less_equal<Fast64>(n2, s2.cap, n1, s1.cap, c, g);
    }
    // In-class flags: a candidate is co-minimal iff nothing sorts strictly
    // below it. Exact arithmetic makes the six bits mutually consistent.
    const std::uint32_t in0 = static_cast<std::uint32_t>(!a & !b);
    const std::uint32_t in1 = static_cast<std::uint32_t>((a | e) & !c);
    const std::uint32_t in2 = static_cast<std::uint32_t>((b | f) & (c | g));
    const std::uint32_t bc = in0 + in1 + in2;
    // The winner is the class member at rank j in candidate order (rank =
    // count of in-class candidates before it), selected arithmetically —
    // staging members in a tiny stack array costs a store-to-load forward
    // (~5 cycles) on the dest -> commit chain every ball.
    const std::uint32_t j = csel(bc == 3, tie_field % 3, tie_field & (bc - 1));
    const bool pick1 = (in1 != 0) & (j == in0);
    const bool pick2 = (in2 != 0) & (j == in0 + in1);
    const std::size_t dest = csel(pick2, c2, csel(pick1, c1, c0));
    // Re-read the winner's slot rather than csel-chaining its (num, cap)
    // through the whole body: the three slot loads are hot in L1, and
    // dropping six selects takes enough values out of the live set that
    // gcc stops spilling setcc results through the stack mid-compare.
    const std::uint64_t kn = slots[dest].num + w;
    const std::uint64_t kp = slots[dest].cap;
    commit_known<Fast64>(slots, dest, kn, kp, w, t);
    return dest;
  }
}

/// Candidate phase for one block: `count` candidate draws in draw order —
/// fused single-word draws under an alias table, one bulk bounded_fill for
/// uniform samplers (both consume one accepted 64-bit word per candidate,
/// with the identical low-half rejection rule).
NUBB_ALWAYS_INLINE inline void fill_candidates_v2(const std::uint64_t* const threshold,
                                                  const std::uint32_t* const alias,
                                                  const std::uint64_t n,
                                                  std::uint32_t* const cand,
                                                  const std::size_t count,
                                                  Xoshiro256StarStar& rng) {
  if (threshold == nullptr) {
    rng.bounded_fill(n, cand, count);
    return;
  }
  const std::uint64_t reject = (0 - n) % n;
  // Draw on a local copy of the generator: the caller's lives behind a
  // reference, and the threshold loads are uint64_t loads that could alias
  // its state words, so gcc otherwise writes all four state words back to
  // memory on every draw. The copy's address never escapes, which keeps the
  // whole state in registers across the block; one write-back at the end.
  Xoshiro256StarStar local = rng;
  for (std::size_t i = 0; i < count; ++i) {
    cand[i] = static_cast<std::uint32_t>(draw_candidate_v2(threshold, alias, n, reject, local));
  }
  rng = local;
}

/// Tie phase for one block: one raw word per packing unit, packed so the
/// phase stays a negligible share of the per-ball budget. Ball b's tie
/// material is: d = 2 — bit (b mod 64) of word b/64; d = 3 — the 32-bit
/// half (b even: low, odd: high) of word b/2; d >= 4 — all of word b.
NUBB_ALWAYS_INLINE inline void fill_ties_v2(std::uint64_t* const tie, const std::size_t words,
                                            Xoshiro256StarStar& rng) {
  // Local copy for the same aliasing reason as the candidate phase: `tie` is
  // a uint64_t* and would otherwise force a state write-back per word.
  Xoshiro256StarStar local = rng;
  for (std::size_t i = 0; i < words; ++i) tie[i] = local.next();
  rng = local;
}

/// Size-phase policy for unit balls: no draws, weight 1 — constant-folds the
/// whole phase out of the loop shapes below.
struct UnitSizes {
  NUBB_ALWAYS_INLINE void fill(Xoshiro256StarStar&, std::size_t) const noexcept {}
  NUBB_ALWAYS_INLINE std::uint64_t get(std::size_t) const noexcept { return 1; }
};

/// Size-phase policy for the weighted game: one block-bulk model fill (the
/// kind dispatch hoisted inside BallSizeModel::fill), sizes read back from
/// the kernel's buffer.
struct ModelSizes {
  const BallSizeModel* model;
  std::uint64_t* buf;
  void fill(Xoshiro256StarStar& rng, std::size_t count) const { model->fill(buf, count, rng); }
  NUBB_ALWAYS_INLINE std::uint64_t get(std::size_t i) const noexcept { return buf[i]; }
};

/// How many balls ahead the resolve loops prefetch their candidates' slots.
/// Prefetching is possible at all because the block's candidates are
/// resolved before any ball commits; it is gated at runtime by
/// MemoryConfig::prefetch (`pf_end` is 0 when off, so the disabled path
/// costs the same single compare per ball the bounds check always cost).
/// Prefetch order never touches the RNG, so on-vs-off is bit-identical.
inline constexpr std::size_t kPrefetchAhead = 8;

NUBB_ALWAYS_INLINE inline std::size_t prefetch_end(const bool prefetch,
                                                   const std::size_t nb) {
  return prefetch && nb > kPrefetchAhead ? nb - kPrefetchAhead : 0;
}

// --- AVX2 entry points ------------------------------------------------------
// Defined in placement_kernel_avx2.cpp, the only TU compiled with -mavx2; a
// toolchain without the flag builds aborting stubs there, so both always
// link. The kernel calls them only when its simd_impl() is kAvx2, which
// implies the 64-bit comparison width and independent choices. Both are
// bit-identical to their scalar counterparts, RNG consumption included.

/// Vector candidate phase: the same draws as fill_candidates_v2. Alias
/// tables above 2,048 bins run four lanes wide; uniform samplers and
/// smaller tables take fill_candidates_v2 itself.
void fill_candidates_avx2(const std::uint64_t* threshold, const std::uint32_t* alias,
                          std::uint64_t n, std::uint32_t* cand, std::size_t count,
                          Xoshiro256StarStar& rng);

/// Vector group-of-four loops for d = 2 and d = 3 (`d` is one of the two):
/// the same bins, totals and draws as the scalar TU's run_v2_d2 / run_v2_d3
/// at the 64-bit width. `cand` holds kStreamBlock * d entries, twice that
/// at d = 2 (the fused loop double-buffers), and `tie` kStreamBlock words;
/// `caps_u32` is true when every capacity fits 32 bits.
template <TieBreak TB, class Sizes>
RunTotals run_v2_avx2(std::uint32_t d, BinSlot* slots, const std::uint64_t* threshold,
                      const std::uint32_t* alias, std::uint64_t n, std::uint64_t count,
                      Sizes sz, std::uint32_t* cand, std::uint64_t* tie, bool caps_u32,
                      bool prefetch, RunTotals t, Xoshiro256StarStar& rng);

}  // namespace nubb::detail
