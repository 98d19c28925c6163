/// \file placement_kernel_avx2.cpp
/// AVX2 bodies of the stream-v2 bulk loops: the vector candidate fill and
/// the d = 2 / d = 3 resolve loops (detail::fill_candidates_avx2 and
/// detail::run_v2_avx2, declared in placement_resolve.hpp). The only TU of
/// the library compiled with -mavx2 (src/CMakeLists.txt); when the
/// toolchain lacks the flag the same TU builds aborting stubs, so the
/// symbols always link and runtime dispatch
/// (PlacementKernel::select_for_tie_break, via util/simd.hpp) is the only
/// gate.
///
/// Bit-identical-to-scalar is the contract, not a goal: these loops consume
/// the exact stream-v2 draw order (docs/stream-v2.md) and reproduce the
/// scalar resolve decisions lane for lane. The vector strategy:
///
///  * Candidate phase — the serial xoshiro recurrence generates the block's
///    raw words scalar; the Lemire product, threshold gather, acceptance
///    compare and alias blend run four lanes wide. A chunk containing a
///    rejected low half (probability < n / 2^64 per draw) is replayed
///    through the exact scalar redraw loop from a saved state, so the
///    number of next() steps matches draw for draw.
///  * Resolve phase (d = 2, 3) — balls are decided in groups of four from
///    slot values loaded before the group. A group is clean when no
///    candidate duplicates and no ball's destination appears among another
///    ball's candidates — distinctness alone: the placement decisions never
///    read the running maximum, so a clean group's vector decisions equal
///    the serial ones even when a ball raises the record. A raise inside a
///    clean group only routes the max-load bookkeeping through an outlined
///    scalar loop (raise_max4, the strict commit_known compare in ball
///    order); the placements stand. A dirty group (a few percent at the
///    paper's operating points) is replayed whole through the shared scalar
///    body (detail::resolve_ball_d{2,3}_w) in ball order against live
///    slots, so totals and the running maximum update in the scalar
///    sequence.
///  * Fused fill+resolve (d = 2, unit balls, alias sampler, n <= 2048) —
///    resolve consumes no randomness, so while block k's groups are decided
///    (shuffle-port-bound vector code) the loop interleaves eight scalar
///    draws of block k + 1 per group (serial-RNG-latency-bound, complementary
///    ports) into a double buffer. The draws are issued in the exact stream
///    order (candidates, then tie words, block by block), so the RNG word
///    sequence — and therefore every result — is unchanged; only the
///    schedule overlaps. Small tables are where the fill is scalar anyway
///    (the vector fill needs gathers that only pay off on larger n), which
///    is why the gate sits at the scalar-fill regime.
///  * d = 1 and generic d keep the scalar resolve (it is load-bound, not
///    compute-bound): the scalar TU runs their one loop each, with
///    fill_candidates_avx2 as the candidate phase.
///
/// Only the Fast64 comparison width is vectorised (128-bit cross products
/// have no AVX2 form); select_for_tie_break never installs these entry
/// points otherwise.

#include "core/placement_resolve.hpp"

#include "util/assert.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/weighted.hpp"
#include "util/avx2_math.hpp"
#include "util/int128.hpp"
#include "util/memory.hpp"

namespace nubb {

namespace detail {

/// Vector candidate phase: bit-identical to fill_candidates_v2. Alias
/// tables run the fused single-word draw (slot = high product half,
/// mantissa = bits 11..63 of the accepted low half) four lanes at a time
/// with chunk-replay on the rare Lemire rejection.
void fill_candidates_avx2(const std::uint64_t* const threshold,
                          const std::uint32_t* const alias, const std::uint64_t n,
                          std::uint32_t* const cand, const std::size_t count,
                          Xoshiro256StarStar& rng) {
  // Uniform samplers have no table to gather from; the vector Lemire
  // product alone never beat the scalar bulk bounded draw (the serial
  // xoshiro recurrence bounds both). Small alias tables live in L1 (12
  // bytes of table per bin), where the scalar fused draw beats the vector
  // pass: the two table gathers per quad cost more than they hide, while at
  // 100k+ bins they overlap four L2/L3 loads and win. The draws are
  // identical either way — these are pure speed crossovers.
  if (threshold == nullptr || n <= 2048) {
    fill_candidates_v2(threshold, alias, n, cand, count, rng);
    return;
  }
  const std::uint64_t reject = (0 - n) % n;
  constexpr std::size_t kChunk = 32;
  std::uint64_t raw[kChunk];
  const __m256i vn = _mm256_set1_epi64x(static_cast<long long>(n));
  const __m256i vreject = _mm256_set1_epi64x(static_cast<long long>(reject));
  std::size_t done = 0;
  while (done < count) {
    const std::size_t c = std::min(kChunk, count - done) & ~std::size_t{3};
    if (c == 0) break;  // fewer than 4 draws left: scalar tail below
    const std::array<std::uint64_t, 4> saved = rng.state();
    {
      Xoshiro256StarStar local = rng;  // keep the state in registers (TBAA)
      for (std::size_t j = 0; j < c; ++j) raw[j] = local.next();
      rng = local;
    }
    __m256i any_reject = _mm256_setzero_si256();
    for (std::size_t j = 0; j < c; j += 4) {
      const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + j));
      __m256i hi;
      __m256i lo;
      avx2::mul64_hilo_b32(x, vn, hi, lo);
      any_reject = _mm256_or_si256(any_reject, avx2::cmplt_u64(lo, vreject));
      // 64-bit lane indices: slots can exceed 2^31, which a 32-bit index
      // gather would sign-extend into garbage.
      const __m256i thr =
          _mm256_i64gather_epi64(reinterpret_cast<const long long*>(threshold), hi, 8);
      const __m256i mant = _mm256_srli_epi64(lo, 11);
      // Both sides are below 2^53, so the signed compare is exact.
      const __m256i accept = _mm256_cmpgt_epi64(thr, mant);
      const __m128i slot32 = avx2::pack_lo32(hi);
      const __m128i al32 =
          _mm256_i64gather_epi32(reinterpret_cast<const int*>(alias), hi, 4);
      const __m128i res = _mm_blendv_epi8(al32, slot32, avx2::pack_lo32(accept));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(cand + done + j), res);
    }
    if (!_mm256_testz_si256(any_reject, any_reject)) [[unlikely]] {
      // A rejected word shifts every later draw by at least one next();
      // replay the chunk through the exact scalar consumption order.
      rng = Xoshiro256StarStar(saved);
      Xoshiro256StarStar local = rng;
      for (std::size_t j = 0; j < c; ++j) {
        cand[done + j] =
            static_cast<std::uint32_t>(draw_candidate_v2(threshold, alias, n, reject, local));
      }
      rng = local;
    }
    done += c;
  }
  if (done < count) {
    Xoshiro256StarStar local = rng;
    for (; done < count; ++done) {
      cand[done] =
          static_cast<std::uint32_t>(draw_candidate_v2(threshold, alias, n, reject, local));
    }
    rng = local;
  }
}

}  // namespace detail

namespace {

using namespace detail::avx2;
using detail::draw_candidate_v2;
using detail::kPrefetchAhead;
using detail::ModelSizes;
using detail::prefetch_end;
using detail::RunTotals;
using detail::UnitSizes;

/// Operand width the resolve cross products were proven to need, picked per
/// run call (see mul_width below). Narrower operands drop whole columns of
/// the 32x32 schoolbook product and, at kVals32, the sign-flips of the
/// unsigned compares.
enum class MulW {
  kFull,    // capacities up to 2^64: full mullo64
  kCaps32,  // every capacity < 2^32: two-column product
  kVals32,  // capacities and every reachable numerator < 2^31: one vpmuludq,
            // products < 2^62, signed compares exact as-is
};

/// Cross-product multiply with a capacity operand. The capacity is always
/// the multiplier in the resolve cross products, so these are the only
/// mullo64 forms the d = 2, 3 loops need.
template <MulW MW>
NUBB_ALWAYS_INLINE inline __m256i mul_cap(const __m256i x, const __m256i cap) {
  if constexpr (MW == MulW::kVals32) {
    return _mm256_mul_epu32(x, cap);
  } else if constexpr (MW == MulW::kCaps32) {
    return mullo64_b32(x, cap);
  } else {
    return mullo64(x, cap);
  }
}

/// Unsigned per-lane a < b for cross products and capacities: under kVals32
/// both sides are below 2^62, so the signed compare is exact without the
/// sign-flip xors.
template <MulW MW>
NUBB_ALWAYS_INLINE inline __m256i prod_lt(const __m256i a, const __m256i b) {
  if constexpr (MW == MulW::kVals32) {
    return _mm256_cmpgt_epi64(b, a);
  } else {
    return cmplt_u64(a, b);
  }
}

template <MulW MW>
NUBB_ALWAYS_INLINE inline __m256i prod_gt(const __m256i a, const __m256i b) {
  return prod_lt<MW>(b, a);
}

/// Per-ball committed amounts for one group of four, as 64-bit lanes.
NUBB_ALWAYS_INLINE inline __m256i load_w(UnitSizes, std::size_t) {
  return _mm256_set1_epi64x(1);
}
NUBB_ALWAYS_INLINE inline __m256i load_w(const ModelSizes& sz, std::size_t b) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sz.buf + b));
}

/// Largest single-ball commit the size policy can produce (0 = unbounded).
NUBB_ALWAYS_INLINE inline std::uint64_t max_ball_size(UnitSizes) { return 1; }
NUBB_ALWAYS_INLINE inline std::uint64_t max_ball_size(const ModelSizes& sz) {
  return sz.model->max_size();
}

/// Operand width for this run call. kVals32 needs a proof that every
/// numerator stays below 2^31 for the whole run: largest initial numerator
/// plus count * (largest ball size), with capacities below 2^31 too. The
/// slot scan is O(n), so it is only attempted when the run is long enough
/// to amortise it; short calls (the serving path places small batches) fall
/// back to kCaps32, which is always safe under caps_u32_.
template <class Sizes>
MulW mul_width(const bool caps_u32, const BinSlot* const slots, const std::uint64_t n,
               const std::uint64_t count, const Sizes& sz) {
  if (!caps_u32) return MulW::kFull;
  const std::uint64_t wmax = max_ball_size(sz);
  if (wmax == 0 || count < n || count > (std::uint64_t{1} << 31) / wmax) {
    return MulW::kCaps32;
  }
  std::uint64_t mx_num = 0;
  std::uint64_t mx_cap = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    mx_num = std::max(mx_num, slots[i].num);
    mx_cap = std::max(mx_cap, slots[i].cap);
  }
  constexpr std::uint64_t kLim = std::uint64_t{1} << 31;
  if (mx_cap >= kLim || mx_num >= kLim - count * wmax) return MulW::kCaps32;
  return MulW::kVals32;
}

/// (num, cap) of four slots as 64-bit lanes, in argument order. BinSlot is a
/// 16-byte (num, cap) pair, so each slot is one 128-bit load — on the L1/L2
/// resident arrays these kernels target, four plain loads beat a pair of
/// vpgatherqq by a wide margin (the gather's index latency serialises).
NUBB_ALWAYS_INLINE inline void load_slots4(const BinSlot* const slots, const std::uint32_t a,
                                           const std::uint32_t b, const std::uint32_t c,
                                           const std::uint32_t d, __m256i& num, __m256i& cap) {
  const __m128i sa = _mm_loadu_si128(reinterpret_cast<const __m128i*>(slots + a));
  const __m128i sb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(slots + b));
  const __m128i sc = _mm_loadu_si128(reinterpret_cast<const __m128i*>(slots + c));
  const __m128i sd = _mm_loadu_si128(reinterpret_cast<const __m128i*>(slots + d));
  // unpack interleaves within 128-bit halves, so pairing (a, c) with (b, d)
  // puts the numerators (and capacities) back in argument order.
  const __m256i p0 = _mm256_set_m128i(sc, sa);
  const __m256i p1 = _mm256_set_m128i(sd, sb);
  num = _mm256_unpacklo_epi64(p0, p1);
  cap = _mm256_unpackhi_epi64(p0, p1);
}

/// All 16 spreads of 4 bits into 64-bit lane masks: kTieLut[m] has lane j set
/// to all-ones iff bit j of m is set. 512 bytes, L1-resident in the group
/// loop — one shift + one load replaces the broadcast/variable-shift chain.
alignas(32) constexpr std::uint64_t kTieLut[16][4] = {
    {0, 0, 0, 0},   {~0ull, 0, 0, 0},         {0, ~0ull, 0, 0},
    {~0ull, ~0ull, 0, 0},                     {0, 0, ~0ull, 0},
    {~0ull, 0, ~0ull, 0},                     {0, ~0ull, ~0ull, 0},
    {~0ull, ~0ull, ~0ull, 0},                 {0, 0, 0, ~0ull},
    {~0ull, 0, 0, ~0ull},                     {0, ~0ull, 0, ~0ull},
    {~0ull, ~0ull, 0, ~0ull},                 {0, 0, ~0ull, ~0ull},
    {~0ull, 0, ~0ull, ~0ull},                 {0, ~0ull, ~0ull, ~0ull},
    {~0ull, ~0ull, ~0ull, ~0ull},
};

/// Tie bits of balls b..b+3 (d = 2 packing) as full-lane masks. The group
/// loop steps b by 4, so the four bits always live in one tie word.
NUBB_ALWAYS_INLINE inline __m256i tie_bits_d2(const std::uint64_t word,
                                              const std::size_t bit0) {
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kTieLut[(word >> bit0) & 15]));
}

/// Running-max update for a committed clean group that raises the record:
/// the vector decisions stand (they never read the max), so only this
/// bookkeeping needs ball order — commit_known's strict compare replayed
/// over the four committed (dest, num, cap) triples against the live
/// record. Outlined for the same reason as the replay functions; without
/// it a fresh run's warm-up (where the record rises every few groups)
/// costs a full scalar replay per record move.
NUBB_NOINLINE void raise_max4(const std::uint64_t* const dA, const std::uint64_t* const ndA,
                              const std::uint64_t* const cdA, RunTotals& t) {
  for (std::size_t j = 0; j < 4; ++j) {
    if (ndA[j] * t.max_cap > t.max_num * cdA[j]) {
      t.max_num = ndA[j];
      t.max_cap = cdA[j];
      t.argmax = dA[j];
    }
  }
}

/// Scalar replay of one dirty group, outlined so the clean path carries no
/// scalar candidate values or slot addresses across the branch — inlining
/// this forced the compiler to precompute (and spill) all of them on every
/// clean iteration, which roughly doubled the hot loop's instruction count.
template <TieBreak TB, class Sizes>
NUBB_NOINLINE void replay_group_d2(BinSlot* const slots, const std::uint32_t* const cand,
                                   const std::uint64_t* const tie, const std::size_t b,
                                   const Sizes sz, RunTotals& t) {
  for (std::size_t j = 0; j < 4; ++j) {
    const std::size_t ball = b + j;
    const bool tie_bit = ((tie[ball >> 6] >> (ball & 63)) & 1) != 0;
    detail::resolve_ball_d2_w<true, TB>(slots, cand[2 * ball], cand[2 * ball + 1],
                                        sz.get(ball), tie_bit, t);
  }
}

/// Vector decisions and hazard masks for one group of four Greedy[2] balls,
/// shared by the straight-line and the fused (fill-interleaved) loops — the
/// commit policy stays at the call sites.
struct GroupD2 {
  __m256i destv;   ///< chosen destination index per lane (as u64 lanes)
  __m256i nd;      ///< winner's post-allocation numerator
  __m256i capd;    ///< winner's capacity
  __m256i bad;     ///< any cross-ball candidate collision (32-bit lane masks)
  __m256i exceed;  ///< any lane beating the group-start running max
};

template <TieBreak TB, MulW MW, class Sizes>
NUBB_ALWAYS_INLINE inline GroupD2 decide_group_d2(BinSlot* const slots,
                                                  const std::uint32_t* const cb,
                                                  const std::uint64_t tie_word,
                                                  const std::size_t bit0, const Sizes sz,
                                                  const std::size_t b, const __m256i vmaxn,
                                                  const __m256i vmaxc) {
  const __m256i lo32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i cv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cb));
  // A group is dirty unless its eight candidates are pairwise distinct — a
  // superset of every hazard (a duplicate pair, or one ball's destination
  // among another's candidates, since each destination IS one of its ball's
  // candidates). Compared against the circular lane rotations by 1..4:
  // distances 1..3 cover 24 of the 28 lane pairs, distance 4 (the half swap
  // itself) the rest. The rotations use only immediate-form shuffles, so
  // the test holds no constant registers. False positives only cost the
  // scalar fallback, never correctness.
  const __m256i swp = _mm256_permute2x128_si256(cv, cv, 0x01);
  __m256i bad = _mm256_cmpeq_epi32(cv, _mm256_alignr_epi8(swp, cv, 4));
  bad = _mm256_or_si256(bad, _mm256_cmpeq_epi32(cv, _mm256_permute4x64_epi64(cv, 0x39)));
  bad = _mm256_or_si256(bad, _mm256_cmpeq_epi32(cv, _mm256_alignr_epi8(swp, cv, 12)));
  bad = _mm256_or_si256(bad, _mm256_cmpeq_epi32(cv, swp));
  // Candidate 0 / candidate 1 of each ball as 64-bit lanes: they are the
  // even / odd u32 lanes of cv, so a mask and a shift beat any shuffle.
  const __m256i i0 = _mm256_and_si256(cv, lo32);
  const __m256i i1 = _mm256_srli_epi64(cv, 32);
  __m256i num0;
  __m256i cap0;
  __m256i num1;
  __m256i cap1;
  load_slots4(slots, cb[0], cb[2], cb[4], cb[6], num0, cap0);
  load_slots4(slots, cb[1], cb[3], cb[5], cb[7], num1, cap1);
  const __m256i w = load_w(sz, b);
  const __m256i n0 = _mm256_add_epi64(num0, w);
  const __m256i n1 = _mm256_add_epi64(num1, w);
  // resolve_ball_d2_w's compare: lhs = n1 * cap0, rhs = n0 * cap1.
  const __m256i lhs = mul_cap<MW>(n1, cap0);
  const __m256i rhs = mul_cap<MW>(n0, cap1);
  const __m256i c1_less = prod_lt<MW>(lhs, rhs);
  __m256i pick1;
  if constexpr (TB == TieBreak::kFirstChoice) {
    pick1 = c1_less;
  } else {
    const __m256i equal = _mm256_cmpeq_epi64(lhs, rhs);
    const __m256i tmask = tie_bits_d2(tie_word, bit0);
    if constexpr (TB == TieBreak::kUniform) {
      pick1 = _mm256_or_si256(c1_less, _mm256_and_si256(equal, tmask));
    } else {
      const __m256i cap_gt = prod_gt<MW>(cap1, cap0);
      const __m256i cap_eq = _mm256_cmpeq_epi64(cap1, cap0);
      pick1 = _mm256_or_si256(
          c1_less,
          _mm256_and_si256(equal, _mm256_or_si256(cap_gt, _mm256_and_si256(cap_eq, tmask))));
    }
  }
  const __m256i destv = csel64(pick1, i1, i0);
  const __m256i nd = csel64(pick1, n1, n0);
  const __m256i capd = csel64(pick1, cap1, cap0);
  // Would any ball raise the running maximum? Tested against the
  // group-start max, which is exact: the max only moves when a commit
  // exceeds it, so if no lane exceeds the start value it never moves during
  // the group. Same Fast64 cross products as commit_known. A raise does NOT
  // dirty the group — decisions never read the max — it only routes the
  // commit through the scalar bookkeeping at the call site.
  const __m256i exceed = prod_gt<MW>(mul_cap<MW>(nd, vmaxc), mul_cap<MW>(vmaxn, capd));
  return {destv, nd, capd, bad, exceed};
}

/// Greedy[2] bulk loop, groups of four balls. Fast64 only.
template <TieBreak TB, MulW MW, class Sizes>
NUBB_NOINLINE RunTotals run_v2_d2_avx2(BinSlot* const slots,
                                       const std::uint64_t* const threshold,
                                       const std::uint32_t* const alias, const std::uint64_t n,
                                       const std::uint64_t count, const Sizes sz,
                                       std::uint32_t* const cand, std::uint64_t* const tie,
                                       const bool prefetch, RunTotals t,
                                       Xoshiro256StarStar& rng) {
  // Prefetching an L1-resident slot array only burns front-end slots; the
  // group loop is issue-bound, so gate it on the array actually spilling L1.
  const bool want_pf = prefetch && n * sizeof(BinSlot) > (std::size_t{1} << 15);
  for (std::uint64_t done = 0; done < count;) {
    const auto nb = static_cast<std::size_t>(
        std::min<std::uint64_t>(PlacementKernel::kStreamBlock, count - done));
    sz.fill(rng, nb);
    detail::fill_candidates_avx2(threshold, alias, n, cand, 2 * nb, rng);
    detail::fill_ties_v2(tie, (nb + 63) / 64, rng);
    const std::size_t pf_end = prefetch_end(want_pf, nb);
    const std::size_t nb4 = nb & ~std::size_t{3};
    // Running max as broadcast lanes, refreshed only on the paths that can
    // move it: a dirty replay, a clean group whose exceed mask fired, or the
    // previous block's tail.
    __m256i vmaxn = _mm256_set1_epi64x(static_cast<long long>(t.max_num));
    __m256i vmaxc = _mm256_set1_epi64x(static_cast<long long>(t.max_cap));
    std::size_t b = 0;
    // Clean commits accumulate the total in a register; t.total is only
    // touched on the cold paths (keeping t addressable for the replay call
    // otherwise forces a memory read-modify-write every clean group).
    std::uint64_t total_acc = 0;
    for (; b < nb4; b += 4) {
      if (b < pf_end) {
        for (std::size_t i = 0; i < 4; ++i) {
          const std::size_t bb = b + kPrefetchAhead + i;
          if (bb < nb) {
            prefetch_read(&slots[cand[2 * bb]]);
            prefetch_read(&slots[cand[2 * bb + 1]]);
          }
        }
      }
      const std::uint32_t* const cb = cand + 2 * b;
      const GroupD2 gr =
          decide_group_d2<TB, MW>(slots, cb, tie[b >> 6], b & 63, sz, b, vmaxn, vmaxc);
      if (_mm256_testz_si256(gr.bad, gr.bad)) [[likely]] {
        // Clean group: the vector decisions are the serial decisions and no
        // destination collides with another ball's candidates (so the four
        // stores are to distinct bins) — commit is four numerator stores
        // plus the total, with the rare record move replayed in ball order.
        alignas(32) std::uint64_t dA[4];
        alignas(32) std::uint64_t ndA[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(dA), gr.destv);
        _mm256_store_si256(reinterpret_cast<__m256i*>(ndA), gr.nd);
        slots[dA[0]].num = ndA[0];
        slots[dA[1]].num = ndA[1];
        slots[dA[2]].num = ndA[2];
        slots[dA[3]].num = ndA[3];
        total_acc += sz.get(b) + sz.get(b + 1) + sz.get(b + 2) + sz.get(b + 3);
        if (!_mm256_testz_si256(gr.exceed, gr.exceed)) [[unlikely]] {
          alignas(32) std::uint64_t cdA[4];
          _mm256_store_si256(reinterpret_cast<__m256i*>(cdA), gr.capd);
          raise_max4(dA, ndA, cdA, t);
          vmaxn = _mm256_set1_epi64x(static_cast<long long>(t.max_num));
          vmaxc = _mm256_set1_epi64x(static_cast<long long>(t.max_cap));
        }
      } else {
        // Dirty group: replay all four balls through the exact scalar body
        // in serial order against live slots.
        t.total += total_acc;
        total_acc = 0;
        replay_group_d2<TB>(slots, cand, tie, b, sz, t);
        vmaxn = _mm256_set1_epi64x(static_cast<long long>(t.max_num));
        vmaxc = _mm256_set1_epi64x(static_cast<long long>(t.max_cap));
      }
    }
    t.total += total_acc;
    for (; b < nb; ++b) {
      const bool tie_bit = ((tie[b >> 6] >> (b & 63)) & 1) != 0;
      detail::resolve_ball_d2_w<true, TB>(slots, cand[2 * b], cand[2 * b + 1], sz.get(b),
                                          tie_bit, t);
    }
    done += nb;
  }
  return t;
}

/// Greedy[2] bulk loop with the candidate phase of block k+1 interleaved
/// into the resolve groups of block k. Unit balls, alias sampler, small-n
/// (scalar fused fill) regime only.
///
/// The two phases are independent instruction streams: resolve consumes no
/// RNG, and the next block's draws touch only the generator, the alias
/// table and the back candidate buffer. Issuing eight fused draws inside
/// each group iteration therefore changes nothing about the draw sequence —
/// the words leave the generator in exactly the serial order — but lets the
/// out-of-order core hide the generator's serial recurrence (latency-bound,
/// scalar ports) under the shuffle-heavy vector resolve, instead of paying
/// the two phases back to back. Ties for block k+1 are drawn after its last
/// candidate, between the resolve loops, exactly where the serial stream
/// draws them. The caller provides candidate and tie buffers with room for
/// two blocks (front and back halves are swapped each block).
template <TieBreak TB, MulW MW>
NUBB_NOINLINE RunTotals run_v2_d2_avx2_fused(BinSlot* const slots,
                                             const std::uint64_t* const threshold,
                                             const std::uint32_t* const alias,
                                             const std::uint64_t n, const std::uint64_t count,
                                             std::uint32_t* const cand,
                                             std::uint64_t* const tie, RunTotals t,
                                             Xoshiro256StarStar& rng) {
  constexpr std::size_t kBlock = PlacementKernel::kStreamBlock;
  constexpr UnitSizes sz{};
  const std::uint64_t reject = (0 - n) % n;
  // One local generator for the whole run: its address never escapes (the
  // replay and tail paths consume no RNG), so the four state words stay in
  // registers across fill slices, exactly as in fill_candidates_v2.
  Xoshiro256StarStar local = rng;
  std::uint32_t* curc = cand;
  std::uint32_t* nxtc = cand + 2 * kBlock;
  std::uint64_t* curt = tie;
  std::uint64_t* nxtt = tie + kBlock / 64;
  auto nb = static_cast<std::size_t>(std::min<std::uint64_t>(kBlock, count));
  for (std::size_t i = 0; i < 2 * nb; ++i) {
    curc[i] = static_cast<std::uint32_t>(draw_candidate_v2(threshold, alias, n, reject, local));
  }
  for (std::size_t i = 0; i < (nb + 63) / 64; ++i) curt[i] = local.next();
  for (std::uint64_t done = 0;;) {
    const std::uint64_t next_done = done + nb;
    const auto nn = static_cast<std::size_t>(
        next_done < count ? std::min<std::uint64_t>(kBlock, count - next_done) : 0);
    const std::size_t fill_n = 2 * nn;
    std::size_t fill_i = 0;
    const std::size_t nb4 = nb & ~std::size_t{3};
    __m256i vmaxn = _mm256_set1_epi64x(static_cast<long long>(t.max_num));
    __m256i vmaxc = _mm256_set1_epi64x(static_cast<long long>(t.max_cap));
    std::size_t b = 0;
    std::uint64_t total_acc = 0;
    for (; b < nb4; b += 4) {
      // Fill slice: eight draws of block k+1 (64 groups x 8 = 512 = 2 x
      // kBlock covers a full next block exactly).
      const std::size_t f_end = std::min(fill_i + 8, fill_n);
      for (; fill_i < f_end; ++fill_i) {
        nxtc[fill_i] =
            static_cast<std::uint32_t>(draw_candidate_v2(threshold, alias, n, reject, local));
      }
      const GroupD2 gr = decide_group_d2<TB, MW>(slots, curc + 2 * b, curt[b >> 6], b & 63,
                                                 sz, b, vmaxn, vmaxc);
      if (_mm256_testz_si256(gr.bad, gr.bad)) [[likely]] {
        alignas(32) std::uint64_t dA[4];
        alignas(32) std::uint64_t ndA[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(dA), gr.destv);
        _mm256_store_si256(reinterpret_cast<__m256i*>(ndA), gr.nd);
        slots[dA[0]].num = ndA[0];
        slots[dA[1]].num = ndA[1];
        slots[dA[2]].num = ndA[2];
        slots[dA[3]].num = ndA[3];
        total_acc += 4;
        if (!_mm256_testz_si256(gr.exceed, gr.exceed)) [[unlikely]] {
          alignas(32) std::uint64_t cdA[4];
          _mm256_store_si256(reinterpret_cast<__m256i*>(cdA), gr.capd);
          raise_max4(dA, ndA, cdA, t);
          vmaxn = _mm256_set1_epi64x(static_cast<long long>(t.max_num));
          vmaxc = _mm256_set1_epi64x(static_cast<long long>(t.max_cap));
        }
      } else {
        t.total += total_acc;
        total_acc = 0;
        replay_group_d2<TB>(slots, curc, curt, b, sz, t);
        vmaxn = _mm256_set1_epi64x(static_cast<long long>(t.max_num));
        vmaxc = _mm256_set1_epi64x(static_cast<long long>(t.max_cap));
      }
    }
    t.total += total_acc;
    for (; b < nb; ++b) {
      const bool tie_bit = ((curt[b >> 6] >> (b & 63)) & 1) != 0;
      detail::resolve_ball_d2_w<true, TB>(slots, curc[2 * b], curc[2 * b + 1], 1, tie_bit,
                                          t);
    }
    // A short current block has fewer group iterations than fill slices —
    // finish any candidate draws the loop did not reach.
    for (; fill_i < fill_n; ++fill_i) {
      nxtc[fill_i] =
          static_cast<std::uint32_t>(draw_candidate_v2(threshold, alias, n, reject, local));
    }
    done = next_done;
    if (nn == 0) break;
    for (std::size_t i = 0; i < (nn + 63) / 64; ++i) nxtt[i] = local.next();
    std::swap(curc, nxtc);
    std::swap(curt, nxtt);
    nb = nn;
  }
  rng = local;
  return t;
}

/// Scalar replay of one dirty group (see replay_group_d2 for why this is
/// outlined).
template <TieBreak TB, class Sizes>
NUBB_NOINLINE void replay_group_d3(BinSlot* const slots, const std::uint32_t* const cand,
                                   const std::uint64_t* const tie, const std::size_t b,
                                   const Sizes sz, RunTotals& t) {
  for (std::size_t j = 0; j < 4; ++j) {
    const std::size_t ball = b + j;
    const auto tie_field =
        static_cast<std::uint32_t>(tie[ball >> 1] >> ((ball & 1) * 32));
    detail::resolve_ball_d3_w<true, TB>(slots, cand[3 * ball], cand[3 * ball + 1],
                                        cand[3 * ball + 2], sz.get(ball), tie_field, t);
  }
}

/// Greedy[3] bulk loop, groups of four balls. Fast64 only.
template <TieBreak TB, MulW MW, class Sizes>
NUBB_NOINLINE RunTotals run_v2_d3_avx2(BinSlot* const slots,
                                       const std::uint64_t* const threshold,
                                       const std::uint32_t* const alias, const std::uint64_t n,
                                       const std::uint64_t count, const Sizes sz,
                                       std::uint32_t* const cand, std::uint64_t* const tie,
                                       const bool prefetch, RunTotals t,
                                       Xoshiro256StarStar& rng) {
  // See the d = 2 loop: prefetching an L1-resident slot array only costs
  // front-end slots in an issue-bound loop.
  const bool want_pf = prefetch && n * sizeof(BinSlot) > (std::size_t{1} << 15);
  for (std::uint64_t done = 0; done < count;) {
    const auto nb = static_cast<std::size_t>(
        std::min<std::uint64_t>(PlacementKernel::kStreamBlock, count - done));
    sz.fill(rng, nb);
    detail::fill_candidates_avx2(threshold, alias, n, cand, 3 * nb, rng);
    detail::fill_ties_v2(tie, (nb + 1) / 2, rng);
    const std::size_t pf_end = prefetch_end(want_pf, nb);
    const std::size_t nb4 = nb & ~std::size_t{3};
    // Running max as broadcast lanes (see the d = 2 loop).
    __m256i vmaxn = _mm256_set1_epi64x(static_cast<long long>(t.max_num));
    __m256i vmaxc = _mm256_set1_epi64x(static_cast<long long>(t.max_cap));
    std::size_t b = 0;
    // Clean commits accumulate the total in a register; t.total is only
    // touched on the cold paths (keeping t addressable for the replay call
    // otherwise forces a memory read-modify-write every clean group).
    std::uint64_t total_acc = 0;
    for (; b < nb4; b += 4) {
      if (b < pf_end) {
        for (std::size_t i = 0; i < 4; ++i) {
          const std::size_t bb = b + kPrefetchAhead + i;
          if (bb < nb) {
            prefetch_read(&slots[cand[3 * bb]]);
            prefetch_read(&slots[cand[3 * bb + 1]]);
            prefetch_read(&slots[cand[3 * bb + 2]]);
          }
        }
      }
      // Candidate k of balls b..b+3, de-strided with scalar inserts (the
      // values are hot in L1 from the fill; a strided gather would cost its
      // full latency for nothing).
      const std::uint32_t* const cb = cand + 3 * b;
      const __m256i i0 = _mm256_set_epi64x(cb[9], cb[6], cb[3], cb[0]);
      const __m256i i1 = _mm256_set_epi64x(cb[10], cb[7], cb[4], cb[1]);
      const __m256i i2 = _mm256_set_epi64x(cb[11], cb[8], cb[5], cb[2]);
      __m256i num0;
      __m256i cap0;
      __m256i num1;
      __m256i cap1;
      __m256i num2;
      __m256i cap2;
      load_slots4(slots, cb[0], cb[3], cb[6], cb[9], num0, cap0);
      load_slots4(slots, cb[1], cb[4], cb[7], cb[10], num1, cap1);
      load_slots4(slots, cb[2], cb[5], cb[8], cb[11], num2, cap2);
      const __m256i w = load_w(sz, b);
      const __m256i n0 = _mm256_add_epi64(num0, w);
      const __m256i n1 = _mm256_add_epi64(num1, w);
      const __m256i n2 = _mm256_add_epi64(num2, w);
      __m256i destv;
      __m256i nd;    // winner's post-allocation numerator
      __m256i capd;  // winner's capacity
      if constexpr (TB == TieBreak::kFirstChoice) {
        // Strict-less fold, as in the scalar body: lhs = n_k * mp,
        // rhs = mn * cap_k.
        __m256i m = i0;
        __m256i mn = n0;
        __m256i mp = cap0;
        __m256i less = prod_lt<MW>(mul_cap<MW>(n1, mp), mul_cap<MW>(mn, cap1));
        m = csel64(less, i1, m);
        mn = csel64(less, n1, mn);
        mp = csel64(less, cap1, mp);
        less = prod_lt<MW>(mul_cap<MW>(n2, mp), mul_cap<MW>(mn, cap2));
        destv = csel64(less, i2, m);
        nd = csel64(less, n2, mn);
        capd = csel64(less, cap2, mp);
      } else {
        const __m256i one64 = _mm256_set1_epi64x(1);
        const __m256i three64 = _mm256_set1_epi64x(3);
        const __m256i zero = _mm256_setzero_si256();
        const __m256i ones = _mm256_cmpeq_epi64(zero, zero);
        const __m256i magic3 = _mm256_set1_epi64x(0xAAAAAAABll);  // u32 divide-by-3
        // The six relation bits of resolve_ball_d3_w, four balls at a time.
        __m256i a;  // K1 < K0
        __m256i bm;  // K2 < K0
        __m256i c;  // K2 < K1
        __m256i e;  // K1 == K0
        __m256i f;  // K2 == K0
        __m256i g;  // K2 == K1
        const __m256i l10 = mul_cap<MW>(n1, cap0);
        const __m256i r10 = mul_cap<MW>(n0, cap1);
        const __m256i l20 = mul_cap<MW>(n2, cap0);
        const __m256i r20 = mul_cap<MW>(n0, cap2);
        const __m256i l21 = mul_cap<MW>(n2, cap1);
        const __m256i r21 = mul_cap<MW>(n1, cap2);
        if constexpr (TB == TieBreak::kPreferLargerCapacity) {
          // key_beats_tied: beats = lhs < rhs + (cap_a > cap_b). Subtracting
          // the all-ones compare mask adds the 1; the Fast64 gate caps every
          // cross product at 2^64 - 2, so the bump cannot wrap.
          a = prod_lt<MW>(l10, _mm256_sub_epi64(r10, prod_gt<MW>(cap1, cap0)));
          bm = prod_lt<MW>(l20, _mm256_sub_epi64(r20, prod_gt<MW>(cap2, cap0)));
          c = prod_lt<MW>(l21, _mm256_sub_epi64(r21, prod_gt<MW>(cap2, cap1)));
          e = _mm256_and_si256(_mm256_cmpeq_epi64(l10, r10), _mm256_cmpeq_epi64(cap1, cap0));
          f = _mm256_and_si256(_mm256_cmpeq_epi64(l20, r20), _mm256_cmpeq_epi64(cap2, cap0));
          g = _mm256_and_si256(_mm256_cmpeq_epi64(l21, r21), _mm256_cmpeq_epi64(cap2, cap1));
        } else {
          a = prod_lt<MW>(l10, r10);
          bm = prod_lt<MW>(l20, r20);
          c = prod_lt<MW>(l21, r21);
          e = _mm256_cmpeq_epi64(l10, r10);
          f = _mm256_cmpeq_epi64(l20, r20);
          g = _mm256_cmpeq_epi64(l21, r21);
        }
        const __m256i in0 = _mm256_andnot_si256(_mm256_or_si256(a, bm), ones);
        const __m256i in1 =
            _mm256_and_si256(_mm256_or_si256(a, e), _mm256_xor_si256(c, ones));
        const __m256i in2 = _mm256_and_si256(_mm256_or_si256(bm, f), _mm256_or_si256(c, g));
        // Masks are 0 / -1 per lane: negating their sum gives the class
        // size bc in 1..3.
        const __m256i cnt =
            _mm256_sub_epi64(zero, _mm256_add_epi64(_mm256_add_epi64(in0, in1), in2));
        // Tie fields of balls b..b+3: the packed u32 halves form a little-
        // endian u32 array, so one 16-byte load covers the group (b is a
        // multiple of 4, so it never splits a tie word).
        const __m128i tie32 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(reinterpret_cast<const char*>(tie) + 4 * b));
        const __m256i tie64 = _mm256_cvtepu32_epi64(tie32);
        // tie % 3 via the u32 magic multiply (tie < 2^32, so the low-half
        // mul_epu32 product is the full product).
        const __m256i q = _mm256_srli_epi64(_mm256_mul_epu32(tie64, magic3), 33);
        const __m256i r3 =
            _mm256_sub_epi64(tie64, _mm256_add_epi64(q, _mm256_slli_epi64(q, 1)));
        const __m256i j64 = csel64(_mm256_cmpeq_epi64(cnt, three64), r3,
                                   _mm256_and_si256(tie64, _mm256_sub_epi64(cnt, one64)));
        const __m256i in0c = _mm256_and_si256(in0, one64);  // 0 or 1
        const __m256i in1c = _mm256_and_si256(in1, one64);
        const __m256i pick1 = _mm256_and_si256(in1, _mm256_cmpeq_epi64(j64, in0c));
        const __m256i pick2 =
            _mm256_and_si256(in2, _mm256_cmpeq_epi64(j64, _mm256_add_epi64(in0c, in1c)));
        destv = csel64(pick2, i2, csel64(pick1, i1, i0));
        nd = csel64(pick2, n2, csel64(pick1, n1, n0));
        capd = csel64(pick2, cap2, csel64(pick1, cap1, cap0));
      }
      // Group-dirty test, exactly as in the d = 2 loop: duplicates, any
      // destination among another ball's candidates (symmetric rotation
      // superset), or any ball raising the group-start running max.
      __m256i bad = _mm256_or_si256(_mm256_or_si256(_mm256_cmpeq_epi64(i0, i1),
                                                    _mm256_cmpeq_epi64(i0, i2)),
                                    _mm256_cmpeq_epi64(i1, i2));
      const __m256i r1 = _mm256_permute4x64_epi64(destv, _MM_SHUFFLE(0, 3, 2, 1));
      const __m256i r2 = _mm256_permute4x64_epi64(destv, _MM_SHUFFLE(1, 0, 3, 2));
      const __m256i r3 = _mm256_permute4x64_epi64(destv, _MM_SHUFFLE(2, 1, 0, 3));
      bad = _mm256_or_si256(
          bad, _mm256_or_si256(_mm256_or_si256(_mm256_cmpeq_epi64(r1, i0),
                                               _mm256_cmpeq_epi64(r1, i1)),
                               _mm256_cmpeq_epi64(r1, i2)));
      bad = _mm256_or_si256(
          bad, _mm256_or_si256(_mm256_or_si256(_mm256_cmpeq_epi64(r2, i0),
                                               _mm256_cmpeq_epi64(r2, i1)),
                               _mm256_cmpeq_epi64(r2, i2)));
      bad = _mm256_or_si256(
          bad, _mm256_or_si256(_mm256_or_si256(_mm256_cmpeq_epi64(r3, i0),
                                               _mm256_cmpeq_epi64(r3, i1)),
                               _mm256_cmpeq_epi64(r3, i2)));
      // A record raise routes through raise_max4, not the replay — see the
      // d = 2 loop.
      const __m256i exceed =
          prod_gt<MW>(mul_cap<MW>(nd, vmaxc), mul_cap<MW>(vmaxn, capd));
      if (_mm256_testz_si256(bad, bad)) [[likely]] {
        alignas(32) std::uint64_t dA[4];
        alignas(32) std::uint64_t ndA[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(dA), destv);
        _mm256_store_si256(reinterpret_cast<__m256i*>(ndA), nd);
        slots[dA[0]].num = ndA[0];
        slots[dA[1]].num = ndA[1];
        slots[dA[2]].num = ndA[2];
        slots[dA[3]].num = ndA[3];
        total_acc += sz.get(b) + sz.get(b + 1) + sz.get(b + 2) + sz.get(b + 3);
        if (!_mm256_testz_si256(exceed, exceed)) [[unlikely]] {
          alignas(32) std::uint64_t cdA[4];
          _mm256_store_si256(reinterpret_cast<__m256i*>(cdA), capd);
          raise_max4(dA, ndA, cdA, t);
          vmaxn = _mm256_set1_epi64x(static_cast<long long>(t.max_num));
          vmaxc = _mm256_set1_epi64x(static_cast<long long>(t.max_cap));
        }
      } else {
        t.total += total_acc;
        total_acc = 0;
        replay_group_d3<TB>(slots, cand, tie, b, sz, t);
        vmaxn = _mm256_set1_epi64x(static_cast<long long>(t.max_num));
        vmaxc = _mm256_set1_epi64x(static_cast<long long>(t.max_cap));
      }
    }
    t.total += total_acc;
    for (; b < nb; ++b) {
      const auto tie_field = static_cast<std::uint32_t>(tie[b >> 1] >> ((b & 1) * 32));
      detail::resolve_ball_d3_w<true, TB>(slots, cand[3 * b], cand[3 * b + 1],
                                          cand[3 * b + 2], sz.get(b), tie_field, t);
    }
    done += nb;
  }
  return t;
}

}  // namespace

template <TieBreak TB, class Sizes>
RunTotals detail::run_v2_avx2(const std::uint32_t d, BinSlot* const slots,
                              const std::uint64_t* const threshold,
                              const std::uint32_t* const alias, const std::uint64_t n,
                              const std::uint64_t count, const Sizes sz,
                              std::uint32_t* const cand, std::uint64_t* const tie,
                              const bool caps_u32, const bool prefetch, RunTotals t,
                              Xoshiro256StarStar& rng) {
  if (d == 2) {
    // Unit balls under a small alias table take the fused loop: the fill is
    // in its scalar regime there (see fill_candidates_avx2), which is what
    // the interleave hides. Weighted runs would need a second size buffer
    // for no measured gain; large tables fill through the vector gather
    // path, which must stay a block-bulk pass.
    const bool fuse = std::is_same_v<Sizes, UnitSizes> && threshold != nullptr && n <= 2048;
    switch (mul_width(caps_u32, slots, n, count, sz)) {
      case MulW::kVals32:
        t = fuse ? run_v2_d2_avx2_fused<TB, MulW::kVals32>(slots, threshold, alias, n, count,
                                                           cand, tie, t, rng)
                 : run_v2_d2_avx2<TB, MulW::kVals32>(slots, threshold, alias, n, count, sz,
                                                     cand, tie, prefetch, t, rng);
        break;
      case MulW::kCaps32:
        t = fuse ? run_v2_d2_avx2_fused<TB, MulW::kCaps32>(slots, threshold, alias, n, count,
                                                           cand, tie, t, rng)
                 : run_v2_d2_avx2<TB, MulW::kCaps32>(slots, threshold, alias, n, count, sz,
                                                     cand, tie, prefetch, t, rng);
        break;
      case MulW::kFull:
        t = fuse ? run_v2_d2_avx2_fused<TB, MulW::kFull>(slots, threshold, alias, n, count,
                                                         cand, tie, t, rng)
                 : run_v2_d2_avx2<TB, MulW::kFull>(slots, threshold, alias, n, count, sz,
                                                   cand, tie, prefetch, t, rng);
        break;
    }
    return t;
  }
  switch (mul_width(caps_u32, slots, n, count, sz)) {
    case MulW::kVals32:
      t = run_v2_d3_avx2<TB, MulW::kVals32>(slots, threshold, alias, n, count, sz, cand, tie,
                                            prefetch, t, rng);
      break;
    case MulW::kCaps32:
      t = run_v2_d3_avx2<TB, MulW::kCaps32>(slots, threshold, alias, n, count, sz, cand, tie,
                                            prefetch, t, rng);
      break;
    case MulW::kFull:
      t = run_v2_d3_avx2<TB, MulW::kFull>(slots, threshold, alias, n, count, sz, cand, tie,
                                          prefetch, t, rng);
      break;
  }
  return t;
}

}  // namespace nubb

#else  // !__AVX2__

namespace nubb {

// select_for_tie_break never installs the AVX2 loops when
// simd_kernels_compiled() is false, so reaching a stub is a dispatch bug,
// not a user error.
void detail::fill_candidates_avx2(const std::uint64_t*, const std::uint32_t*, std::uint64_t,
                                  std::uint32_t*, std::size_t, Xoshiro256StarStar&) {
  NUBB_REQUIRE_MSG(false, "AVX2 placement kernels were not compiled");
}

template <TieBreak TB, class Sizes>
detail::RunTotals detail::run_v2_avx2(std::uint32_t, BinSlot*, const std::uint64_t*,
                                      const std::uint32_t*, std::uint64_t, std::uint64_t,
                                      Sizes, std::uint32_t*, std::uint64_t*, bool, bool,
                                      RunTotals t, Xoshiro256StarStar&) {
  NUBB_REQUIRE_MSG(false, "AVX2 placement kernels were not compiled");
  return t;
}

}  // namespace nubb

#endif  // __AVX2__

namespace nubb::detail {

// The six loop entry points the stream-v2 dispatch calls, from whichever
// definition the branch above compiled.
template RunTotals run_v2_avx2<TieBreak::kPreferLargerCapacity, UnitSizes>(
    std::uint32_t, BinSlot*, const std::uint64_t*, const std::uint32_t*, std::uint64_t,
    std::uint64_t, UnitSizes, std::uint32_t*, std::uint64_t*, bool, bool, RunTotals,
    Xoshiro256StarStar&);
template RunTotals run_v2_avx2<TieBreak::kUniform, UnitSizes>(
    std::uint32_t, BinSlot*, const std::uint64_t*, const std::uint32_t*, std::uint64_t,
    std::uint64_t, UnitSizes, std::uint32_t*, std::uint64_t*, bool, bool, RunTotals,
    Xoshiro256StarStar&);
template RunTotals run_v2_avx2<TieBreak::kFirstChoice, UnitSizes>(
    std::uint32_t, BinSlot*, const std::uint64_t*, const std::uint32_t*, std::uint64_t,
    std::uint64_t, UnitSizes, std::uint32_t*, std::uint64_t*, bool, bool, RunTotals,
    Xoshiro256StarStar&);
template RunTotals run_v2_avx2<TieBreak::kPreferLargerCapacity, ModelSizes>(
    std::uint32_t, BinSlot*, const std::uint64_t*, const std::uint32_t*, std::uint64_t,
    std::uint64_t, ModelSizes, std::uint32_t*, std::uint64_t*, bool, bool, RunTotals,
    Xoshiro256StarStar&);
template RunTotals run_v2_avx2<TieBreak::kUniform, ModelSizes>(
    std::uint32_t, BinSlot*, const std::uint64_t*, const std::uint32_t*, std::uint64_t,
    std::uint64_t, ModelSizes, std::uint32_t*, std::uint64_t*, bool, bool, RunTotals,
    Xoshiro256StarStar&);
template RunTotals run_v2_avx2<TieBreak::kFirstChoice, ModelSizes>(
    std::uint32_t, BinSlot*, const std::uint64_t*, const std::uint32_t*, std::uint64_t,
    std::uint64_t, ModelSizes, std::uint32_t*, std::uint64_t*, bool, bool, RunTotals,
    Xoshiro256StarStar&);

}  // namespace nubb::detail
