#include "core/placement_kernel.hpp"

#include <algorithm>
#include <limits>

#include "core/placement_resolve.hpp"
#include "core/weighted.hpp"
#include "util/inline.hpp"
#include "util/simd.hpp"

namespace nubb {

void PlacementKernel::validate(const BinSampler& sampler, std::size_t bins,
                               const GameConfig& cfg) const {
  NUBB_REQUIRE_MSG(cfg.choices >= 1, "need at least one choice per ball");
  NUBB_REQUIRE_MSG(cfg.choices <= kMaxChoices, "more than 64 choices per ball");
  NUBB_REQUIRE_MSG(sampler.size() == bins, "sampler and bin array size mismatch");
  NUBB_REQUIRE_MSG(!cfg.distinct_choices || cfg.choices <= bins,
                   "cannot draw more distinct bins than exist");
  // Zero-weight bins satisfy the size precondition but are unreachable, so
  // rejection sampling would spin forever; require enough *reachable* bins.
  NUBB_REQUIRE_MSG(!cfg.distinct_choices || cfg.choices <= sampler.support_size(),
                   "distinct choices exceed the sampler support "
                   "(bins with positive probability)");
  // Stream v2 stages resolved candidates as 32-bit indices (half the buffer
  // traffic of size_t; the alias table is 32-bit already).
  NUBB_REQUIRE_MSG(cfg.stream == RngStream::kV1 || bins <= 0xFFFFFFFFull,
                   "stream v2 supports at most 2^32 bins");
}

PlacementKernel::PlacementKernel(BinArray& bins, const BinSampler& sampler,
                                 const GameConfig& cfg, std::uint64_t planned_balls) {
  validate(sampler, bins.size(), cfg);

  slots_ = bins.slots_.data();
  total_ = &bins.total_balls_;
  max_load_ = &bins.max_load_;
  argmax_ = &bins.argmax_;
  table_ = sampler.alias_table();
  n_ = bins.size();
  d_ = cfg.choices;
  distinct_ = cfg.distinct_choices;
  stream_ = cfg.stream;
  prefetch_ = cfg.memory.prefetch;
  planned_ = planned_balls != 0
                 ? planned_balls
                 : (cfg.balls != 0 ? cfg.balls : bins.total_capacity());

  // 64-bit cross multiplication is exact iff the largest numerator that can
  // appear — every ball in one bin, plus the speculative +1 of the decide
  // stage — times the largest denominator cannot wrap.
  const std::uint64_t cmax = bins.max_capacity();
  caps_u32_ = cmax <= 0xFFFFFFFFull;
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  if (planned_ <= kU64Max - 1 && bins.total_balls() <= kU64Max - 1 - planned_) {
    const std::uint64_t horizon = bins.total_balls() + planned_ + 1;
    fast64_ = horizon <= kU64Max / cmax;
  }

  simd_ = resolve_simd(cfg.simd);
  select_impl(cfg.tie_break);
}

PlacementKernel::PlacementKernel(WeightedBinArray& bins, const BinSampler& sampler,
                                 const GameConfig& cfg, std::uint64_t planned_balls,
                                 std::uint64_t max_ball_weight) {
  validate(sampler, bins.size(), cfg);
  NUBB_REQUIRE_MSG(planned_balls >= 1, "weighted kernel needs an explicit ball horizon");
  NUBB_REQUIRE_MSG(max_ball_weight >= 1, "ball weights must be positive");

  slots_ = bins.slots_.data();
  total_ = &bins.total_weight_;
  max_load_ = &bins.max_load_;
  argmax_ = &bins.argmax_;
  table_ = sampler.alias_table();
  n_ = bins.size();
  d_ = cfg.choices;
  distinct_ = cfg.distinct_choices;
  stream_ = cfg.stream;
  prefetch_ = cfg.memory.prefetch;
  planned_ = planned_balls;

  // 64-bit comparisons are exact iff the largest numerator that can appear
  // (all planned weight in one bin plus the speculative +w of the decide
  // stage) times the largest capacity cannot wrap; every step of the horizon
  // computation is itself overflow-checked.
  const std::uint64_t cmax = bins.max_capacity();
  caps_u32_ = cmax <= 0xFFFFFFFFull;
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  if (planned_ <= (kU64Max - max_ball_weight) / max_ball_weight &&
      bins.total_weight() <= kU64Max - planned_ * max_ball_weight - max_ball_weight) {
    const std::uint64_t horizon =
        bins.total_weight() + planned_ * max_ball_weight + max_ball_weight;
    // <= (kU64Max - 1) / cmax, not kU64Max / cmax: the fused composite-key
    // compare in the stream-v2 resolve adds 1 to a cross product, so every
    // product must stay at most 2^64 - 2. (Both arithmetic paths are exact,
    // so shifting the cutover by one is unobservable in results.)
    fast64_ = horizon <= (kU64Max - 1) / cmax;
  }

  simd_ = resolve_simd(cfg.simd);
  select_impl(cfg.tie_break);
}

namespace {

// The resolve-stage building blocks (draw_candidate_v2, RunTotals, the
// commit helpers, the branchless per-ball resolvers, the fill phases and the
// prefetch policy) live in core/placement_resolve.hpp so the AVX2 TU shares
// the exact scalar bodies; pull them in unqualified so the loop shapes below
// read as before.
using detail::commit_amount;
using detail::draw_candidate_v2;
using detail::fill_candidates_v2;
using detail::fill_ties_v2;
using detail::kPrefetchAhead;
using detail::ModelSizes;
using detail::prefetch_end;
using detail::resolve_ball_d2_w;
using detail::resolve_ball_d3_w;
using detail::RunTotals;
using detail::UnitSizes;

}  // namespace

template <bool Fast64, TieBreak TB, RngStream S>
std::size_t PlacementKernel::place_impl(PlacementKernel& k, const std::uint64_t* stale_counts,
                                        std::uint64_t amount, Xoshiro256StarStar& rng) {
  const std::uint32_t d = k.d_;
  std::size_t* const choices = k.choices_;

  // --- draw ---
  // v1: byte-identical to the historic per-ball path (interleaved per
  // candidate). v2: a one-ball block of the documented batch order — d
  // single-word candidate draws (slot and acceptance mantissa from the same
  // bounded product under an alias table), then one tie word when d >= 2.
  // Distinct mode consumes the v1 rejection order under both streams (the
  // redraw count is data-dependent, so there is nothing to batch).
  std::uint64_t tie_word = 0;
  if (!k.distinct_) {
    if (k.table_ != nullptr) {
      if constexpr (S == RngStream::kV2) {
        const std::uint64_t* const threshold = k.table_->threshold_data();
        const std::uint32_t* const alias = k.table_->alias_data();
        const std::uint64_t n = k.n_;
        const std::uint64_t reject = (0 - n) % n;
        for (std::uint32_t i = 0; i < d; ++i) {
          choices[i] = draw_candidate_v2(threshold, alias, n, reject, rng);
        }
      } else {
        for (std::uint32_t i = 0; i < d; ++i) choices[i] = k.table_->sample(rng);
      }
    } else {
      rng.bounded_fill(k.n_, choices, d);
    }
    if constexpr (S == RngStream::kV2) {
      if (d >= 2) {
        // One-ball block: the ball's tie material is the low bit (d = 2),
        // the low 32-bit field (d = 3), or the whole tie word (d >= 4).
        const std::uint64_t w = rng.next();
        tie_word = d == 3 ? (w & 0xFFFFFFFFull) : w;
      }
    }
  } else {
    // Redraw duplicates; d is at most the sampler support (checked at
    // construction), so the rejection loop terminates with probability 1.
    for (std::uint32_t i = 0; i < d; ++i) {
      for (;;) {
        const std::size_t cand = k.table_ != nullptr
                                     ? k.table_->sample(rng)
                                     : static_cast<std::size_t>(rng.bounded(k.n_));
        bool seen = false;
        for (std::uint32_t j = 0; j < i; ++j) {
          if (choices[j] == cand) {
            seen = true;
            break;
          }
        }
        if (!seen) {
          choices[i] = cand;
          break;
        }
      }
    }
  }

  // --- choose: on the live slots, or on a frozen numerator snapshot ---
  std::size_t dest;
  const bool pretied = S == RngStream::kV2 && !k.distinct_;
  if (stale_counts != nullptr) {
    const detail::StaleLoadView view{stale_counts, k.slots_};
    dest = pretied ? detail::decide_destination_pretied<Fast64, TB>(view, choices, d, amount,
                                                                    tie_word)
                   : detail::decide_destination<Fast64, TB>(view, choices, d, amount, rng);
  } else {
    const detail::SlotLoadView view{k.slots_};
    dest = pretied ? detail::decide_destination_pretied<Fast64, TB>(view, choices, d, amount,
                                                                    tie_word)
                   : detail::decide_destination<Fast64, TB>(view, choices, d, amount, rng);
  }

  // --- commit: add_ball/add_weight semantics through the cached pointers ---
  BinSlot& slot = k.slots_[dest];
  slot.num += amount;
  *k.total_ += amount;
  const std::uint64_t num = slot.num;
  const std::uint64_t cap = slot.cap;
  if constexpr (Fast64) {
    if (num * k.max_load_->capacity > k.max_load_->balls * cap) {
      *k.max_load_ = Load{num, cap};
      *k.argmax_ = dest;
    }
  } else {
    const Load l{num, cap};
    if (*k.max_load_ < l) {
      *k.max_load_ = l;
      *k.argmax_ = dest;
    }
  }
  return dest;
}

namespace {

// ---------------------------------------------------------------------------
// Stream v2: batch-drawn blocks (docs/stream-v2.md). Per block of up to
// kStreamBlock balls: the size phase (weighted games only), then one
// 64-bit candidate draw per candidate in draw order (fused slot +
// acceptance under an alias table, plain bulk bounded draws for uniform
// samplers), then the packed tie-word phase (d >= 2). The resolve pass
// then walks the buffers in ball order consuming no RNG at all, which is
// what buys the >4x Greedy[2] target: every ~50/50 decision (the winner
// pick, the alias accept, the tie) is a conditional move instead of a
// mispredicted branch, the serial RNG chain runs unbroken across a whole
// block, and every ball's destination slots are known a block ahead for
// the cross-ball prefetch. NUBB_NOINLINE keeps each loop shape a separate
// compiled function: inlining them all into one dispatch body blows GCC's
// inlining and register budgets and costs double-digit percentages per ball.
// ---------------------------------------------------------------------------

template <bool Fast64, TieBreak TB, class Sizes>
NUBB_NOINLINE RunTotals run_v2_d2(BinSlot* const slots, const std::uint64_t* const threshold,
                                  const std::uint32_t* const alias, const std::uint64_t n,
                                  const std::uint64_t count, const Sizes sz,
                                  std::uint32_t* const cand, std::uint64_t* const tie,
                                  const bool prefetch, RunTotals t, Xoshiro256StarStar& rng) {
  for (std::uint64_t done = 0; done < count;) {
    const auto nb = static_cast<std::size_t>(std::min<std::uint64_t>(
        PlacementKernel::kStreamBlock, count - done));
    sz.fill(rng, nb);
    fill_candidates_v2(threshold, alias, n, cand, 2 * nb, rng);
    fill_ties_v2(tie, (nb + 63) / 64, rng);
    const std::size_t pf_end = prefetch_end(prefetch, nb);
    for (std::size_t b = 0; b < nb; ++b) {
      if (b < pf_end) {
        prefetch_read(&slots[cand[2 * (b + kPrefetchAhead)]]);
        prefetch_read(&slots[cand[2 * (b + kPrefetchAhead) + 1]]);
      }
      const bool tie_bit = ((tie[b >> 6] >> (b & 63)) & 1) != 0;
      resolve_ball_d2_w<Fast64, TB>(slots, cand[2 * b], cand[2 * b + 1], sz.get(b), tie_bit,
                                    t);
    }
    done += nb;
  }
  return t;
}

template <bool Fast64, TieBreak TB, class Sizes>
NUBB_NOINLINE RunTotals run_v2_d3(BinSlot* const slots, const std::uint64_t* const threshold,
                                  const std::uint32_t* const alias, const std::uint64_t n,
                                  const std::uint64_t count, const Sizes sz,
                                  std::uint32_t* const cand, std::uint64_t* const tie,
                                  const bool prefetch, RunTotals t, Xoshiro256StarStar& rng) {
  for (std::uint64_t done = 0; done < count;) {
    const auto nb = static_cast<std::size_t>(std::min<std::uint64_t>(
        PlacementKernel::kStreamBlock, count - done));
    sz.fill(rng, nb);
    fill_candidates_v2(threshold, alias, n, cand, 3 * nb, rng);
    fill_ties_v2(tie, (nb + 1) / 2, rng);
    const std::size_t pf_end = prefetch_end(prefetch, nb);
    for (std::size_t b = 0; b < nb; ++b) {
      if (b < pf_end) {
        prefetch_read(&slots[cand[3 * (b + kPrefetchAhead)]]);
        prefetch_read(&slots[cand[3 * (b + kPrefetchAhead) + 1]]);
        prefetch_read(&slots[cand[3 * (b + kPrefetchAhead) + 2]]);
      }
      const auto tie_field =
          static_cast<std::uint32_t>(tie[b >> 1] >> ((b & 1) * 32));
      resolve_ball_d3_w<Fast64, TB>(slots, cand[3 * b], cand[3 * b + 1], cand[3 * b + 2],
                                    sz.get(b), tie_field, t);
    }
    done += nb;
  }
  return t;
}

/// Single choice: the resolve is one commit per ball. `Fill` is the
/// candidate phase — fill_candidates_v2, or fill_candidates_avx2 under the
/// AVX2 dispatch (the same draws) — and the only difference between the
/// two instantiations.
template <bool Fast64, auto Fill, class Sizes>
NUBB_NOINLINE RunTotals run_v2_d1(BinSlot* const slots, const std::uint64_t* const threshold,
                                  const std::uint32_t* const alias, const std::uint64_t n,
                                  const std::uint64_t count, const Sizes sz,
                                  std::uint32_t* const cand, const bool prefetch,
                                  RunTotals t, Xoshiro256StarStar& rng) {
  for (std::uint64_t done = 0; done < count;) {
    const auto nb = static_cast<std::size_t>(std::min<std::uint64_t>(
        PlacementKernel::kStreamBlock, count - done));
    sz.fill(rng, nb);
    Fill(threshold, alias, n, cand, nb, rng);
    const std::size_t pf_end = prefetch_end(prefetch, nb);
    for (std::size_t b = 0; b < nb; ++b) {
      if (b < pf_end) prefetch_read(&slots[cand[b + kPrefetchAhead]]);
      commit_amount<Fast64>(slots, cand[b], sz.get(b), t);
    }
    done += nb;
  }
  return t;
}

/// General d (independent choices): block-drawn candidates and one tie word
/// per ball, per-ball decide through the generic pretied fold (not worth
/// vectorising at the paper's operating points, so the AVX2 dispatch runs
/// this loop too, with its vector `Fill` as for d = 1). Distinct mode
/// never reaches here — it keeps the v1 per-ball rejection order (see
/// run_v2_impl). Honors the cross-ball candidate prefetch like the d <= 3
/// shapes: at d >= 4 each ball probes d random slots, so the lines of ball
/// b + kPrefetchAhead are exactly the ones still missing when the d = 2/3
/// heuristics were tuned — same gate, bit-identical on-vs-off.
template <bool Fast64, TieBreak TB, auto Fill, class Sizes>
NUBB_NOINLINE RunTotals run_v2_generic(BinSlot* const slots,
                                       const std::uint64_t* const threshold,
                                       const std::uint32_t* const alias,
                                       const std::uint64_t n, std::size_t* const choices,
                                       const std::uint32_t d, const std::uint64_t count,
                                       const Sizes sz, std::uint32_t* const cand,
                                       std::uint64_t* const tie, const bool prefetch,
                                       RunTotals t, Xoshiro256StarStar& rng) {
  for (std::uint64_t done = 0; done < count;) {
    const auto nb = static_cast<std::size_t>(std::min<std::uint64_t>(
        PlacementKernel::kStreamBlock, count - done));
    sz.fill(rng, nb);
    Fill(threshold, alias, n, cand, d * nb, rng);
    fill_ties_v2(tie, nb, rng);
    const std::size_t pf_end = prefetch_end(prefetch, nb);
    for (std::size_t b = 0; b < nb; ++b) {
      if (b < pf_end) {
        const std::uint32_t* const ahead = cand + d * (b + kPrefetchAhead);
        for (std::uint32_t i = 0; i < d; ++i) prefetch_read(&slots[ahead[i]]);
      }
      const std::uint64_t w = sz.get(b);
      for (std::uint32_t i = 0; i < d; ++i) {
        choices[i] = static_cast<std::size_t>(cand[d * b + i]);
      }
      const std::size_t dest = detail::decide_destination_pretied<Fast64, TB>(
          detail::SlotLoadView{slots}, choices, d, w, tie[b]);
      commit_amount<Fast64>(slots, dest, w, t);
    }
    done += nb;
  }
  return t;
}

}  // namespace

/// Stream v1 in bulk: the per-ball path, ball after ball. v1 is the
/// reference draw order that the goldens, the frozen-reference kernel tests
/// and the exact oracle pin; bulk speed is stream v2's job.
template <bool Fast64, TieBreak TB>
void PlacementKernel::run_impl(PlacementKernel& k, std::uint64_t count,
                               Xoshiro256StarStar& rng) {
  for (std::uint64_t ball = 0; ball < count; ++ball) {
    place_impl<Fast64, TB, RngStream::kV1>(k, nullptr, 1, rng);
  }
}

/// Weighted v1: each ball draws its size first, then its candidates (the
/// historic weighted RNG order).
template <bool Fast64, TieBreak TB>
void PlacementKernel::run_weighted_impl(PlacementKernel& k, std::uint64_t count,
                                        const BallSizeModel& sizes, Xoshiro256StarStar& rng) {
  for (std::uint64_t ball = 0; ball < count; ++ball) {
    const std::uint64_t w = sizes.sample(rng);
    place_impl<Fast64, TB, RngStream::kV1>(k, nullptr, w, rng);
  }
}

/// Stream-v2 bulk dispatch, scalar and AVX2 alike: pick the loop shape once,
/// run it with every hot field — including the running maximum — in locals,
/// and flush to the bin array at the end. The locals matter because the
/// commit stage stores through a slot pointer, which under type-based
/// aliasing forces reloads of any uint64-typed member it might alias on
/// every ball if they live in memory. Block buffers are sized lazily on the
/// first bulk run. Under kAvx2 (installed only at the 64-bit width) d = 2
/// and d = 3 run the vector loops of placement_kernel_avx2.cpp, and every
/// other d its scalar loop with the vector candidate fill.
template <bool Fast64, TieBreak TB, SimdImpl Impl, class Sizes>
void PlacementKernel::run_loop_v2(PlacementKernel& k, std::uint64_t count, Sizes sz,
                                  Xoshiro256StarStar& rng) {
  constexpr bool kAvx2 = Impl == SimdImpl::kAvx2;
  static_assert(Fast64 || !kAvx2, "the AVX2 loops compare at the 64-bit width only");
  constexpr auto fill = kAvx2 ? &detail::fill_candidates_avx2 : &detail::fill_candidates_v2;
  const AliasTable* const table = k.table_;
  const std::uint64_t* const threshold =
      table != nullptr ? table->threshold_data() : nullptr;
  const std::uint32_t* const alias = table != nullptr ? table->alias_data() : nullptr;
  const std::uint64_t n = k.n_;
  BinSlot* const slots = k.slots_;

  // The fused AVX2 d = 2 loop double-buffers the candidate block (the tie
  // buffer's kStreamBlock words hold its two halves already).
  const std::size_t need = kStreamBlock * k.d_ * (kAvx2 && k.d_ == 2 ? 2 : 1);
  if (k.v2_cand_.size() < need) k.v2_cand_.resize(need);
  std::uint32_t* const cand = k.v2_cand_.data();
  if (k.d_ >= 2 && k.v2_tie_.size() < kStreamBlock) k.v2_tie_.resize(kStreamBlock);
  std::uint64_t* const tie = k.v2_tie_.data();

  RunTotals t{*k.total_, k.max_load_->balls, k.max_load_->capacity, *k.argmax_};
  const bool pf = k.prefetch_;
  if (kAvx2 && (k.d_ == 2 || k.d_ == 3)) {
    t = detail::run_v2_avx2<TB>(k.d_, slots, threshold, alias, n, count, sz, cand, tie,
                                k.caps_u32_, pf, t, rng);
  } else if (k.d_ == 2) {
    t = run_v2_d2<Fast64, TB>(slots, threshold, alias, n, count, sz, cand, tie, pf, t, rng);
  } else if (k.d_ == 3) {
    t = run_v2_d3<Fast64, TB>(slots, threshold, alias, n, count, sz, cand, tie, pf, t, rng);
  } else if (k.d_ == 1) {
    t = run_v2_d1<Fast64, fill>(slots, threshold, alias, n, count, sz, cand, pf, t, rng);
  } else {
    t = run_v2_generic<Fast64, TB, fill>(slots, threshold, alias, n, k.choices_, k.d_, count,
                                         sz, cand, tie, pf, t, rng);
  }

  *k.total_ = t.total;
  *k.max_load_ = Load{t.max_num, t.max_cap};
  *k.argmax_ = t.argmax;
}

template <bool Fast64, TieBreak TB, SimdImpl Impl>
void PlacementKernel::run_v2_impl(PlacementKernel& k, std::uint64_t count,
                                  Xoshiro256StarStar& rng) {
  if (k.distinct_) {
    // Distinct-choice rejection redraws a data-dependent number of times per
    // ball; stream v2 defines distinct mode to consume the v1 order.
    run_impl<Fast64, TB>(k, count, rng);
    return;
  }
  run_loop_v2<Fast64, TB, Impl>(k, count, UnitSizes{}, rng);
}

template <bool Fast64, TieBreak TB, SimdImpl Impl>
void PlacementKernel::run_weighted_v2_impl(PlacementKernel& k, std::uint64_t count,
                                           const BallSizeModel& sizes,
                                           Xoshiro256StarStar& rng) {
  if (k.distinct_) {
    run_weighted_impl<Fast64, TB>(k, count, sizes, rng);
    return;
  }
  if (k.v2_sizes_.size() < kStreamBlock) k.v2_sizes_.resize(kStreamBlock);
  run_loop_v2<Fast64, TB, Impl>(k, count, ModelSizes{&sizes, k.v2_sizes_.data()}, rng);
}

template <TieBreak TB>
void PlacementKernel::select_for_tie_break() {
  const bool f = fast64_;
  if (stream_ == RngStream::kV2) {
    place_fn_ = f ? &place_impl<true, TB, RngStream::kV2>
                  : &place_impl<false, TB, RngStream::kV2>;
    // The AVX2 bulk loops cover the Fast64 non-distinct v2 shapes (the 128-bit
    // comparison width has no vector form, and distinct mode runs the v1
    // rejection order). The per-ball place_fn_ stays scalar under SIMD — one
    // ball cannot amortise a vector setup, and the draws are identical either
    // way. simd_ is demoted so simd_impl() reports what bulk runs execute.
    if (simd_ == SimdImpl::kAvx2 && f && !distinct_) {
      run_fn_ = &run_v2_impl<true, TB, SimdImpl::kAvx2>;
      run_weighted_fn_ = &run_weighted_v2_impl<true, TB, SimdImpl::kAvx2>;
      return;
    }
    simd_ = SimdImpl::kScalar;
    run_fn_ = f ? &run_v2_impl<true, TB, SimdImpl::kScalar>
                : &run_v2_impl<false, TB, SimdImpl::kScalar>;
    run_weighted_fn_ = f ? &run_weighted_v2_impl<true, TB, SimdImpl::kScalar>
                         : &run_weighted_v2_impl<false, TB, SimdImpl::kScalar>;
    return;
  }
  simd_ = SimdImpl::kScalar;  // stream v1 has no vector form
  place_fn_ =
      f ? &place_impl<true, TB, RngStream::kV1> : &place_impl<false, TB, RngStream::kV1>;
  run_fn_ = f ? &run_impl<true, TB> : &run_impl<false, TB>;
  run_weighted_fn_ = f ? &run_weighted_impl<true, TB> : &run_weighted_impl<false, TB>;
}

void PlacementKernel::select_impl(TieBreak tie_break) {
  switch (tie_break) {
    case TieBreak::kPreferLargerCapacity:
      select_for_tie_break<TieBreak::kPreferLargerCapacity>();
      return;
    case TieBreak::kUniform:
      select_for_tie_break<TieBreak::kUniform>();
      return;
    case TieBreak::kFirstChoice:
      select_for_tie_break<TieBreak::kFirstChoice>();
      return;
  }
  NUBB_REQUIRE_MSG(false, "unreachable: unknown tie-break policy");
}

void PlacementKernel::run(std::uint64_t count, Xoshiro256StarStar& rng) {
  NUBB_REQUIRE_MSG(placed_ + count <= planned_,
                   "kernel asked to place more balls than it was sized for");
  placed_ += count;
  run_fn_(*this, count, rng);
}

void PlacementKernel::run_weighted(std::uint64_t count, const BallSizeModel& sizes,
                                   Xoshiro256StarStar& rng) {
  NUBB_REQUIRE_MSG(placed_ + count <= planned_,
                   "kernel asked to place more balls than it was sized for");
  placed_ += count;
  run_weighted_fn_(*this, count, sizes, rng);
}

}  // namespace nubb
