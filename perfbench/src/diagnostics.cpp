#include "diagnostics.hpp"

#include <algorithm>
#include <stdexcept>

#include "common.hpp"
#include "core/bin_array.hpp"
#include "core/placement_resolve.hpp"
#include "util/memory.hpp"

namespace perfbench {

namespace {

using nubb::BinSlot;
using nubb::TieBreak;
using nubb::detail::RunTotals;

constexpr std::size_t kBlock = nubb::PlacementKernel::kStreamBlock;

/// The fused alias draw of docs/stream-v2.md phase 2, written out so the
/// acceptance outcome is visible; checked draw for draw against
/// fill_candidates_v2 on the same generator state.
std::uint32_t counting_draw(const std::uint64_t* threshold, const std::uint32_t* alias,
                            std::uint64_t n, std::uint64_t reject,
                            nubb::Xoshiro256StarStar& rng, bool& fallback) {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  for (;;) {
    const nubb::uint128 prod = static_cast<nubb::uint128>(rng.next()) * n;
    lo = static_cast<std::uint64_t>(prod);
    hi = static_cast<std::uint64_t>(prod >> 64);
    if (lo >= reject) break;
  }
  const auto slot = static_cast<std::uint32_t>(hi);
  fallback = (lo >> 11) >= threshold[slot];
  return fallback ? alias[slot] : slot;
}

/// Post-allocation load of candidate `c` compared exactly with `best`:
/// -1 below, 0 equal, +1 above.
int compare_load(const BinSlot* slots, std::size_t a, std::size_t b) {
  const std::uint64_t lhs = (slots[a].num + 1) * slots[b].cap;
  const std::uint64_t rhs = (slots[b].num + 1) * slots[a].cap;
  return lhs < rhs ? -1 : (lhs == rhs ? 0 : 1);
}

}  // namespace

ReplayResult replay_game(const nubb::BinSampler& sampler,
                         const std::vector<std::uint64_t>& capacities,
                         const nubb::GameConfig& game, std::uint64_t m, std::uint64_t seed,
                         bool diagnostics) {
  const nubb::AliasTable* table = sampler.alias_table();
  const std::uint32_t d = game.choices;
  if (table == nullptr || (d != 2 && d != 3) ||
      game.tie_break != TieBreak::kPreferLargerCapacity) {
    throw std::runtime_error("replay_game: needs an alias sampler, d in {2, 3} and the "
                             "Algorithm-1 tie-break");
  }
  const std::uint64_t n = capacities.size();
  const std::uint64_t* threshold = table->threshold_data();
  const std::uint32_t* alias = table->alias_data();
  const std::uint64_t reject = (0 - n) % n;

  nubb::AlignedBuffer<BinSlot> slots_buf(n, game.memory);
  BinSlot* slots = slots_buf.data();
  for (std::size_t i = 0; i < n; ++i) slots[i] = BinSlot{0, capacities[i]};

  std::vector<std::uint32_t> cand(kBlock * d);
  std::vector<std::uint32_t> check(kBlock * d);
  std::vector<std::uint64_t> tie(kBlock);
  std::vector<std::size_t> dest(kBlock);
  RunTotals totals{0, 0, 1, 0};
  nubb::Xoshiro256StarStar rng(seed);
  ReplayResult r;
  r.balls = m;

  for (std::uint64_t done = 0; done < m;) {
    const std::size_t nb = static_cast<std::size_t>(std::min<std::uint64_t>(kBlock, m - done));
    const std::size_t draws = nb * d;
    if (diagnostics) {
      nubb::Xoshiro256StarStar probe = rng;
      for (std::size_t i = 0; i < draws; ++i) {
        bool fallback = false;
        check[i] = counting_draw(threshold, alias, n, reject, probe, fallback);
        r.alias_fallbacks += fallback ? 1 : 0;
      }
      r.draws += draws;
    }
    std::uint64_t t0 = now_ns();
    nubb::detail::fill_candidates_v2(threshold, alias, n, cand.data(), draws, rng);
    std::uint64_t t1 = now_ns();
    r.cand_fill_ns += static_cast<double>(t1 - t0);
    if (diagnostics && !std::equal(cand.begin(), cand.begin() + static_cast<long>(draws),
                                   check.begin())) {
      r.draws_match = false;
    }
    const std::size_t words = d == 2 ? (nb + 63) / 64 : (nb + 1) / 2;
    t0 = now_ns();
    nubb::detail::fill_ties_v2(tie.data(), words, rng);
    t1 = now_ns();
    r.tie_fill_ns += static_cast<double>(t1 - t0);

    // Cross-ball candidate prefetch, as the scalar kernel issues it.
    const std::size_t pf_end = nubb::detail::prefetch_end(game.memory.prefetch, nb);
    t0 = now_ns();
    for (std::size_t b = 0; b < nb; ++b) {
      const std::uint32_t* c = cand.data() + b * d;
      if (b < pf_end) {
        for (std::uint32_t j = 0; j < d; ++j) {
          nubb::prefetch_read(&slots[c[nubb::detail::kPrefetchAhead * d + j]]);
        }
      }
      if (diagnostics) {
        // Distinct candidates sharing the minimum post-allocation load.
        std::size_t best = c[0];
        std::size_t tied = 1;
        bool dup = false;
        for (std::uint32_t i = 1; i < d; ++i) {
          bool seen = false;
          for (std::uint32_t j = 0; j < i; ++j) seen = seen || c[j] == c[i];
          if (seen) {
            dup = true;
            continue;
          }
          const int cmp = compare_load(slots, c[i], best);
          if (cmp < 0) {
            best = c[i];
            tied = 1;
          } else if (cmp == 0) {
            ++tied;
          }
        }
        r.duplicate_balls += dup ? 1 : 0;
        r.load_ties += tied > 1 ? 1 : 0;
      }
      if (d == 2) {
        const bool bit = ((tie[b / 64] >> (b % 64)) & 1) != 0;
        dest[b] = nubb::detail::resolve_ball_d2_w<true, TieBreak::kPreferLargerCapacity>(
            slots, c[0], c[1], 1, bit, totals);
      } else {
        const auto field = static_cast<std::uint32_t>(tie[b / 2] >> (32 * (b % 2)));
        dest[b] = nubb::detail::resolve_ball_d3_w<true, TieBreak::kPreferLargerCapacity>(
            slots, c[0], c[1], c[2], 1, field, totals);
      }
    }
    t1 = now_ns();
    r.resolve_ns += static_cast<double>(t1 - t0);

    if (diagnostics) {
      // Groups of four balls from the block start, as the AVX2 resolve
      // forms them (a short tail stays scalar). Dirty when a candidate
      // repeats within the group, or a destination is among another
      // ball's candidates (implied by repetition for d = 2, whose rule
      // is "all eight candidates pairwise distinct").
      for (std::size_t g = 0; g + 4 <= nb; g += 4) {
        const std::uint32_t* gc = cand.data() + g * d;
        bool dirty = false;
        for (std::size_t i = 0; i < 4 * d && !dirty; ++i) {
          for (std::size_t j = i + 1; j < 4 * d; ++j) {
            if (gc[i] == gc[j] && (d == 2 || i / d == j / d || dest[g + i / d] == gc[i] ||
                                   dest[g + j / d] == gc[j])) {
              dirty = true;
              break;
            }
          }
        }
        ++r.groups;
        r.dirty_groups += dirty ? 1 : 0;
      }
    }
    done += nb;
  }
  r.fingerprint = nubb::detail::slots_fingerprint(slots, n);
  return r;
}

}  // namespace perfbench
