#include "util/alias_table.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace nubb {

namespace {

constexpr std::uint64_t kOne = std::uint64_t{1} << 53;  // threshold of probability 1

/// With u = k * 2^-53 (k the 53-bit mantissa draw), u < prob iff
/// k < prob * 2^53; prob * 2^53 is exact (exponent shift), so
/// k < ceil(prob * 2^53) decides identically for non-integral prob * 2^53
/// and k < prob * 2^53 for integral — both covered by comparing against ceil.
std::uint64_t threshold_of(double prob) {
  return static_cast<std::uint64_t>(std::ceil(prob * 0x1.0p53));
}

}  // namespace

AliasTable::AliasTable(const std::vector<double>& weights, const MemoryConfig& mem)
    : AliasTable(weights.size(), [&weights](std::size_t i) { return weights[i]; }, mem) {}

void AliasTable::allocate(std::size_t n, const MemoryConfig& mem) {
  NUBB_REQUIRE_MSG(n > 0, "alias table needs at least one outcome");
  NUBB_REQUIRE_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                   "alias table limited to 2^32-1 outcomes");
  threshold_ = AlignedBuffer<std::uint64_t>(n, mem);
  alias_ = AlignedBuffer<std::uint32_t>(n, mem);
}

void AliasTable::check_weight(double w) {
  NUBB_REQUIRE_MSG(w >= 0.0, "alias table weights must be non-negative");
  NUBB_REQUIRE_MSG(std::isfinite(w), "alias table weights must be finite");
}

void AliasTable::build(double total, const MemoryConfig& mem) {
  NUBB_REQUIRE_MSG(std::isfinite(total), "alias table weight total must be finite");
  NUBB_REQUIRE_MSG(total > 0.0, "alias table needs positive total weight");

  // Vose's stable construction: scale probabilities by n, split outcomes
  // into "small" (< 1) and "large" (>= 1), and repeatedly pair one of each.
  // Built in place: threshold_[i] holds the bits of weight i, then of its
  // scaled probability until slot i is final. The two stacks share one work
  // array, small growing up from 0 and large down from n; an outcome sits on
  // at most one stack, so they never meet.
  const std::size_t n = size();
  std::uint64_t* const slot = threshold_.data();
  const auto scaled = [slot](std::uint32_t i) { return std::bit_cast<double>(slot[i]); };
  AlignedBuffer<std::uint32_t> work(n, mem);
  std::size_t small_end = 0;  // small stack: work[0, small_end), top at small_end - 1
  std::size_t large_top = n;  // large stack: work[large_top, n), top at large_top
  std::size_t support = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = std::bit_cast<double>(slot[i]) / total * static_cast<double>(n);
    slot[i] = std::bit_cast<std::uint64_t>(p);
    support += p > 0.0;
    // Branch-free push (a mask selects the end): on shuffled weights
    // "small or large" is a coin flip no branch predictor learns.
    const std::size_t small = p < 1.0;
    const std::size_t mask = 0 - small;
    work[(small_end & mask) | ((large_top - 1) & ~mask)] = static_cast<std::uint32_t>(i);
    small_end += small;
    large_top -= 1 - small;
  }
  support_ = support;

  while (small_end > 0 && large_top < n) {
    const std::uint32_t s = work[--small_end];
    const std::uint32_t l = work[large_top++];
    const double ps = scaled(s);
    // The large outcome donates (1 - ps) of its mass to slot s.
    const double pl = (scaled(l) + ps) - 1.0;
    slot[s] = threshold_of(ps);
    alias_[s] = l;
    slot[l] = std::bit_cast<std::uint64_t>(pl);
    // Branchy on purpose: the next pop depends on this push, and a
    // predicted branch lets it start before pl is known.
    work[pl < 1.0 ? small_end++ : --large_top] = l;
  }
  // Leftovers are == 1 up to rounding; they keep probability 1 and alias
  // themselves.
  const auto keep = [&](std::uint32_t i) {
    slot[i] = kOne;
    alias_[i] = i;
  };
  for (std::size_t k = large_top; k < n; ++k) keep(work[k]);
  for (std::size_t k = 0; k < small_end; ++k) keep(work[k]);
}

void AliasTable::sample_fill(std::uint32_t* out, std::size_t count, Xoshiro256StarStar& rng,
                             SimdMode simd) const {
  // Short fills cannot amortise the vector setup, and a table of 2^32+
  // entries would overflow the vector body's 32-bit multiplier lanes; the
  // draws are identical either way, so route both scalar regardless of the
  // resolved impl.
  if (count >= 8 && size() < (std::uint64_t{1} << 32) && resolve_simd(simd) == SimdImpl::kAvx2) {
    detail::alias_sample_fill_avx2(threshold_.data(), alias_.data(), size(), out, count, rng);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = static_cast<std::uint32_t>(sample(rng));
  }
}

double AliasTable::probability(std::size_t i) const {
  NUBB_REQUIRE(i < size());
  // Slot s hands 2^53 - threshold[s] of its 2^53 mantissas to alias[s]; a
  // slot that aliases itself has threshold 2^53 and hands on nothing.
  double mass = static_cast<double>(threshold_[i]);
  for (std::size_t s = 0; s < size(); ++s) {
    if (alias_[s] == i) mass += static_cast<double>(kOne - threshold_[s]);
  }
  return mass * 0x1.0p-53 / static_cast<double>(size());
}

}  // namespace nubb
