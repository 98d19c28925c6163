#pragma once

/// \file alias_table.hpp
/// Walker/Vose alias method: O(n) construction, O(1) weighted sampling.
///
/// Every selection-probability model in the core library (proportional,
/// capacity^t, top-only, ...) compiles down to an AliasTable, because bin
/// probabilities are static for the duration of a game and the inner loop
/// draws d of them per ball. A policy hands its weights to the table one at
/// a time (`SelectionPolicy::visit_weights`), so no weight vector is built.

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/memory.hpp"
#include "util/rng.hpp"

namespace nubb {

/// Immutable alias table over outcomes {0, ..., n-1}. It holds only the two
/// arrays sampling reads, 12 bytes per outcome.
class AliasTable {
 public:
  /// Build from non-negative weights (not necessarily normalised): the
  /// build below with `weight_of(i) = weights[i]`.
  explicit AliasTable(const std::vector<double>& weights, const MemoryConfig& mem = {});

  /// Build from the n weights `weight_of(0), ..., weight_of(n - 1)`, each
  /// called once, in index order. Each weight is written straight into its
  /// threshold entry (later its scaled probability, then its threshold) and
  /// the total is summed in the same pass; the only other build-time
  /// storage is a 4 B/outcome work array. The hot slot arrays
  /// (`threshold_data`/`alias_data`, the ones the placement kernel's draw
  /// loop probes at random) are placed on AlignedBuffer storage honoring
  /// `mem` — cache-line aligned always, huge-page-advised when the
  /// MemoryConfig asks for it, exactly like the bin slots they are probed
  /// alongside. Placement only; sampling results never depend on it.
  /// \pre n >= 1; every weight finite and >= 0; sum of weights finite
  /// and > 0.
  template <std::invocable<std::size_t> WeightOf>
  AliasTable(std::size_t n, WeightOf weight_of, const MemoryConfig& mem = {}) {
    allocate(n, mem);
    std::uint64_t* const slot = threshold_.data();
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = weight_of(i);
      if (!(w >= 0.0 && w <= std::numeric_limits<double>::max())) [[unlikely]] {
        check_weight(w);
      }
      slot[i] = std::bit_cast<std::uint64_t>(w);
      total += w;
    }
    build(total, mem);
  }

  /// Draw one outcome in O(1): one bounded slot draw, then one word whose
  /// top 53 bits are compared with the slot's threshold.
  std::size_t sample(Xoshiro256StarStar& rng) const noexcept {
    const std::size_t slot = static_cast<std::size_t>(rng.bounded(size()));
    return (rng.next() >> 11) < threshold_[slot] ? slot : alias_[slot];
  }

  std::size_t size() const noexcept { return alias_.size(); }

  /// Number of outcomes with strictly positive probability. Rejection-based
  /// consumers (distinct-choice sampling) must not ask for more distinct
  /// outcomes than this, or they would loop forever.
  std::size_t support_size() const noexcept { return support_; }

  /// Probability the table assigns to outcome i: its own slot's acceptance
  /// mass plus what every slot aliased to it passes on, divided by n. O(n)
  /// per query (a scan of both arrays); for tests and diagnostics only.
  double probability(std::size_t i) const;

  /// Raw slot arrays for fused sampling loops (the placement kernel inlines
  /// `sample()` against these so the hot loop carries no vector indirection).
  /// Both have size() entries and live as long as the table. Slot s accepts
  /// a 53-bit mantissa k (`rng.next() >> 11`) iff `k < threshold_data()[s]`,
  /// where the threshold is `ceil(p * 2^53)` for the slot's acceptance
  /// probability p, so `k < threshold` decides exactly like
  /// `k * 2^-53 < p`. A rejected draw yields `alias_data()[s]`.
  const std::uint64_t* threshold_data() const noexcept { return threshold_.data(); }
  const std::uint32_t* alias_data() const noexcept { return alias_.data(); }

  /// Whether the hot slot arrays were huge-page-advised (telemetry, like
  /// BinArray::huge_page_advised).
  bool huge_page_advised() const noexcept { return threshold_.huge_page_advised(); }

 private:
  void allocate(std::size_t n, const MemoryConfig& mem);
  /// Throws the precondition a weight outside [0, DBL_MAX] breaks.
  static void check_weight(double w);
  /// Vose's construction over the weights the threshold array holds.
  void build(double total, const MemoryConfig& mem);

  AlignedBuffer<std::uint64_t> threshold_;  // ceil(acceptance prob * 2^53) per slot
  AlignedBuffer<std::uint32_t> alias_;      // fallback outcome per slot
  std::size_t support_ = 0;                 // outcomes with positive probability
};

}  // namespace nubb
