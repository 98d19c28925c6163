#pragma once

/// \file bin_range.hpp
/// Contiguous bin sub-ranges and non-owning views over interleaved BinSlot
/// state — the core layer under the sharded placement service.
///
/// A sharded service splits one logical bin set {0, ..., n-1} into S
/// contiguous ranges, each owned by one placement shard with its own bin
/// array, sampler, kernel, and RNG stream. Two properties make the split
/// composable:
///
///   * `partition_bins` is a pure function of (capacities, S) — the same
///     deterministic-layout contract as `make_chunk_layout` in
///     util/parallel.hpp, extended to weight the cuts by capacity so every
///     shard carries ~C/S total capacity regardless of how the capacity
///     classes are ordered. Round-robin ball routing over capacity-balanced
///     shards keeps the expected per-shard load equal to the global m/C.
///   * the FNV-1a state fingerprint folds across a concatenation of slot
///     ranges (`slots_fingerprint_fold` in core/bin_array.hpp), so the fold
///     of the shards' sub-arrays in range order equals the fingerprint one
///     unsharded array over the same state would report — the serving
///     analogue of the offline `--shard i/N` + `merge` replay.
///
/// `BinArrayView` is the read side: a non-owning const window over any
/// contiguous slot run (a shard's sub-array, or a slice of a full array)
/// with the same accessors and fingerprint semantics as the owning arrays.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bin_array.hpp"
#include "core/load.hpp"

namespace nubb {

/// One contiguous range [first, first + count) of global bin indices.
struct BinRange {
  std::size_t first = 0;
  std::size_t count = 0;

  std::size_t end() const noexcept { return first + count; }
  bool contains(std::size_t bin) const noexcept { return bin >= first && bin < end(); }
  bool operator==(const BinRange&) const = default;
};

/// Split n bins into (at most) `shards` non-empty contiguous ranges with
/// near-equal total capacity: the cut after shard s lands where the prefix
/// capacity first reaches (s+1)/S of the total, while always leaving enough
/// bins for the remaining shards. Deterministic in (capacities, shards);
/// `shards` is clamped to the bin count, so every returned range is
/// non-empty and the ranges tile [0, n) in order.
/// \pre capacities non-empty, every capacity >= 1, shards >= 1.
std::vector<BinRange> partition_bins(const std::vector<std::uint64_t>& capacities,
                                     std::size_t shards);

/// Non-owning const view over a contiguous run of interleaved BinSlots.
/// The viewed storage must outlive the view (same borrowing contract as the
/// placement kernel's slot pointers).
class BinArrayView {
 public:
  BinArrayView(const BinSlot* slots, std::size_t count) noexcept
      : slots_(slots), count_(count) {}

  std::size_t size() const noexcept { return count_; }
  const BinSlot* slot_data() const noexcept { return slots_; }

  std::uint64_t num(std::size_t i) const noexcept { return slots_[i].num; }
  std::uint64_t capacity(std::size_t i) const noexcept { return slots_[i].cap; }
  Load load(std::size_t i) const noexcept { return Load{slots_[i].num, slots_[i].cap}; }

  /// Sum of the viewed numerators (ball counts or accumulated weight).
  std::uint64_t total_num() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < count_; ++i) total += slots_[i].num;
    return total;
  }

  /// Sum of the viewed capacities.
  std::uint64_t total_capacity() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < count_; ++i) total += slots_[i].cap;
    return total;
  }

  /// Fingerprint of the viewed range alone (fresh FNV-1a basis — what a
  /// shard reports as its own provenance fingerprint).
  std::uint64_t fingerprint() const noexcept {
    return detail::slots_fingerprint(slots_, count_);
  }

  /// Fold this range into a running fingerprint. Folding consecutive views
  /// in range order reproduces the single-array fingerprint over the
  /// concatenation — the cross-shard merge rule.
  std::uint64_t fingerprint_fold(std::uint64_t h) const noexcept {
    return detail::slots_fingerprint_fold(h, slots_, count_);
  }

 private:
  const BinSlot* slots_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace nubb
