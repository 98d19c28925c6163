#pragma once

/// \file sampler.hpp
/// O(1) bin choice. Wraps either a uniform fast path (no table needed) or a
/// Vose alias table that a SelectionPolicy's weights are written straight
/// into (no weight vector in between).

#include <cstddef>
#include <memory>
#include <vector>

#include "core/probability.hpp"
#include "util/alias_table.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"

namespace nubb {

class BinArray;

/// Immutable sampler over bin indices {0, ..., n-1}.
class BinSampler {
 public:
  /// Uniform over n bins (alias-table-free fast path).
  static BinSampler uniform(std::size_t n);

  /// From explicit weights. `mem` places the alias table's hot slot arrays
  /// (see AliasTable); it cannot change what is sampled.
  static BinSampler from_weights(const std::vector<double>& weights,
                                 const MemoryConfig& mem = {});

  /// From a policy applied to a capacity vector: each bin's weight
  /// (SelectionPolicy::visit_weights) goes straight into the table's
  /// threshold array, so the table is byte-identical to
  /// `from_weights(policy.weights(capacities), mem)` without the n-entry
  /// vector. `mem` as in from_weights.
  static BinSampler from_policy(const SelectionPolicy& policy,
                                const std::vector<std::uint64_t>& capacities,
                                const MemoryConfig& mem = {});

  /// Draw one bin index.
  std::size_t sample(Xoshiro256StarStar& rng) const noexcept {
    if (!table_) return static_cast<std::size_t>(rng.bounded(n_));
    return table_->sample(rng);
  }

  std::size_t size() const noexcept { return n_; }

  /// Number of bins with strictly positive probability. Distinct-choice
  /// sampling can produce at most this many different bins, no matter how
  /// many rejections it is willing to pay.
  std::size_t support_size() const noexcept {
    return table_ ? table_->support_size() : n_;
  }

  /// Underlying alias table, or null for the uniform fast path. The
  /// placement kernel caches this raw pointer so its inner loop skips the
  /// shared_ptr indirection; the table is immutable and owned for the
  /// sampler's lifetime.
  const AliasTable* alias_table() const noexcept { return table_.get(); }

  /// Probability assigned to bin i; O(n) per query when an alias table
  /// backs the sampler (AliasTable::probability).
  double probability(std::size_t i) const;

 private:
  BinSampler(std::size_t n, std::shared_ptr<const AliasTable> table)
      : n_(n), table_(std::move(table)) {}

  std::size_t n_;
  std::shared_ptr<const AliasTable> table_;  // null => uniform
};

}  // namespace nubb
