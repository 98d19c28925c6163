#pragma once

/// \file probability.hpp
/// Bin selection-probability models.
///
/// The paper's default is "proportional to capacity" (`p_i = c_i / C`);
/// Section 4.5 and Theorem 5 study alternatives. A `SelectionPolicy` turns a
/// capacity vector into sampling weights; the `BinSampler` writes them one
/// at a time straight into an O(1) alias table.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nubb {

/// Declarative description of how a ball picks each of its d candidate bins.
class SelectionPolicy {
 public:
  enum class Kind {
    kUniform,                 ///< p_i = 1/n, independent of capacity
    kProportionalToCapacity,  ///< p_i = c_i / C (the paper's default)
    kCapacityPower,           ///< p_i proportional to c_i^t (Section 4.5)
    kTopCapacityOnly,         ///< p_i prop. to c_i iff c_i >= threshold, else 0 (Thm 5)
    kCustom                   ///< explicit weight vector
  };

  /// Factories (the only way to construct; keeps invariants local).
  static SelectionPolicy uniform();
  static SelectionPolicy proportional_to_capacity();
  /// \pre exponent finite.
  static SelectionPolicy capacity_power(double exponent);
  /// Probability mass only on bins with capacity >= threshold,
  /// proportional to capacity among those. \pre threshold >= 1.
  static SelectionPolicy top_capacity_only(std::uint64_t threshold);
  /// Explicit non-negative weights, one per bin.
  static SelectionPolicy custom(std::vector<double> weights);

  Kind kind() const noexcept { return kind_; }
  double exponent() const noexcept { return exponent_; }
  std::uint64_t threshold() const noexcept { return threshold_; }

  /// The one definition of each policy's weights: returns
  /// `use(weight_of)`, where `weight_of(i)` is bin i's sampling weight.
  /// weights() collects them into a vector; BinSampler::from_policy writes
  /// them straight into its alias table. `capacities` must outlive the call.
  /// \pre capacities non-empty; for kCustom, the weights registered at
  /// construction match the size.
  /// \throws PreconditionError if the policy assigns zero total weight
  ///         (e.g. top_capacity_only threshold above every capacity).
  template <typename Use>
  auto visit_weights(const std::vector<std::uint64_t>& capacities, Use&& use) const {
    require_weights_for(capacities);
    const std::uint64_t* const c = capacities.data();
    switch (kind_) {
      case Kind::kUniform:
        return use([](std::size_t) { return 1.0; });
      case Kind::kProportionalToCapacity:
        return use([c](std::size_t i) { return static_cast<double>(c[i]); });
      case Kind::kCapacityPower:
        return use([c, t = exponent_](std::size_t i) {
          return std::pow(static_cast<double>(c[i]), t);
        });
      case Kind::kTopCapacityOnly:
        return use([c, t = threshold_](std::size_t i) {
          return c[i] >= t ? static_cast<double>(c[i]) : 0.0;
        });
      case Kind::kCustom:
        break;
    }
    return use([w = custom_.data()](std::size_t i) { return w[i]; });
  }

  /// Materialise sampling weights for the given capacities (visit_weights
  /// collected into a vector). Same preconditions and throws.
  std::vector<double> weights(const std::vector<std::uint64_t>& capacities) const;

  /// Human-readable description for tables/CSV metadata.
  std::string describe() const;

 private:
  SelectionPolicy() = default;

  /// visit_weights' preconditions, checked before any weight is produced.
  void require_weights_for(const std::vector<std::uint64_t>& capacities) const;

  Kind kind_ = Kind::kProportionalToCapacity;
  double exponent_ = 1.0;
  std::uint64_t threshold_ = 1;
  std::vector<double> custom_;
};

}  // namespace nubb
