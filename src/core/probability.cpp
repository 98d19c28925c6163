#include "core/probability.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace nubb {

SelectionPolicy SelectionPolicy::uniform() {
  SelectionPolicy p;
  p.kind_ = Kind::kUniform;
  return p;
}

SelectionPolicy SelectionPolicy::proportional_to_capacity() {
  SelectionPolicy p;
  p.kind_ = Kind::kProportionalToCapacity;
  return p;
}

SelectionPolicy SelectionPolicy::capacity_power(double exponent) {
  NUBB_REQUIRE_MSG(std::isfinite(exponent), "capacity_power exponent must be finite");
  SelectionPolicy p;
  p.kind_ = Kind::kCapacityPower;
  p.exponent_ = exponent;
  return p;
}

SelectionPolicy SelectionPolicy::top_capacity_only(std::uint64_t threshold) {
  NUBB_REQUIRE_MSG(threshold >= 1, "top_capacity_only threshold must be >= 1");
  SelectionPolicy p;
  p.kind_ = Kind::kTopCapacityOnly;
  p.threshold_ = threshold;
  return p;
}

SelectionPolicy SelectionPolicy::custom(std::vector<double> weights) {
  NUBB_REQUIRE_MSG(!weights.empty(), "custom policy needs weights");
  SelectionPolicy p;
  p.kind_ = Kind::kCustom;
  p.custom_ = std::move(weights);
  return p;
}

void SelectionPolicy::require_weights_for(const std::vector<std::uint64_t>& capacities) const {
  NUBB_REQUIRE_MSG(!capacities.empty(), "selection policy applied to empty bin set");
  if (kind_ == Kind::kTopCapacityOnly) {
    // threshold_ >= 1, so any bin that reaches it carries positive weight.
    const std::uint64_t t = threshold_;
    NUBB_REQUIRE_MSG(
        std::any_of(capacities.begin(), capacities.end(), [t](std::uint64_t c) { return c >= t; }),
        "top_capacity_only threshold excludes every bin (no probability mass)");
  }
  if (kind_ == Kind::kCustom) {
    NUBB_REQUIRE_MSG(custom_.size() == capacities.size(),
                     "custom weights size does not match the number of bins");
  }
}

std::vector<double> SelectionPolicy::weights(
    const std::vector<std::uint64_t>& capacities) const {
  return visit_weights(capacities, [n = capacities.size()](auto weight_of) {
    std::vector<double> w(n);
    for (std::size_t i = 0; i < n; ++i) w[i] = weight_of(i);
    return w;
  });
}

std::string SelectionPolicy::describe() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kUniform:
      os << "uniform(1/n)";
      break;
    case Kind::kProportionalToCapacity:
      os << "proportional(c_i/C)";
      break;
    case Kind::kCapacityPower:
      os << "power(c_i^" << exponent_ << ")";
      break;
    case Kind::kTopCapacityOnly:
      os << "top-only(c_i >= " << threshold_ << ")";
      break;
    case Kind::kCustom:
      os << "custom[" << custom_.size() << "]";
      break;
  }
  return os.str();
}

}  // namespace nubb
