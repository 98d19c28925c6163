#include "core/sampler.hpp"

#include "core/bin_array.hpp"
#include "util/assert.hpp"

namespace nubb {

BinSampler BinSampler::uniform(std::size_t n) {
  NUBB_REQUIRE_MSG(n > 0, "sampler over empty bin set");
  return BinSampler(n, nullptr);
}

BinSampler BinSampler::from_weights(const std::vector<double>& weights,
                                    const MemoryConfig& mem) {
  return BinSampler(weights.size(), std::make_shared<const AliasTable>(weights, mem));
}

BinSampler BinSampler::from_policy(const SelectionPolicy& policy,
                                   const std::vector<std::uint64_t>& capacities,
                                   const MemoryConfig& mem) {
  if (policy.kind() == SelectionPolicy::Kind::kUniform) {
    return uniform(capacities.size());
  }
  return policy.visit_weights(capacities, [&](auto weight_of) {
    return BinSampler(capacities.size(),
                      std::make_shared<const AliasTable>(capacities.size(), weight_of, mem));
  });
}

double BinSampler::probability(std::size_t i) const {
  NUBB_REQUIRE(i < n_);
  if (!table_) return 1.0 / static_cast<double>(n_);
  return table_->probability(i);
}

}  // namespace nubb
