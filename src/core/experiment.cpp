#include "core/experiment.hpp"

#include <algorithm>

#include "core/batched.hpp"
#include "util/assert.hpp"

namespace nubb {

void VectorMeanCollector::add(const std::vector<double>& v) {
  if (sum_.empty()) {
    sum_ = v;
  } else {
    NUBB_REQUIRE_MSG(sum_.size() == v.size(), "VectorMeanCollector length mismatch");
    for (std::size_t i = 0; i < v.size(); ++i) sum_[i] += v[i];
  }
  ++count_;
}

void VectorMeanCollector::merge(const VectorMeanCollector& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  NUBB_REQUIRE_MSG(sum_.size() == other.sum_.size(), "VectorMeanCollector merge mismatch");
  for (std::size_t i = 0; i < sum_.size(); ++i) sum_[i] += other.sum_[i];
  count_ += other.count_;
}

std::vector<double> VectorMeanCollector::mean() const {
  std::vector<double> out(sum_.size());
  for (std::size_t i = 0; i < sum_.size(); ++i) {
    out[i] = sum_[i] / static_cast<double>(count_);
  }
  return out;
}

void VectorMeanCollector::to_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("count", count_);
  w.key("sum");
  w.begin_array();
  for (const double x : sum_) w.value(x);
  w.end_array();
  w.end_object();
}

VectorMeanCollector VectorMeanCollector::from_json(const JsonValue& v) {
  VectorMeanCollector c;
  c.count_ = v.at("count").as_uint64();
  for (const JsonValue& x : v.at("sum").as_array()) c.sum_.push_back(x.as_double());
  return c;
}

void KeyFrequencyCollector::add(std::uint64_t key) { ++counts_[key]; }

void KeyFrequencyCollector::merge(const KeyFrequencyCollector& other) {
  for (const auto& [key, count] : other.counts_) counts_[key] += count;
  trials_ += other.trials_;
}

double KeyFrequencyCollector::fraction(std::uint64_t key) const {
  if (trials_ == 0) return 0.0;
  const auto it = counts_.find(key);
  if (it == counts_.end()) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(trials_);
}

void KeyFrequencyCollector::to_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("trials", trials_);
  w.key("counts");
  w.begin_array();
  for (const auto& [key, count] : counts_) {
    w.begin_array();
    w.value(key);
    w.value(count);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

KeyFrequencyCollector KeyFrequencyCollector::from_json(const JsonValue& v) {
  KeyFrequencyCollector c;
  c.trials_ = v.at("trials").as_uint64();
  for (const JsonValue& pair : v.at("counts").as_array()) {
    const auto& kv = pair.as_array();
    if (kv.size() != 2) throw JsonError("KeyFrequencyCollector counts entry is not a pair");
    const std::uint64_t key = kv[0].as_uint64();
    const std::uint64_t count = kv[1].as_uint64();
    // A key wins at most once per trial, so a larger count is corrupt state.
    if (count > c.trials_) {
      throw JsonError("KeyFrequencyCollector: count " + std::to_string(count) + " of key " +
                      std::to_string(key) + " exceeds " + std::to_string(c.trials_) +
                      " trials");
    }
    if (!c.counts_.emplace(key, count).second) {
      throw JsonError("KeyFrequencyCollector: duplicate key " + std::to_string(key));
    }
  }
  return c;
}

void SampleCollector::merge(const SampleCollector& other) {
  stats.merge(other.stats);
  values.insert(values.end(), other.values.begin(), other.values.end());
}

void SampleCollector::to_json(JsonWriter& w) const {
  w.begin_object();
  w.key("stats");
  stats.to_json(w);
  w.key("values");
  w.begin_array();
  for (const double x : values) w.value(x);
  w.end_array();
  w.end_object();
}

SampleCollector SampleCollector::from_json(const JsonValue& v) {
  SampleCollector c;
  c.stats = RunningStats::from_json(v.at("stats"));
  for (const JsonValue& x : v.at("values").as_array()) c.values.push_back(x.as_double());
  // The quantiles read the sample and the mean reads the stats: they must
  // describe the same replications.
  if (c.values.size() != c.stats.count()) {
    throw JsonError("SampleCollector: " + std::to_string(c.values.size()) +
                    " values for a count of " + std::to_string(c.stats.count()));
  }
  return c;
}

GameResult GameFixture::run_one(Xoshiro256StarStar& rng, BinArray& bins) const {
  bins.clear();
  if (game_.batch <= 1) return play_game(bins, sampler_, game_, rng);
  return play_batched_game(bins, sampler_, game_, game_.batch, rng);
}

Summary max_load_summary(const std::vector<std::uint64_t>& capacities,
                         const SelectionPolicy& policy, const GameConfig& game,
                         const ExperimentConfig& exp) {
  const GameFixture fixture(capacities, policy, game);
  return Summary::from(
      replicate<ScalarCollector>(
          capacities, exp,
          [&fixture](std::uint64_t, Xoshiro256StarStar& rng, ReplicationScratch& w,
                     ScalarCollector& local) {
            local.add(fixture.run_one(rng, w.bins).max_load_value());
          },
          game.memory)
          .stats);
}

std::vector<double> mean_sorted_profile(const std::vector<std::uint64_t>& capacities,
                                        const SelectionPolicy& policy, const GameConfig& game,
                                        const ExperimentConfig& exp) {
  const GameFixture fixture(capacities, policy, game);
  return replicate<VectorMeanCollector>(
             capacities, exp,
             [&fixture](std::uint64_t, Xoshiro256StarStar& rng, ReplicationScratch& w,
                        VectorMeanCollector& local) {
               fixture.run_one(rng, w.bins);
               sorted_load_profile(w.bins, w.scratch);
               local.add(w.scratch);
             },
             game.memory)
      .mean();
}

std::map<std::uint64_t, std::vector<double>> mean_class_profiles(
    const std::vector<std::uint64_t>& capacities, const SelectionPolicy& policy,
    const GameConfig& game, const ExperimentConfig& exp) {
  const GameFixture fixture(capacities, policy, game);
  const ClassProfilesCollector merged = replicate<ClassProfilesCollector>(
      capacities, exp,
      [&fixture](std::uint64_t, Xoshiro256StarStar& rng, ReplicationScratch& w,
                 ClassProfilesCollector& local) {
        fixture.run_one(rng, w.bins);
        for (const std::uint64_t cap : distinct_capacities(w.bins)) {
          sorted_class_profile(w.bins, cap, w.scratch);
          local.per_key[cap].add(w.scratch);
        }
      },
      game.memory);
  std::map<std::uint64_t, std::vector<double>> out;
  for (const auto& [cap, collector] : merged.per_key) out[cap] = collector.mean();
  return out;
}

std::map<std::uint64_t, double> class_of_max_fractions(
    const std::vector<std::uint64_t>& capacities, const SelectionPolicy& policy,
    const GameConfig& game, const ExperimentConfig& exp) {
  const GameFixture fixture(capacities, policy, game);
  const KeyFrequencyCollector merged = replicate<KeyFrequencyCollector>(
      capacities, exp,
      [&fixture](std::uint64_t, Xoshiro256StarStar& rng, ReplicationScratch& w,
                 KeyFrequencyCollector& local) {
        fixture.run_one(rng, w.bins);
        local.add_trial();
        for (const std::uint64_t cap : capacities_attaining_max(w.bins)) local.add(cap);
      },
      game.memory);
  std::map<std::uint64_t, double> out;
  for (const auto& [cap, count] : merged.counts()) {
    out[cap] = static_cast<double>(count) / static_cast<double>(merged.trials());
  }
  return out;
}

namespace {

/// The gap trace's preconditions, checked before the fixture is built.
GameFixture gap_trace_fixture(const std::vector<std::uint64_t>& capacities,
                              const SelectionPolicy& policy, const GameConfig& game,
                              std::uint64_t total_balls, std::uint64_t checkpoint_interval) {
  NUBB_REQUIRE_MSG(checkpoint_interval > 0, "gap trace needs a positive checkpoint interval");
  NUBB_REQUIRE_MSG(total_balls > 0, "gap trace needs at least one ball");
  NUBB_REQUIRE_MSG(game.batch <= 1, "gap trace requires the sequential process (batch <= 1)");
  return GameFixture(capacities, policy, game);
}

}  // namespace

GapTraceBody::GapTraceBody(const std::vector<std::uint64_t>& capacities,
                           const SelectionPolicy& policy, const GameConfig& game,
                           std::uint64_t total_balls, std::uint64_t checkpoint_interval)
    : fixture_(gap_trace_fixture(capacities, policy, game, total_balls, checkpoint_interval)),
      total_balls_(total_balls),
      checkpoint_interval_(checkpoint_interval) {}

void GapTraceBody::operator()(std::uint64_t, Xoshiro256StarStar& rng, ReplicationScratch& w,
                              VectorMeanCollector& local) const {
  w.bins.clear();
  GameConfig cfg = fixture_.game();
  cfg.balls = total_balls_;
  std::vector<double>& trace = w.scratch;
  trace.clear();
  trace.reserve((total_balls_ + checkpoint_interval_ - 1) / checkpoint_interval_);
  play_game(w.bins, fixture_.sampler(), cfg, rng, checkpoint_interval_,
            [&trace](const GameCheckpoint& cp, const BinArray&) {
              trace.push_back(cp.max_load.value() - cp.average_load);
            });
  local.add(trace);
}

std::vector<double> mean_gap_trace(const std::vector<std::uint64_t>& capacities,
                                   const SelectionPolicy& policy, const GameConfig& game,
                                   std::uint64_t total_balls, std::uint64_t checkpoint_interval,
                                   const ExperimentConfig& exp) {
  return replicate<VectorMeanCollector>(
             capacities, exp,
             GapTraceBody(capacities, policy, game, total_balls, checkpoint_interval),
             game.memory)
      .mean();
}

}  // namespace nubb
