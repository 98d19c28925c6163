/// Shard-merge equivalence suite: for every registry scenario (the one
/// sharded-experiment API), running the replications as 1 process must be
/// bit-identical to running them as N shard processes whose collector
/// states travel through the JSON serialization path and are merged. The
/// reports are compared as JSON text, whose doubles are shortest
/// round-trip decimals, so equal text is equal bits. One engine-level case
/// covers a collector no scenario uses (`KeyedCollector<VectorMeanCollector>`,
/// the class profiles of Figures 12-13).

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/builder.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace nubb {
namespace {

const std::vector<std::uint64_t>& test_caps() {
  static const std::vector<std::uint64_t> caps = two_class_capacities(24, 1, 24, 10);
  return caps;
}

ScenarioSpec test_spec(std::uint64_t reps = 100, std::uint64_t seed = 0xD15C0) {
  ScenarioSpec spec;
  spec.capacities = test_caps();
  spec.exp.replications = reps;
  spec.exp.base_seed = seed;
  spec.checkpoint_interval = 48;
  return spec;
}

RunMeta meta_for(const Scenario& scenario, const ScenarioSpec& spec) {
  RunMeta meta;
  meta.experiment = scenario.name();
  meta.n = spec.capacities.size();
  for (const std::uint64_t c : spec.capacities) meta.total_capacity += c;
  meta.balls = spec.game.balls ? spec.game.balls : meta.total_capacity;
  meta.replications = spec.exp.replications;
  meta.seed = spec.exp.base_seed;
  meta.checkpoint = spec.checkpoint_interval;
  meta.profile = spec.profile;
  meta.classes = spec.classes;
  return meta;
}

/// The scenario's JSON report of the unsharded run (run_and_report, the
/// in-memory fold nubb_run's plain path takes).
std::string full_report(const Scenario& scenario, const ScenarioSpec& spec) {
  std::ostringstream text;
  std::ostringstream json;
  JsonWriter w(json);
  w.begin_object();
  scenario.run_and_report(spec, ReportContext{meta_for(scenario, spec), text, &w});
  w.end_object();
  return json.str();
}

/// Shard i of `shard_count`'s collector state, serialized and parsed back:
/// exactly what the nubb_run state files carry between processes.
JsonValue shard_state(const Scenario& scenario, ScenarioSpec spec, std::uint64_t shard_index,
                      std::uint64_t shard_count) {
  spec.shard_index = shard_index;
  spec.shard_count = shard_count;
  std::ostringstream os;
  JsonWriter w(os);
  scenario.run_shard(spec, w);
  EXPECT_TRUE(w.complete());
  return JsonValue::parse(os.str());
}

std::string merged_report(const Scenario& scenario, const ScenarioSpec& spec,
                          const std::vector<JsonValue>& states) {
  std::ostringstream text;
  std::ostringstream json;
  JsonWriter w(json);
  w.begin_object();
  scenario.merge_and_report(states, ReportContext{meta_for(scenario, spec), text, &w});
  w.end_object();
  return json.str();
}

std::string sharded_report(const Scenario& scenario, const ScenarioSpec& spec,
                           std::uint64_t shard_count) {
  std::vector<JsonValue> states;
  for (std::uint64_t i = 0; i < shard_count; ++i) {
    states.push_back(shard_state(scenario, spec, i, shard_count));
  }
  return merged_report(scenario, spec, states);
}

/// The unsharded report of `name`, after checking that every 2/4/16-way
/// split merges to the same bytes.
std::string expect_shards_bit_identical(const std::string& name, const ScenarioSpec& spec) {
  const Scenario& scenario = ScenarioRegistry::global().require(name);
  const std::string single = full_report(scenario, spec);
  for (const std::uint64_t n : {2u, 4u, 16u}) {
    EXPECT_EQ(sharded_report(scenario, spec, n), single) << name << ", " << n << " shards";
  }
  return single;
}

const Scenario& max_load() { return ScenarioRegistry::global().require("max-load"); }

TEST(ShardMergeTest, MaxLoadSummaryIsBitIdentical) {
  const JsonValue report =
      JsonValue::parse(expect_shards_bit_identical("max-load", test_spec()));
  // The plain runner folds the same games in the same order.
  const ScenarioSpec spec = test_spec();
  const Summary plain = max_load_summary(spec.capacities, spec.policy, spec.game, spec.exp);
  EXPECT_EQ(report.at("max_load").at("mean").as_double(), plain.mean);
  EXPECT_EQ(report.at("max_load").at("std_error").as_double(), plain.std_error);
  EXPECT_EQ(report.at("max_load").at("min").as_double(), plain.min);
  EXPECT_EQ(report.at("max_load").at("max").as_double(), plain.max);
}

TEST(ShardMergeTest, MeanSortedProfileIsBitIdentical) {
  ScenarioSpec spec = test_spec();
  spec.profile = true;
  const JsonValue report = JsonValue::parse(expect_shards_bit_identical("max-load", spec));
  EXPECT_EQ(report.at("profile").as_array().size(), test_caps().size());
}

TEST(ShardMergeTest, ClassOfMaxFractionsIsBitIdentical) {
  ScenarioSpec spec = test_spec();
  spec.classes = true;
  const JsonValue report = JsonValue::parse(expect_shards_bit_identical("max-load", spec));
  EXPECT_FALSE(report.at("classes").as_array().empty());
}

TEST(ShardMergeTest, MaxLoadDistributionIsBitIdentical) {
  // The fused report: quantiles, profile and class fractions from one pass.
  ScenarioSpec spec = test_spec();
  spec.profile = true;
  spec.classes = true;
  expect_shards_bit_identical("max-load", spec);
}

TEST(ShardMergeTest, MeanGapTraceIsBitIdentical) {
  ScenarioSpec spec = test_spec();
  spec.game.balls = 480;
  const JsonValue report = JsonValue::parse(expect_shards_bit_identical("gap-trace", spec));
  // The scenario and the plain runner share one body.
  const std::vector<double> plain = mean_gap_trace(spec.capacities, spec.policy, spec.game,
                                                   480, spec.checkpoint_interval, spec.exp);
  const auto& trace = report.at("gap_trace").at("mean_gap").as_array();
  ASSERT_EQ(trace.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) EXPECT_EQ(trace[i].as_double(), plain[i]);
}

TEST(ShardMergeTest, MeanClassProfilesIsBitIdentical) {
  // Engine level: a collector no scenario uses still shards exactly, and
  // the merged fold is the plain runner's.
  const ScenarioSpec spec = test_spec();
  const auto single =
      mean_class_profiles(spec.capacities, spec.policy, spec.game, spec.exp);
  const GameFixture fixture(spec.capacities, spec.policy, spec.game);
  const auto body = [&fixture](std::uint64_t, Xoshiro256StarStar& rng, ReplicationScratch& w,
                               ClassProfilesCollector& local) {
    fixture.run_one(rng, w.bins);
    for (const std::uint64_t cap : distinct_capacities(w.bins)) {
      sorted_class_profile(w.bins, cap, w.scratch);
      local.per_key[cap].add(w.scratch);
    }
  };
  for (const std::uint64_t n : {2u, 4u, 16u}) {
    std::vector<ExperimentShard<ClassProfilesCollector>> shards;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::ostringstream os;
      JsonWriter w(os);
      replicate_shard<ClassProfilesCollector>(spec.capacities, spec.exp, i, n, body).to_json(w);
      shards.push_back(
          ExperimentShard<ClassProfilesCollector>::from_json(JsonValue::parse(os.str())));
    }
    std::map<std::uint64_t, std::vector<double>> merged;
    for (const auto& [cap, collector] : merge_shards(shards).per_key) {
      merged[cap] = collector.mean();
    }
    EXPECT_EQ(merged, single) << n << " shards";
  }
}

TEST(ShardMergeTest, StreamV2IsBitIdentical) {
  // The batch-drawn stream must survive the shard/JSON/merge pipeline with
  // the same exactness guarantee as v1: each replication seeds its own
  // generator, so sharding never splits a v2 block across processes.
  ScenarioSpec spec = test_spec();
  spec.game.stream = RngStream::kV2;
  expect_shards_bit_identical("max-load", spec);
}

TEST(ShardMergeTest, StreamsProduceDifferentFixedSeedSummaries) {
  // Guard against silently wiring v2 to the v1 loops: with everything else
  // fixed, the two streams' fixed-seed outcomes must differ.
  ExperimentConfig exp;
  exp.replications = 100;
  exp.base_seed = 0xD15C0;
  GameConfig v2;
  v2.stream = RngStream::kV2;
  const Summary a = max_load_summary(test_caps(), SelectionPolicy::proportional_to_capacity(),
                                     GameConfig{}, exp);
  const Summary b =
      max_load_summary(test_caps(), SelectionPolicy::proportional_to_capacity(), v2, exp);
  EXPECT_NE(a.mean, b.mean);
}

TEST(ShardMergeTest, ShardsBeyondChunkCountAreEmptyButMergeable) {
  // 100 replications resolve to 16 chunks; a 32-way split leaves half the
  // shards with no chunks. They must still serialize and merge cleanly.
  const ScenarioSpec spec = test_spec();
  std::vector<JsonValue> states;
  std::size_t empty_shards = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    states.push_back(shard_state(max_load(), spec, i, 32));
    empty_shards += states.back().at("chunks").as_array().empty() ? 1 : 0;
  }
  EXPECT_GT(empty_shards, 0u);
  EXPECT_EQ(merged_report(max_load(), spec, states), full_report(max_load(), spec));
}

TEST(ShardMergeTest, ShardsPartitionTheChunksExactly) {
  // Every chunk appears in exactly one shard, and shard ranges follow the
  // balanced contiguous split of the resolved layout.
  for (const std::uint64_t reps : {100u, 10u, 1000u}) {
    for (const std::uint64_t n : {1u, 2u, 4u, 16u, 7u}) {
      const ChunkLayout layout = make_chunk_layout(reps, 0);
      std::vector<bool> seen(layout.chunk_count, false);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto [first, last] = shard_chunk_range(layout.chunk_count, i, n);
        for (std::uint64_t c = first; c < last; ++c) {
          EXPECT_FALSE(seen[c]);
          seen[c] = true;
        }
      }
      for (std::uint64_t c = 0; c < layout.chunk_count; ++c) {
        EXPECT_TRUE(seen[c]) << "chunk " << c << " unowned for reps=" << reps << " n=" << n;
      }
    }
  }
}

TEST(ShardMergeTest, MergeValidatesShardSets) {
  const ScenarioSpec spec = test_spec();
  const JsonValue s0 = shard_state(max_load(), spec, 0, 2);
  const JsonValue s1 = shard_state(max_load(), spec, 1, 2);

  // Incomplete set: missing chunks.
  EXPECT_THROW(merged_report(max_load(), spec, {s0}), std::runtime_error);
  // Duplicated chunks.
  EXPECT_THROW(merged_report(max_load(), spec, {s0, s0}), std::runtime_error);
  // Mismatched experiment (different seed).
  const JsonValue other = shard_state(max_load(), test_spec(100, 999), 1, 2);
  EXPECT_THROW(merged_report(max_load(), spec, {s0, other}), std::runtime_error);
  // Empty set.
  EXPECT_THROW(merged_report(max_load(), spec, {}), std::runtime_error);
  // The correct set merges.
  EXPECT_NO_THROW(merged_report(max_load(), spec, {s0, s1}));
  // Shard order must not matter: the fold is by global chunk index.
  EXPECT_EQ(merged_report(max_load(), spec, {s1, s0}), merged_report(max_load(), spec, {s0, s1}));
}

TEST(ShardMergeTest, FullRunnersRejectShardedConfigs) {
  // A full run handed a shard coordinate would report a partial result as
  // the whole.
  for (const Scenario* scenario : ScenarioRegistry::global().list()) {
    for (const std::uint64_t index : {0u, 1u}) {
      ScenarioSpec spec = test_spec();
      spec.shard_index = index;
      spec.shard_count = 2;
      EXPECT_THROW(full_report(*scenario, spec), PreconditionError)
          << scenario->name() << " shard " << index << "/2";
    }
  }
}

TEST(ShardMergeTest, ShardRunnersValidateCoordinates) {
  EXPECT_THROW(shard_state(max_load(), test_spec(), 0, 0), PreconditionError);
  EXPECT_THROW(shard_state(max_load(), test_spec(), 3, 2), PreconditionError);
  EXPECT_THROW(replicate_shard<ScalarCollector>(
                   test_caps(), ExperimentConfig{}, 2, 2,
                   [](std::uint64_t, Xoshiro256StarStar&, ReplicationScratch&,
                      ScalarCollector&) {}),
               PreconditionError);
}

TEST(ShardMergeTest, BatchedModeIsBitIdentical) {
  // Batched arrivals ride the same engine: GameConfig::batch > 1 must shard
  // and merge exactly like the sequential process.
  ScenarioSpec batched = test_spec();
  batched.game.batch = 4;
  batched.profile = true;
  batched.classes = true;
  const JsonValue batch_report =
      JsonValue::parse(expect_shards_bit_identical("max-load", batched));

  // Staleness changes the process: the batched mean must differ from the
  // sequential one (astronomically unlikely to coincide exactly).
  const JsonValue seq_report = JsonValue::parse(full_report(max_load(), test_spec()));
  EXPECT_NE(batch_report.at("max_load").at("mean").as_double(),
            seq_report.at("max_load").at("mean").as_double());
}

TEST(ShardMergeTest, ClassMaxLoadScenarioIsBitIdentical) {
  const JsonValue report =
      JsonValue::parse(expect_shards_bit_identical("class-max-load", test_spec()));
  EXPECT_EQ(report.at("class_max_load").as_array().size(), 2u);  // the two classes
}

TEST(ShardMergeTest, HitEveryBinScenarioIsBitIdentical) {
  // Batched variant on purpose: a registry scenario sharded over the
  // batched game exercises engine, scenario, and batch port at once.
  ScenarioSpec spec = test_spec();
  spec.game.batch = 3;
  const JsonValue report =
      JsonValue::parse(expect_shards_bit_identical("hit-every-bin", spec));
  // The indicator is a probability.
  const double p = report.at("hit_every_bin").at("probability").as_double();
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(ShardMergeTest, ChunkOverrideShardsStayBitIdentical) {
  // Sharding composes with ExperimentConfig::chunks: a 64-chunk layout cut
  // into 4 shards still reproduces the 64-chunk single-process result.
  ScenarioSpec spec = test_spec(256, 4242);
  spec.exp.chunks = 64;
  EXPECT_EQ(sharded_report(max_load(), spec, 4), full_report(max_load(), spec));
}

}  // namespace
}  // namespace nubb
