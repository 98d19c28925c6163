/// Scenario registry suite: registry lookup semantics, the shard-state
/// pipeline every scenario shares (run_shard -> JSON -> check_state ->
/// merge_and_report), and agreement between the registry scenarios and the
/// plain runners over the same engine.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/builder.hpp"
#include "core/scenario.hpp"
#include "util/json.hpp"

namespace nubb {
namespace {

ScenarioSpec small_spec(std::uint64_t reps = 60, std::uint64_t seed = 0xCAFE) {
  ScenarioSpec spec;
  spec.capacities = two_class_capacities(16, 1, 16, 10);
  spec.exp.replications = reps;
  spec.exp.base_seed = seed;
  spec.checkpoint_interval = 24;
  return spec;
}

RunMeta meta_for(const Scenario& scenario, const ScenarioSpec& spec) {
  RunMeta meta;
  meta.experiment = scenario.name();
  meta.n = spec.capacities.size();
  for (const std::uint64_t c : spec.capacities) meta.total_capacity += c;
  meta.caps_hash = caps_fingerprint(spec.capacities);
  meta.policy = spec.policy.describe();
  meta.choices = spec.game.choices;
  meta.balls = spec.game.balls ? spec.game.balls : meta.total_capacity;
  meta.batch = spec.game.batch;
  meta.replications = spec.exp.replications;
  meta.seed = spec.exp.base_seed;
  meta.checkpoint = spec.checkpoint_interval;
  meta.profile = spec.profile;
  meta.classes = spec.classes;
  return meta;
}

/// Run one shard through the exact pipeline nubb_run uses between
/// processes: serialize, parse, validate.
JsonValue shard_state(const Scenario& scenario, const ScenarioSpec& spec) {
  std::ostringstream os;
  JsonWriter w(os);
  scenario.run_shard(spec, w);
  EXPECT_TRUE(w.complete());
  JsonValue state = JsonValue::parse(os.str());
  scenario.check_state(state);
  return state;
}

std::string report_text(const Scenario& scenario, const std::vector<JsonValue>& states,
                        const RunMeta& meta) {
  std::ostringstream out;
  scenario.merge_and_report(states, ReportContext{meta, out, nullptr});
  return out.str();
}

/// The merged collector of scenario `name`'s unsharded run, read back from
/// its state through the state-file format.
template <typename Collector>
Collector merged_state(const std::string& name, const ScenarioSpec& spec) {
  const JsonValue state = shard_state(ScenarioRegistry::global().require(name), spec);
  return merge_shards<Collector>({ExperimentShard<Collector>::from_json(state)});
}

// --- registry ----------------------------------------------------------------

TEST(ScenarioRegistryTest, BuiltinsAreRegistered) {
  ScenarioRegistry& reg = ScenarioRegistry::global();
  for (const char* name : {"max-load", "gap-trace", "class-max-load", "hit-every-bin"}) {
    const Scenario* s = reg.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name(), name);
    EXPECT_FALSE(s->description().empty()) << name;
  }
}

TEST(ScenarioRegistryTest, ListIsNameSortedAndMatchesFind) {
  const auto scenarios = ScenarioRegistry::global().list();
  ASSERT_GE(scenarios.size(), 4u);
  for (std::size_t i = 1; i < scenarios.size(); ++i) {
    EXPECT_LT(scenarios[i - 1]->name(), scenarios[i]->name());
  }
  for (const Scenario* s : scenarios) {
    EXPECT_EQ(ScenarioRegistry::global().find(s->name()), s);
  }
}

TEST(ScenarioRegistryTest, RequireThrowsWithKnownNames) {
  EXPECT_EQ(&ScenarioRegistry::global().require("max-load"),
            ScenarioRegistry::global().find("max-load"));
  EXPECT_EQ(ScenarioRegistry::global().find("no-such"), nullptr);
  try {
    ScenarioRegistry::global().require("no-such");
    FAIL() << "require should throw for unknown scenarios";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("max-load"), std::string::npos)
        << "error should list the known names: " << e.what();
  }
}

TEST(ScenarioRegistryTest, DuplicateNamesAreRejected) {
  class Dummy final : public Scenario {
   public:
    Dummy() : Scenario("max-load", "duplicate") {}
    void run_shard(const ScenarioSpec&, JsonWriter&) const override {}
    void check_state(const JsonValue&) const override {}
    void merge_and_report(const std::vector<JsonValue>&, const ReportContext&) const override {}
    void run_and_report(const ScenarioSpec&, const ReportContext&) const override {}
  };
  EXPECT_THROW(ScenarioRegistry::global().add(std::make_unique<Dummy>()),
               std::runtime_error);
}

// --- shared pipeline ---------------------------------------------------------

TEST(ScenarioTest, EveryScenarioRunsThroughTheStatePipeline) {
  const ScenarioSpec spec = small_spec();
  for (const Scenario* scenario : ScenarioRegistry::global().list()) {
    const JsonValue state = shard_state(*scenario, spec);
    const std::string text = report_text(*scenario, {state}, meta_for(*scenario, spec));
    EXPECT_FALSE(text.empty()) << scenario->name();
    // Garbage must be rejected, not merged.
    EXPECT_THROW(scenario->check_state(JsonValue::parse("{\"bogus\":1}")), JsonError)
        << scenario->name();
  }
}

TEST(ScenarioTest, FullRunEqualsShardedRunForEveryScenario) {
  // run_and_report (the in-memory typed fold the CLI's plain path uses)
  // must produce byte-identical output to merging the same run's shard
  // states through the JSON transport.
  const ScenarioSpec spec = small_spec();
  for (const Scenario* scenario : ScenarioRegistry::global().list()) {
    const RunMeta meta = meta_for(*scenario, spec);

    std::ostringstream full_text, full_json_text;
    JsonWriter full_json(full_json_text);
    full_json.begin_object();
    scenario->run_and_report(spec, ReportContext{meta, full_text, &full_json});
    full_json.end_object();

    const JsonValue state = shard_state(*scenario, spec);
    std::ostringstream merged_text, merged_json_text;
    JsonWriter merged_json(merged_json_text);
    merged_json.begin_object();
    scenario->merge_and_report({state}, ReportContext{meta, merged_text, &merged_json});
    merged_json.end_object();

    EXPECT_EQ(full_text.str(), merged_text.str()) << scenario->name();
    EXPECT_EQ(full_json_text.str(), merged_json_text.str()) << scenario->name();
  }
}

TEST(ScenarioTest, NormalizeMetaZeroesOnlyUnreadFields) {
  auto meta_with_extras = [] {
    RunMeta meta;
    meta.checkpoint = 7;
    meta.profile = true;
    meta.classes = true;
    return meta;
  };
  RunMeta max_load = meta_with_extras();
  ScenarioRegistry::global().require("max-load").normalize_meta(max_load);
  EXPECT_EQ(max_load.checkpoint, 0u);
  EXPECT_TRUE(max_load.profile);  // max-load reads profile/classes
  EXPECT_TRUE(max_load.classes);

  RunMeta gap = meta_with_extras();
  ScenarioRegistry::global().require("gap-trace").normalize_meta(gap);
  EXPECT_EQ(gap.checkpoint, 7u);  // gap-trace reads the checkpoint interval
  EXPECT_FALSE(gap.profile);
  EXPECT_FALSE(gap.classes);

  RunMeta coverage = meta_with_extras();
  ScenarioRegistry::global().require("hit-every-bin").normalize_meta(coverage);
  EXPECT_EQ(coverage.checkpoint, 0u);
  EXPECT_FALSE(coverage.profile);
  EXPECT_FALSE(coverage.classes);
}

TEST(ScenarioTest, RunMetaStreamRoundTripsThroughJson) {
  RunMeta meta;
  meta.experiment = "max-load";
  meta.stream = "v2";
  std::ostringstream os;
  {
    JsonWriter w(os);
    meta.to_json(w);
    EXPECT_TRUE(w.complete());
  }
  const RunMeta back = RunMeta::from_json(JsonValue::parse(os.str()));
  EXPECT_EQ(back.stream, "v2");
  EXPECT_EQ(back, meta);
}

TEST(ScenarioTest, RunMetaWithoutStreamKeyDefaultsToV1) {
  // State files written before stream v2 existed carry no "stream" key;
  // they were produced by what is now called stream v1 and must merge as
  // such rather than being rejected or misclassified.
  RunMeta meta;
  meta.experiment = "max-load";
  std::ostringstream os;
  {
    JsonWriter w(os);
    meta.to_json(w);
  }
  std::string text = os.str();
  const auto pos = text.find("\"stream\"");
  ASSERT_NE(pos, std::string::npos);
  const auto end = text.find(',', pos);
  ASSERT_NE(end, std::string::npos);
  text.erase(pos, end - pos + 1);
  const RunMeta back = RunMeta::from_json(JsonValue::parse(text));
  EXPECT_EQ(back.stream, "v1");
  EXPECT_EQ(back, meta);
}

TEST(ScenarioTest, RunMetaHugePagesRoundTripsAndDefaultsToAuto) {
  RunMeta meta;
  meta.experiment = "max-load";
  meta.huge_pages = "on";
  std::ostringstream os;
  {
    JsonWriter w(os);
    meta.to_json(w);
    EXPECT_TRUE(w.complete());
  }
  std::string text = os.str();
  const RunMeta back = RunMeta::from_json(JsonValue::parse(text));
  EXPECT_EQ(back.huge_pages, "on");
  EXPECT_EQ(back, meta);

  // Older state files carry no "huge_pages" key; they read back as "auto".
  const auto pos = text.find(",\"huge_pages\":\"on\"");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, std::string(",\"huge_pages\":\"on\"").size());
  const RunMeta legacy = RunMeta::from_json(JsonValue::parse(text));
  EXPECT_EQ(legacy.huge_pages, "auto");
}

TEST(ScenarioTest, MergeKeyIgnoresHugePagesOnly) {
  // Mixed --huge-pages shard sets carry bit-identical results, so merge
  // compatibility must look through the provenance field — and nothing else.
  RunMeta a;
  a.experiment = "max-load";
  a.stream = "v2";
  a.huge_pages = "on";
  RunMeta b = a;
  b.huge_pages = "off";
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.merge_key(), b.merge_key());

  b.stream = "v1";  // a result-relevant difference must still be caught
  EXPECT_NE(a.merge_key(), b.merge_key());
}

TEST(ScenarioTest, ScenarioJsonBlocksAreWellFormed) {
  const ScenarioSpec spec = small_spec();
  for (const Scenario* scenario : ScenarioRegistry::global().list()) {
    const JsonValue state = shard_state(*scenario, spec);
    const RunMeta meta = meta_for(*scenario, spec);
    std::ostringstream text;
    std::ostringstream json_text;
    JsonWriter json(json_text);
    json.begin_object();
    scenario->merge_and_report({state}, ReportContext{meta, text, &json});
    json.end_object();
    EXPECT_TRUE(json.complete()) << scenario->name();
    const JsonValue doc = JsonValue::parse(json_text.str());
    EXPECT_FALSE(doc.members().empty()) << scenario->name();
  }
}

// --- max-load scenario vs the plain runners ---------------------------------

TEST(ScenarioTest, MaxLoadScenarioMatchesTypedRunners) {
  ScenarioSpec spec = small_spec();
  spec.profile = true;
  spec.classes = true;
  const Scenario& scenario = ScenarioRegistry::global().require("max-load");
  const JsonValue state = shard_state(scenario, spec);
  const RunMeta meta = meta_for(scenario, spec);

  std::ostringstream text;
  std::ostringstream json_text;
  JsonWriter json(json_text);
  json.begin_object();
  scenario.merge_and_report({state}, ReportContext{meta, text, &json});
  json.end_object();
  const JsonValue doc = JsonValue::parse(json_text.str());

  // The fused single-pass scenario must agree bit-for-bit with the
  // independent per-collector runs (same seeds, same games, same fold).
  const Summary summary = max_load_summary(spec.capacities, spec.policy, spec.game, spec.exp);
  EXPECT_EQ(doc.at("max_load").at("mean").as_double(), summary.mean);
  EXPECT_EQ(doc.at("max_load").at("std_error").as_double(), summary.std_error);
  const GameFixture fixture(spec.capacities, spec.policy, spec.game);
  const SampleCollector sample = replicate<SampleCollector>(
      spec.capacities, spec.exp,
      [&fixture](std::uint64_t, Xoshiro256StarStar& rng, ReplicationScratch& w,
                 SampleCollector& local) {
        local.add(fixture.run_one(rng, w.bins).max_load_value());
      });
  const std::vector<double> qs = quantiles(sample.values, {0.50, 0.95, 0.99});
  EXPECT_EQ(doc.at("max_load").at("median").as_double(), qs[0]);
  EXPECT_EQ(doc.at("max_load").at("q95").as_double(), qs[1]);
  EXPECT_EQ(doc.at("max_load").at("q99").as_double(), qs[2]);

  const std::vector<double> profile =
      mean_sorted_profile(spec.capacities, spec.policy, spec.game, spec.exp);
  const auto& json_profile = doc.at("profile").as_array();
  ASSERT_EQ(json_profile.size(), profile.size());
  for (std::size_t i = 0; i < profile.size(); ++i) {
    EXPECT_EQ(json_profile[i].as_double(), profile[i]) << "rank " << i;
  }

  const auto fractions =
      class_of_max_fractions(spec.capacities, spec.policy, spec.game, spec.exp);
  const auto& json_classes = doc.at("classes").as_array();
  ASSERT_EQ(json_classes.size(), fractions.size());
  for (const JsonValue& entry : json_classes) {
    EXPECT_EQ(entry.at("fraction").as_double(),
              fractions.at(entry.at("capacity").as_uint64()));
  }
}

// --- scenario-level sanity ---------------------------------------------------

TEST(ScenarioTest, ClassMaxLoadBoundsTheGlobalMax) {
  const ScenarioSpec spec = small_spec();
  const auto by_class =
      merged_state<KeyedCollector<ScalarCollector>>("class-max-load", spec).per_key;
  const Summary global =
      max_load_summary(spec.capacities, spec.policy, spec.game, spec.exp);
  ASSERT_EQ(by_class.size(), 2u);
  double best_mean = 0.0;
  for (const auto& [cap, c] : by_class) {
    EXPECT_EQ(c.stats.count(), spec.exp.replications);
    EXPECT_LE(c.stats.max(), global.max) << "class " << cap;
    best_mean = std::max(best_mean, c.stats.mean());
  }
  // The global maximum is the max over class maxima, so the hottest class
  // can at most match it in mean.
  EXPECT_LE(best_mean, global.mean);
}

TEST(ScenarioTest, HitEveryBinProbabilityIsMonotoneInBalls) {
  ScenarioSpec sparse = small_spec(200);
  ScenarioSpec dense = small_spec(200);
  std::uint64_t total = 0;
  for (const std::uint64_t c : dense.capacities) total += c;
  dense.game.balls = total * 8;
  const double p_sparse = merged_state<ScalarCollector>("hit-every-bin", sparse).stats.mean();
  const double p_dense = merged_state<ScalarCollector>("hit-every-bin", dense).stats.mean();
  EXPECT_GE(p_sparse, 0.0);
  EXPECT_LE(p_sparse, 1.0);
  EXPECT_GE(p_dense, p_sparse);
  EXPECT_GT(p_dense, 0.9);  // 8x load: coverage is near-certain
}

TEST(ScenarioTest, SingleBinIsAlwaysCoveredAndMaximal) {
  ScenarioSpec spec;
  spec.capacities = {4};
  spec.exp.replications = 20;
  spec.exp.base_seed = 3;
  EXPECT_EQ(merged_state<ScalarCollector>("hit-every-bin", spec).stats.mean(), 1.0);
  const auto by_class =
      merged_state<KeyedCollector<ScalarCollector>>("class-max-load", spec).per_key;
  ASSERT_EQ(by_class.size(), 1u);
  EXPECT_EQ(by_class.at(4).stats.mean(), 1.0);  // m = C on one bin: load exactly 1
}

}  // namespace
}  // namespace nubb
