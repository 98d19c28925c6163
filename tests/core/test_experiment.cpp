#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "core/builder.hpp"
#include "core/scenario.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace nubb {
namespace {

ExperimentConfig quick_exp(std::uint64_t reps = 50, std::uint64_t seed = 99) {
  ExperimentConfig exp;
  exp.replications = reps;
  exp.base_seed = seed;
  return exp;
}

// --- collectors -------------------------------------------------------------

TEST(VectorMeanCollectorTest, AveragesElementwise) {
  VectorMeanCollector c;
  c.add({1.0, 2.0});
  c.add({3.0, 6.0});
  EXPECT_EQ(c.mean(), (std::vector<double>{2.0, 4.0}));
  EXPECT_EQ(c.count(), 2u);
}

TEST(VectorMeanCollectorTest, MergeEqualsSequential) {
  VectorMeanCollector whole;
  VectorMeanCollector a;
  VectorMeanCollector b;
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> v = {static_cast<double>(i), static_cast<double>(2 * i)};
    whole.add(v);
    (i < 4 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.mean(), whole.mean());
}

TEST(VectorMeanCollectorTest, MergeWithEmpty) {
  VectorMeanCollector a;
  a.add({1.0});
  VectorMeanCollector empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  VectorMeanCollector other;
  other.merge(a);
  EXPECT_EQ(other.mean(), (std::vector<double>{1.0}));
}

TEST(VectorMeanCollectorTest, LengthMismatchThrows) {
  VectorMeanCollector c;
  c.add({1.0, 2.0});
  EXPECT_THROW(c.add({1.0}), PreconditionError);
}

TEST(KeyFrequencyCollectorTest, FractionsOverTrials) {
  KeyFrequencyCollector c;
  c.add_trial();
  c.add(1);
  c.add_trial();
  c.add(1);
  c.add(8);  // tie: both classes attain the max in this trial
  EXPECT_DOUBLE_EQ(c.fraction(1), 1.0);
  EXPECT_DOUBLE_EQ(c.fraction(8), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction(2), 0.0);
  EXPECT_EQ(c.trials(), 2u);
}

TEST(KeyFrequencyCollectorTest, MergeCombines) {
  KeyFrequencyCollector a;
  a.add_trial();
  a.add(1);
  KeyFrequencyCollector b;
  b.add_trial();
  b.add(8);
  a.merge(b);
  EXPECT_EQ(a.trials(), 2u);
  EXPECT_DOUBLE_EQ(a.fraction(1), 0.5);
  EXPECT_DOUBLE_EQ(a.fraction(8), 0.5);
}

// --- runners ------------------------------------------------------------------

TEST(MaxLoadSummaryTest, SingleBinIsExact) {
  // One bin of capacity 4, m = C = 4 balls: load is exactly 1 every run.
  const Summary s = max_load_summary({4}, SelectionPolicy::proportional_to_capacity(),
                                     GameConfig{}, quick_exp());
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
  EXPECT_EQ(s.count, 50u);
}

TEST(MaxLoadSummaryTest, DeterministicForFixedSeed) {
  const auto caps = uniform_capacities(64, 2);
  const Summary a = max_load_summary(caps, SelectionPolicy::proportional_to_capacity(),
                                     GameConfig{}, quick_exp(100, 7));
  const Summary b = max_load_summary(caps, SelectionPolicy::proportional_to_capacity(),
                                     GameConfig{}, quick_exp(100, 7));
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.stddev, b.stddev);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
}

TEST(MaxLoadSummaryTest, DifferentSeedsDiffer) {
  const auto caps = uniform_capacities(64, 1);
  const Summary a = max_load_summary(caps, SelectionPolicy::proportional_to_capacity(),
                                     GameConfig{}, quick_exp(100, 1));
  const Summary b = max_load_summary(caps, SelectionPolicy::proportional_to_capacity(),
                                     GameConfig{}, quick_exp(100, 2));
  EXPECT_NE(a.mean, b.mean);  // astronomically unlikely to coincide exactly
}

TEST(MaxLoadSummaryTest, MaxLoadAtLeastAverage) {
  const auto caps = two_class_capacities(20, 1, 5, 10);
  const Summary s = max_load_summary(caps, SelectionPolicy::proportional_to_capacity(),
                                     GameConfig{}, quick_exp());
  EXPECT_GE(s.min, 1.0);  // m = C => average load 1, max >= average
}

TEST(MeanSortedProfileTest, ProfileHasOneEntryPerBin) {
  const auto caps = uniform_capacities(32, 2);
  const auto profile = mean_sorted_profile(caps, SelectionPolicy::proportional_to_capacity(),
                                           GameConfig{}, quick_exp());
  ASSERT_EQ(profile.size(), 32u);
  // Mean of sorted vectors is itself non-increasing.
  for (std::size_t i = 1; i < profile.size(); ++i) EXPECT_GE(profile[i - 1], profile[i]);
}

TEST(MeanSortedProfileTest, MassIsConserved) {
  // Sum of mean profile * capacity must equal m (here every capacity is c).
  const std::uint64_t c = 3;
  const auto caps = uniform_capacities(16, c);
  const auto profile = mean_sorted_profile(caps, SelectionPolicy::proportional_to_capacity(),
                                           GameConfig{}, quick_exp());
  const double total_load = std::accumulate(profile.begin(), profile.end(), 0.0);
  EXPECT_NEAR(total_load * static_cast<double>(c), 48.0, 1e-9);
}

TEST(MeanClassProfilesTest, KeysAreTheDistinctCapacities) {
  const auto caps = two_class_capacities(10, 1, 5, 8);
  const auto profiles = mean_class_profiles(caps, SelectionPolicy::proportional_to_capacity(),
                                            GameConfig{}, quick_exp());
  ASSERT_EQ(profiles.size(), 2u);
  ASSERT_TRUE(profiles.count(1));
  ASSERT_TRUE(profiles.count(8));
  EXPECT_EQ(profiles.at(1).size(), 10u);
  EXPECT_EQ(profiles.at(8).size(), 5u);
}

TEST(ClassOfMaxFractionsTest, FractionsCoverEveryRun) {
  // In every run at least one class attains the max, so fractions sum >= 1
  // (> 1 exactly when cross-class ties occur).
  const auto caps = two_class_capacities(30, 1, 10, 10);
  const auto fractions = class_of_max_fractions(
      caps, SelectionPolicy::proportional_to_capacity(), GameConfig{}, quick_exp(200));
  double sum = 0.0;
  for (const auto& [cap, f] : fractions) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    sum += f;
  }
  EXPECT_GE(sum, 1.0 - 1e-12);
}

TEST(MeanGapTraceTest, TraceLengthAndPositivity) {
  const auto caps = uniform_capacities(16, 2);
  const auto trace = mean_gap_trace(caps, SelectionPolicy::proportional_to_capacity(),
                                    GameConfig{}, /*total_balls=*/320,
                                    /*checkpoint_interval=*/32, quick_exp());
  ASSERT_EQ(trace.size(), 10u);
  for (const double g : trace) EXPECT_GE(g, 0.0);
}

TEST(MeanGapTraceTest, RejectsBadArguments) {
  const auto caps = uniform_capacities(4, 1);
  EXPECT_THROW(mean_gap_trace(caps, SelectionPolicy::uniform(), GameConfig{}, 10, 0,
                              quick_exp()),
               PreconditionError);
  EXPECT_THROW(mean_gap_trace(caps, SelectionPolicy::uniform(), GameConfig{}, 0, 5,
                              quick_exp()),
               PreconditionError);
}

TEST(MaxLoadDistributionTest, QuantilesAreOrdered) {
  // The max-load scenario reports the distribution's quantiles.
  ScenarioSpec spec;
  spec.capacities = uniform_capacities(64, 1);
  spec.exp = quick_exp(200);
  RunMeta meta;
  meta.n = meta.total_capacity = meta.balls = 64;
  std::ostringstream text;
  std::ostringstream json;
  JsonWriter w(json);
  w.begin_object();
  ScenarioRegistry::global().require("max-load").run_and_report(
      spec, ReportContext{meta, text, &w});
  w.end_object();
  const JsonValue dist = JsonValue::parse(json.str()).at("max_load");
  EXPECT_LE(dist.at("min").as_double(), dist.at("median").as_double());
  EXPECT_LE(dist.at("median").as_double(), dist.at("q95").as_double());
  EXPECT_LE(dist.at("q95").as_double(), dist.at("q99").as_double());
  EXPECT_LE(dist.at("q99").as_double(), dist.at("max").as_double());
}

TEST(GameFixtureTest, SamplerTableObeysTheGameMemoryConfig) {
  // The fixture's alias arrays are placed by GameConfig::memory, like the
  // engine's bin arrays. 400K bins put each array above one 2 MiB huge page,
  // where the default config would advise huge pages.
  const std::vector<std::uint64_t> caps = from_classes({{200000, 1}, {200000, 10}});
  const SelectionPolicy policy = SelectionPolicy::proportional_to_capacity();
  for (const HugePages hp : {HugePages::kOff, HugePages::kOn}) {
    GameConfig game;
    game.memory.huge_pages = hp;
    const GameFixture fixture(caps, policy, game);
    const BinSampler direct = BinSampler::from_policy(policy, caps, game.memory);
    EXPECT_EQ(fixture.sampler().alias_table()->huge_page_advised(),
              direct.alias_table()->huge_page_advised())
        << to_string(hp);
    if (hp == HugePages::kOff) {
      EXPECT_FALSE(fixture.sampler().alias_table()->huge_page_advised());
    }
  }
}

TEST(RunnersTest, PoolInjectionProducesSameResults) {
  ThreadPool pool(2);
  ExperimentConfig with_pool = quick_exp(100, 5);
  with_pool.pool = &pool;
  const auto caps = uniform_capacities(32, 2);
  const Summary a = max_load_summary(caps, SelectionPolicy::proportional_to_capacity(),
                                     GameConfig{}, with_pool);
  const Summary b = max_load_summary(caps, SelectionPolicy::proportional_to_capacity(),
                                     GameConfig{}, quick_exp(100, 5));
  EXPECT_NEAR(a.mean, b.mean, 1e-12);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
}

TEST(RunnersTest, ResultsAreBitIdenticalAcrossThreadCounts) {
  // The determinism contract of util/parallel.hpp: replication k always
  // gets seed_for_replication(base_seed, k) and the chunk layout (and with
  // it the floating-point merge grouping) is fixed, independent of the
  // worker count — so 1, 2, and 8 threads must agree to the last bit, not
  // just within tolerance.
  const auto caps = two_class_capacities(24, 1, 24, 10);
  GameConfig game;

  auto summary_with = [&caps, &game](std::size_t threads) {
    ThreadPool pool(threads);
    ExperimentConfig exp = quick_exp(100, 31337);
    exp.pool = &pool;
    return max_load_summary(caps, SelectionPolicy::proportional_to_capacity(), game, exp);
  };
  const Summary s1 = summary_with(1);
  const Summary s2 = summary_with(2);
  const Summary s8 = summary_with(8);
  for (const Summary* s : {&s2, &s8}) {
    EXPECT_EQ(s1.count, s->count);
    // EXPECT_EQ on doubles checks exact equality — bit-identity, not ULPs.
    EXPECT_EQ(s1.mean, s->mean);
    EXPECT_EQ(s1.stddev, s->stddev);
    EXPECT_EQ(s1.std_error, s->std_error);
    EXPECT_EQ(s1.min, s->min);
    EXPECT_EQ(s1.max, s->max);
  }

  auto fractions_with = [&caps, &game](std::size_t threads) {
    ThreadPool pool(threads);
    ExperimentConfig exp = quick_exp(100, 31337);
    exp.pool = &pool;
    return class_of_max_fractions(caps, SelectionPolicy::proportional_to_capacity(), game,
                                  exp);
  };
  const auto f1 = fractions_with(1);
  const auto f2 = fractions_with(2);
  const auto f8 = fractions_with(8);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1, f8);
}

// --- ExperimentConfig::chunks override ---------------------------------------

TEST(ChunksOverrideTest, DefaultZeroMatchesTheFixedLayout) {
  // chunks = 0 must be byte-for-byte the historic fixed-16-chunk layout that
  // the golden values pin.
  const auto caps = two_class_capacities(24, 1, 24, 10);
  ExperimentConfig dflt = quick_exp(100, 424242);
  ExperimentConfig zero = quick_exp(100, 424242);
  zero.chunks = 0;
  const Summary a = max_load_summary(caps, SelectionPolicy::proportional_to_capacity(),
                                     GameConfig{}, dflt);
  const Summary b = max_load_summary(caps, SelectionPolicy::proportional_to_capacity(),
                                     GameConfig{}, zero);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
}

TEST(ChunksOverrideTest, OverrideCreatesThatManyParallelUnits) {
  // The fixed 16-chunk default leaves >16-core pools idle; an override must
  // actually split the replications into `chunks` independently scheduled
  // units (one worker context each).
  std::atomic<int> contexts{0};
  struct NullAcc {};
  const auto count_contexts = [&contexts] {
    ++contexts;
    return 0;
  };
  const auto noop = [](std::uint64_t, Xoshiro256StarStar&, int&, NullAcc&) {};
  ThreadPool pool(4);
  const ChunkLayout wide = make_chunk_layout(/*replications=*/64, /*chunk_count=*/32);
  replication_chunk_states<NullAcc>(wide, /*base_seed=*/1, count_contexts, noop, 0,
                                    wide.chunk_count, &pool);
  EXPECT_EQ(contexts.load(), 32);

  // More chunks than replications clamps to one replication per chunk.
  contexts = 0;
  const ChunkLayout clamped = make_chunk_layout(/*replications=*/10, /*chunk_count=*/1000);
  replication_chunk_states<NullAcc>(clamped, /*base_seed=*/1, count_contexts, noop, 0,
                                    clamped.chunk_count, &pool);
  EXPECT_EQ(contexts.load(), 10);
}

TEST(ChunksOverrideTest, NonDefaultChunksEngageEveryWorker) {
  // With 8 sleeping chunks on a 4-thread dedicated pool, the work cannot be
  // drained by a single worker: multiple distinct threads must participate.
  // (All four virtually always do; >= 2 keeps the assertion scheduler-proof.)
  std::mutex mu;
  std::set<std::thread::id> workers;
  struct NullAcc {};
  ThreadPool pool(4);
  const ChunkLayout layout = make_chunk_layout(/*replications=*/8, /*chunk_count=*/8);
  replication_chunk_states<NullAcc>(
      layout, /*base_seed=*/2,
      [&mu, &workers] {
        {
          std::lock_guard<std::mutex> lock(mu);
          workers.insert(std::this_thread::get_id());
        }
        return 0;
      },
      [](std::uint64_t, Xoshiro256StarStar&, int&, NullAcc&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      },
      0, layout.chunk_count, &pool);
  EXPECT_GE(workers.size(), 2u);
}

TEST(ChunksOverrideTest, OverrideIsThreadCountInvariant) {
  // The determinism contract holds for any fixed chunk count: results are
  // bit-identical across pool sizes (only the default is pinned by goldens,
  // but every value must be reproducible).
  const auto caps = two_class_capacities(24, 1, 24, 10);
  auto summary_with = [&caps](std::size_t threads) {
    ThreadPool pool(threads);
    ExperimentConfig exp = quick_exp(96, 1337);
    exp.pool = &pool;
    exp.chunks = 24;  // > default, exercises the override path
    return max_load_summary(caps, SelectionPolicy::proportional_to_capacity(), GameConfig{},
                            exp);
  };
  const Summary s1 = summary_with(1);
  const Summary s4 = summary_with(4);
  const Summary s24 = summary_with(24);
  for (const Summary* s : {&s4, &s24}) {
    EXPECT_EQ(s1.count, s->count);
    EXPECT_EQ(s1.mean, s->mean);
    EXPECT_EQ(s1.stddev, s->stddev);
    EXPECT_EQ(s1.min, s->min);
    EXPECT_EQ(s1.max, s->max);
  }
}

}  // namespace
}  // namespace nubb
