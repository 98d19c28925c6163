/// Collector JSON error paths: shard state files are external input, so a
/// malformed state (missing keys, wrong types, mismatched lengths,
/// truncated documents) must surface as JsonError / std::runtime_error /
/// NUBB_REQUIRE failures — never as silently merged garbage.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace nubb {
namespace {

JsonValue parse(const std::string& text) { return JsonValue::parse(text); }

template <typename Collector>
std::string to_text(const Collector& c) {
  std::ostringstream os;
  JsonWriter w(os);
  c.to_json(w);
  EXPECT_TRUE(w.complete());
  return os.str();
}

// --- RunningStats / ScalarCollector -----------------------------------------

TEST(CollectorJsonTest, RunningStatsRejectsMissingAndMistypedKeys) {
  EXPECT_THROW(RunningStats::from_json(parse(R"({"mean":1.0,"m2":0,"min":1,"max":1})")),
               JsonError);  // count missing
  EXPECT_THROW(
      RunningStats::from_json(parse(R"({"count":"five","mean":1.0,"m2":0,"min":1,"max":1})")),
      JsonError);  // count is a string
  EXPECT_THROW(
      RunningStats::from_json(parse(R"({"count":-3,"mean":1.0,"m2":0,"min":1,"max":1})")),
      JsonError);  // count is negative
  EXPECT_THROW(
      RunningStats::from_json(parse(R"({"count":2,"mean":[],"m2":0,"min":1,"max":1})")),
      JsonError);  // mean is not a number
  EXPECT_THROW(ScalarCollector::from_json(parse("[1,2,3]")), JsonError);  // not an object
}

// --- VectorMeanCollector -----------------------------------------------------

TEST(CollectorJsonTest, VectorMeanRejectsMalformedStates) {
  EXPECT_THROW(VectorMeanCollector::from_json(parse(R"({"sum":[1.0]})")), JsonError);
  EXPECT_THROW(VectorMeanCollector::from_json(parse(R"({"count":1})")), JsonError);
  EXPECT_THROW(VectorMeanCollector::from_json(parse(R"({"count":1,"sum":1.0})")), JsonError);
  EXPECT_THROW(VectorMeanCollector::from_json(parse(R"({"count":1,"sum":[1.0,"x"]})")),
               JsonError);
}

TEST(CollectorJsonTest, VectorMeanMergeRejectsMismatchedSumLengths) {
  // Two states that parse fine individually but carry different profile
  // lengths (e.g. shards from different bin counts) must refuse to merge.
  VectorMeanCollector a =
      VectorMeanCollector::from_json(parse(R"({"count":1,"sum":[1.0,2.0]})"));
  const VectorMeanCollector b =
      VectorMeanCollector::from_json(parse(R"({"count":1,"sum":[1.0,2.0,3.0]})"));
  EXPECT_THROW(a.merge(b), PreconditionError);
}

// --- KeyFrequencyCollector ---------------------------------------------------

TEST(CollectorJsonTest, KeyFrequencyRejectsMalformedStates) {
  EXPECT_THROW(KeyFrequencyCollector::from_json(parse(R"({"counts":[[1,2]]})")), JsonError);
  EXPECT_THROW(KeyFrequencyCollector::from_json(parse(R"({"trials":2})")), JsonError);
  EXPECT_THROW(KeyFrequencyCollector::from_json(parse(R"({"trials":2,"counts":[[1,2,3]]})")),
               JsonError);  // triple, not a pair
  EXPECT_THROW(KeyFrequencyCollector::from_json(parse(R"({"trials":2,"counts":[[1]]})")),
               JsonError);  // singleton, not a pair
  EXPECT_THROW(KeyFrequencyCollector::from_json(parse(R"({"trials":2,"counts":[[1,2.5]]})")),
               JsonError);  // fractional count
  EXPECT_THROW(KeyFrequencyCollector::from_json(parse(R"({"trials":2,"counts":{"1":2}})")),
               JsonError);  // object, not an array of pairs
}

TEST(CollectorJsonTest, KeyFrequencyRejectsInconsistentStates) {
  // Well-formed JSON that no run can produce: a key listed twice (one
  // count would be silently dropped) or winning more often than there
  // were trials (a fraction above 1).
  EXPECT_THROW(
      KeyFrequencyCollector::from_json(parse(R"({"trials":4,"counts":[[1,2],[1,3]]})")),
      JsonError);
  EXPECT_THROW(KeyFrequencyCollector::from_json(parse(R"({"trials":2,"counts":[[1,5]]})")),
               JsonError);
  // The boundary still loads: a key that won every trial.
  const KeyFrequencyCollector all =
      KeyFrequencyCollector::from_json(parse(R"({"trials":2,"counts":[[1,2],[4,1]]})"));
  EXPECT_EQ(all.fraction(1), 1.0);
  EXPECT_EQ(all.fraction(4), 0.5);
}

// --- KeyedCollector ----------------------------------------------------------

TEST(CollectorJsonTest, KeyedCollectorRejectsMalformedStates) {
  using Keyed = KeyedCollector<ScalarCollector>;
  EXPECT_THROW(Keyed::from_json(parse(R"({})")), JsonError);  // entries missing
  EXPECT_THROW(Keyed::from_json(parse(R"({"entries":[{"key":1}]})")), JsonError);
  EXPECT_THROW(Keyed::from_json(parse(R"({"entries":[{"state":{}}]})")), JsonError);
  // Inner state malformed: the element collector's own validation fires.
  EXPECT_THROW(Keyed::from_json(parse(R"({"entries":[{"key":1,"state":{"count":1}}]})")),
               JsonError);
  // Duplicate keys would silently drop one state on a std::map insert.
  ScalarCollector c;
  c.add(1.0);
  const std::string state = to_text(c);
  EXPECT_THROW(Keyed::from_json(parse(R"({"entries":[{"key":7,"state":)" + state +
                                      R"(},{"key":7,"state":)" + state + "}]}")),
               JsonError);
}

TEST(CollectorJsonTest, KeyedCollectorRoundTrips) {
  KeyedCollector<ScalarCollector> keyed;
  keyed.per_key[1].add(0.5);
  keyed.per_key[10].add(2.5);
  keyed.per_key[10].add(3.5);
  const auto back = KeyedCollector<ScalarCollector>::from_json(parse(to_text(keyed)));
  ASSERT_EQ(back.per_key.size(), 2u);
  EXPECT_EQ(back.per_key.at(1).stats.mean(), 0.5);
  EXPECT_EQ(back.per_key.at(10).stats.count(), 2u);
  EXPECT_EQ(back.per_key.at(10).stats.mean(), 3.0);
}

// --- SampleCollector ---------------------------------------------------------

TEST(CollectorJsonTest, SampleCollectorRejectsMalformedStates) {
  EXPECT_THROW(SampleCollector::from_json(parse(R"({"values":[1.0]})")), JsonError);
  EXPECT_THROW(SampleCollector::from_json(
                   parse(R"({"stats":{"count":1,"mean":1,"m2":0,"min":1,"max":1}})")),
               JsonError);  // values missing
  EXPECT_THROW(SampleCollector::from_json(
                   parse(R"({"stats":{"count":1,"mean":1,"m2":0,"min":1,"max":1},)"
                         R"("values":[true]})")),
               JsonError);  // non-numeric sample
}

TEST(CollectorJsonTest, SampleCollectorRejectsValuesCountMismatch) {
  // The mean reads the stats and the quantiles read the values: a state
  // whose two halves describe different samples must not load.
  const std::string stats = R"("stats":{"count":2,"mean":1.5,"m2":0.5,"min":1,"max":2})";
  EXPECT_THROW(SampleCollector::from_json(parse("{" + stats + R"(,"values":[1.0]})")),
               JsonError);
  EXPECT_THROW(SampleCollector::from_json(parse("{" + stats + R"(,"values":[1.0,2.0,3.0]})")),
               JsonError);
  const SampleCollector ok =
      SampleCollector::from_json(parse("{" + stats + R"(,"values":[1.0,2.0]})"));
  EXPECT_EQ(ok.values.size(), 2u);
}

// --- MultiCollector ----------------------------------------------------------

TEST(CollectorJsonTest, MultiCollectorRejectsArityAndTypeMismatches) {
  using Multi = MultiCollector<ScalarCollector, VectorMeanCollector>;
  Multi m;
  m.part<0>().add(1.0);
  m.part<1>().add({1.0, 2.0});
  const std::string good = to_text(m);
  const Multi back = Multi::from_json(parse(good));
  EXPECT_EQ(back.part<0>().stats.mean(), 1.0);
  EXPECT_EQ(back.part<1>().mean(), (std::vector<double>{1.0, 2.0}));

  EXPECT_THROW(Multi::from_json(parse("{}")), JsonError);    // not an array
  EXPECT_THROW(Multi::from_json(parse("[]")), JsonError);    // too few parts
  EXPECT_THROW(Multi::from_json(parse("[" + to_text(m.part<0>()) + "]")), JsonError);
  EXPECT_THROW(Multi::from_json(parse("[{},{},{}]")), JsonError);  // too many parts
}

// --- ExperimentShard ---------------------------------------------------------

TEST(CollectorJsonTest, ExperimentShardRejectsMalformedStates) {
  using Shard = ExperimentShard<ScalarCollector>;
  EXPECT_THROW(Shard::from_json(parse(R"({"replications":4,"base_seed":1,"chunks":[]})")),
               JsonError);  // chunk_count missing
  EXPECT_THROW(
      Shard::from_json(parse(R"({"replications":4,"base_seed":1,"chunk_count":1})")),
      JsonError);  // chunks missing
  EXPECT_THROW(Shard::from_json(parse(
                   R"({"replications":4,"base_seed":1,"chunk_count":1,"chunks":[{"index":0}]})")),
               JsonError);  // chunk state missing
  EXPECT_THROW(
      Shard::from_json(parse(R"({"replications":4,"base_seed":1,"chunk_count":1,)"
                             R"("chunks":[{"index":0,"state":{"count":1}}]})")),
      JsonError);  // chunk state malformed
}

TEST(CollectorJsonTest, MergeRejectsCorruptChunkCoverage) {
  // A state file whose chunk_count lies about the layout must fail the
  // merge validation rather than allocate or fold garbage.
  using Shard = ExperimentShard<ScalarCollector>;
  ScalarCollector c;
  c.add(1.0);
  const std::string state = to_text(c);
  const Shard huge = Shard::from_json(
      parse(R"({"replications":4,"base_seed":1,"chunk_count":18446744073709551615,)"
            R"("chunks":[{"index":0,"state":)" +
            state + "}]}"));
  EXPECT_THROW(merge_shards<ScalarCollector>({huge}), std::runtime_error);

  const Shard out_of_range = Shard::from_json(
      parse(R"({"replications":4,"base_seed":1,"chunk_count":1,)"
            R"("chunks":[{"index":5,"state":)" +
            state + "}]}"));
  EXPECT_THROW(merge_shards<ScalarCollector>({out_of_range}), std::runtime_error);
}

// --- RunMeta -----------------------------------------------------------------

TEST(CollectorJsonTest, RunMetaRejectsMissingAndMistypedKeys) {
  RunMeta meta;
  meta.experiment = "max-load";
  meta.n = 4;
  std::ostringstream os;
  JsonWriter w(os);
  meta.to_json(w);
  const RunMeta back = RunMeta::from_json(parse(os.str()));
  EXPECT_TRUE(back == meta);

  EXPECT_THROW(RunMeta::from_json(parse(R"({"experiment":"max-load"})")), JsonError);
  std::string mistyped = os.str();
  const auto pos = mistyped.find("\"batch\":1");
  ASSERT_NE(pos, std::string::npos);
  mistyped.replace(pos, 9, "\"batch\":[]");
  EXPECT_THROW(RunMeta::from_json(parse(mistyped)), JsonError);
}

}  // namespace
}  // namespace nubb
