#pragma once

/// \file scenario.hpp
/// Named experiment scenarios: a string-keyed registry of declarative
/// measurement recipes over the replication engine of experiment.hpp, and
/// the library's one API for experiments sharded across processes.
///
/// A `Scenario` packages one experiment family end-to-end — a
/// per-replication collector body, the shard-state (de)serialization, and
/// the report — behind a uniform interface, so drivers like `nubb_run`
/// dispatch by name (`--experiment`, `list`) instead of hard-wiring one
/// code path per measurement. Because every scenario runs through
/// `replicate_shard` / `merge_shards`, all of them shard across processes
/// (`ScenarioSpec::shard_index` / `shard_count`) and merge bit-identically
/// for free, including batched arrivals (`GameConfig::batch > 1`).
///
/// Adding a scenario is ~30 lines: a body feeding a collector (compose
/// `KeyedCollector` / `MultiCollector` as needed), a report, and a
/// `registry.add(...)` call in `ScenarioRegistry::global()`. The registered
/// names double as the `nubb.shard.v2` state-file experiment tag, so shard
/// files from different scenarios never merge into each other.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace nubb {

/// Everything one scenario run needs, parsed once by the driver.
struct ScenarioSpec {
  std::vector<std::uint64_t> capacities;
  SelectionPolicy policy = SelectionPolicy::proportional_to_capacity();
  GameConfig game;        ///< balls = 0 means m = C (the GameConfig convention;
                          ///< scenarios needing an explicit count resolve it),
                          ///< batch included
  ExperimentConfig exp;   ///< replications / seed / chunks / pool
  bool profile = false;   ///< max-load: also collect the mean sorted profile
  bool classes = false;   ///< max-load: also collect class-of-max fractions
  std::uint64_t checkpoint_interval = 0;  ///< gap-trace (resolved, >= 1)
  /// Shard coordinates for run_shard: shard `shard_index` of `shard_count`
  /// runs a contiguous slice of the replication chunk layout, which itself
  /// never depends on the split. The default 0-of-1 owns everything, and
  /// run_and_report requires it.
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
};

/// Config metadata describing one experiment, independent of whether the
/// capacity vector is in memory (fresh run) or only its metadata survived
/// (merge of state files). Travels in the `nubb.shard.v2` config block;
/// `nubb_run merge` refuses shard sets whose metas differ.
struct RunMeta {
  std::string experiment;  ///< registry key
  std::uint64_t n = 0;
  std::uint64_t total_capacity = 0;
  std::uint64_t caps_hash = 0;
  std::string policy;
  std::uint64_t choices = 0;
  std::string tie_break;
  std::uint64_t balls = 0;
  std::uint64_t batch = 1;
  std::string stream = "v1";  ///< RNG draw-order stream ("v1" | "v2"); part of
                              ///< every config fingerprint — the two streams'
                              ///< fixed-seed results differ, so shard sets
                              ///< never mix streams. Absent in state files
                              ///< written before stream v2 existed, read back
                              ///< as "v1" (those files *are* v1 streams).
  std::uint64_t replications = 0;
  std::uint64_t seed = 0;
  std::uint64_t chunks = 0;
  std::uint64_t checkpoint = 0;  ///< gap-trace interval (0 elsewhere)
  bool profile = false;
  bool classes = false;
  std::string huge_pages = "auto";  ///< --huge-pages setting ("auto" | "on" |
                                    ///< "off"). Recorded for provenance only:
                                    ///< memory layout never affects results,
                                    ///< so merge compatibility goes through
                                    ///< merge_key(), which resets it — shard
                                    ///< sets may mix settings freely. Absent
                                    ///< in older state files, read as "auto".
  std::string simd = "scalar";  ///< Resolved resolve-stage implementation
                                ///< ("scalar" | "avx2"). Provenance only,
                                ///< like huge_pages: scalar and AVX2 runs
                                ///< are bit-identical, so merge_key() resets
                                ///< it and shard sets may mix freely. Absent
                                ///< in older state files, read as "scalar".

  void to_json(JsonWriter& w) const;
  static RunMeta from_json(const JsonValue& v);
  bool operator==(const RunMeta& other) const = default;

  /// The fields that decide whether two shards belong to the same
  /// experiment: this meta with the result-irrelevant provenance fields
  /// (huge_pages, simd) reset to their defaults. Two shard files are
  /// mergeable iff their merge_key()s compare equal.
  RunMeta merge_key() const {
    RunMeta key = *this;
    key.huge_pages = "auto";
    key.simd = "scalar";
    return key;
  }
};

/// FNV-1a over the capacity vector: a cheap fingerprint so merges can
/// refuse shard files produced from different bin configurations.
std::uint64_t caps_fingerprint(const std::vector<std::uint64_t>& caps);

/// Where a scenario reports its merged result: human tables on `out`, and
/// the scenario's result block(s) of a JSON report when `json` is set
/// (the writer is positioned inside the report object; write complete
/// key/value blocks only).
struct ReportContext {
  const RunMeta& meta;
  std::ostream& out;
  JsonWriter* json = nullptr;
};

/// One named experiment: run a shard, validate a shard state, merge a
/// complete state set and report. Implementations live behind the
/// registry; drivers never name concrete scenario types.
class Scenario {
 public:
  Scenario(std::string name, std::string description)
      : name_(std::move(name)), description_(std::move(description)) {}
  virtual ~Scenario() = default;

  const std::string& name() const noexcept { return name_; }
  const std::string& description() const noexcept { return description_; }

  /// Execute the shard of the replication chunks that
  /// `spec.shard_index / shard_count` owns and write the collector
  /// state `merge_and_report` consumes (the "state" value of a
  /// `nubb.shard.v2` file). Shard 0-of-1 is a full run.
  virtual void run_shard(const ScenarioSpec& spec, JsonWriter& w) const = 0;

  /// Parse-validate one shard's collector state; throws (JsonError or
  /// std::runtime_error) on malformed input. Backs `check-state` resume
  /// probes: a state that passes will load cleanly at merge time.
  virtual void check_state(const JsonValue& state) const = 0;

  /// Merge a complete shard set's collector states (file order is
  /// irrelevant — the fold is by global chunk index) and report the result.
  virtual void merge_and_report(const std::vector<JsonValue>& states,
                                const ReportContext& ctx) const = 0;

  /// Full unsharded run: shard 0-of-1 plus the merge, folded in memory —
  /// the same typed path the sharded run takes, minus the (bit-exact,
  /// test-locked) JSON transport, so large runs skip the serialization
  /// round trip. \pre spec is unsharded.
  virtual void run_and_report(const ScenarioSpec& spec, const ReportContext& ctx) const = 0;

  /// Zero the RunMeta fields this scenario does not consume, so shard sets
  /// that differ only in irrelevant driver flags (e.g. --checkpoint on a
  /// max-load run) still merge and resume. The base version zeroes every
  /// scenario-specific field; scenarios keep the ones they read.
  virtual void normalize_meta(RunMeta& meta) const;

 private:
  std::string name_;
  std::string description_;
};

/// String-keyed scenario registry.
class ScenarioRegistry {
 public:
  /// \throws std::runtime_error on a duplicate name.
  void add(std::unique_ptr<Scenario> scenario);

  /// Null when unknown.
  const Scenario* find(const std::string& name) const noexcept;

  /// \throws std::runtime_error listing the known names when unknown.
  const Scenario& require(const std::string& name) const;

  /// All scenarios, name-sorted.
  std::vector<const Scenario*> list() const;

  /// The process-wide registry, pre-seeded with the built-in scenarios.
  static ScenarioRegistry& global();

 private:
  std::map<std::string, std::unique_ptr<Scenario>> by_name_;
};

}  // namespace nubb
