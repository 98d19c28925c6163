#pragma once

/// \file experiment.hpp
/// Monte-Carlo replication engine: replicate a game many times with
/// deterministic per-replication seeds, aggregate with mergeable collectors,
/// optionally in parallel — within one process or sharded across many.
///
/// The layer has three pieces:
///
///   * **Collectors** — commutative monoids (`merge`) with bit-exact JSON
///     round trips, so partial results can travel between processes without
///     perturbing merged values. `KeyedCollector` and `MultiCollector`
///     compose any collector per key / into tuples, so one replication pass
///     can feed several measurements at once.
///   * **The engine** — `replicate_shard` runs one per-replication `body`
///     over one shard's slice of the replication chunk layout and packages
///     the per-chunk collector states; `merge_shards` folds a complete
///     shard set in global chunk order, replaying the exact floating-point
///     merge sequence of a single-process run. `replicate` is literally
///     shard 0-of-1 plus the merge, so the sharded path cannot drift from
///     the golden values: a merged N-shard run is bit-identical to the
///     single-process run.
///   * **Runners** — the in-process measurement shapes the paper's
///     evaluation uses, each one `replicate` call with its own body:
///       * scalar statistics of the final maximum load   (Figs 6, 8, 14, 15, 17, 18)
///       * mean sorted load profile                      (Figs 1-5, 10, 11)
///       * mean per-capacity-class sorted profiles       (Figs 12, 13)
///       * which capacity class attains the maximum      (Figs 7, 9)
///       * trace of (max - average) at checkpoints       (Fig 16)
///
/// Runs sharded across processes go through the string-keyed scenario
/// registry of core/scenario.hpp (`nubb_run --experiment`, `--shard`,
/// `merge`), the one sharded-experiment API on top of this engine.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/game.hpp"
#include "core/metrics.hpp"
#include "core/probability.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace nubb {

/// Replication parameters shared by all runners.
struct ExperimentConfig {
  std::uint64_t replications = 1000;
  std::uint64_t base_seed = 0xB1A5ED0ULL;
  ThreadPool* pool = nullptr;  ///< null => global pool

  /// Replication chunk count. 0 keeps the fixed default layout
  /// (kReplicationChunks = 16) that every golden value pins. Machines with
  /// more than 16 workers idle under the default; overriding (e.g. to 4x
  /// the worker count) keeps them busy. Results stay deterministic and
  /// thread-count-invariant for any fixed value, but differ between chunk
  /// counts (the floating-point merge grouping changes), so overrides are
  /// opt-in per experiment.
  std::uint64_t chunks = 0;
};

// ---------------------------------------------------------------------------
// Mergeable collectors (commutative monoids for the replication engine).
//
// Every collector serializes its raw accumulator state with to_json and
// restores it with from_json; the round trip is bit-exact, so collector
// states can travel between processes without perturbing merged results.
// ---------------------------------------------------------------------------

/// Scalar statistic collector.
struct ScalarCollector {
  RunningStats stats;
  void add(double x) { stats.add(x); }
  void merge(const ScalarCollector& other) { stats.merge(other.stats); }
  void to_json(JsonWriter& w) const { stats.to_json(w); }
  static ScalarCollector from_json(const JsonValue& v) {
    return ScalarCollector{RunningStats::from_json(v)};
  }
};

/// Mean of equal-length vectors (sorted profiles, checkpoint traces).
class VectorMeanCollector {
 public:
  void add(const std::vector<double>& v);
  void merge(const VectorMeanCollector& other);
  std::vector<double> mean() const;
  std::uint64_t count() const noexcept { return count_; }

  void to_json(JsonWriter& w) const;
  static VectorMeanCollector from_json(const JsonValue& v);

 private:
  std::vector<double> sum_;
  std::uint64_t count_ = 0;
};

/// Frequency with which each key "wins" across replications.
class KeyFrequencyCollector {
 public:
  /// Record that `key` occurred in this replication.
  void add(std::uint64_t key);
  void add_trial() { ++trials_; }
  void merge(const KeyFrequencyCollector& other);
  /// Fraction of replications in which `key` occurred.
  double fraction(std::uint64_t key) const;
  std::uint64_t trials() const noexcept { return trials_; }
  const std::map<std::uint64_t, std::uint64_t>& counts() const noexcept { return counts_; }

  void to_json(JsonWriter& w) const;
  static KeyFrequencyCollector from_json(const JsonValue& v);

 private:
  std::map<std::uint64_t, std::uint64_t> counts_;
  std::uint64_t trials_ = 0;
};

/// One `Collector` per uint64 key, merged keywise. Keys appear on first
/// `add`-style touch of `per_key[k]`; merging unions the key sets.
template <typename Collector>
struct KeyedCollector {
  std::map<std::uint64_t, Collector> per_key;

  void merge(const KeyedCollector& other) {
    for (const auto& [key, collector] : other.per_key) per_key[key].merge(collector);
  }

  void to_json(JsonWriter& w) const {
    w.begin_object();
    w.key("entries");
    w.begin_array();
    for (const auto& [key, collector] : per_key) {
      w.begin_object();
      w.kv("key", key);
      w.key("state");
      collector.to_json(w);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  static KeyedCollector from_json(const JsonValue& v) {
    KeyedCollector out;
    for (const JsonValue& entry : v.at("entries").as_array()) {
      const std::uint64_t key = entry.at("key").as_uint64();
      if (out.per_key.count(key)) {
        throw JsonError("KeyedCollector: duplicate key " + std::to_string(key));
      }
      out.per_key[key] = Collector::from_json(entry.at("state"));
    }
    return out;
  }
};

/// One VectorMeanCollector per capacity class (mean_class_profiles).
using ClassProfilesCollector = KeyedCollector<VectorMeanCollector>;

/// Running statistics plus the raw sample, for quantile-style
/// post-processing (the max-load scenario's median / q95 / q99).
struct SampleCollector {
  RunningStats stats;
  std::vector<double> values;
  void add(double x) {
    stats.add(x);
    values.push_back(x);
  }
  void merge(const SampleCollector& other);
  void to_json(JsonWriter& w) const;
  static SampleCollector from_json(const JsonValue& v);
};

/// Tuple of collectors fed by one replication pass: a single engine run can
/// measure several quantities at once instead of replaying the games once
/// per collector. Serializes as a JSON array in part order.
template <typename... Parts>
struct MultiCollector {
  std::tuple<Parts...> parts;

  template <std::size_t I>
  auto& part() noexcept {
    return std::get<I>(parts);
  }
  template <std::size_t I>
  const auto& part() const noexcept {
    return std::get<I>(parts);
  }

  void merge(const MultiCollector& other) {
    merge_impl(other, std::index_sequence_for<Parts...>{});
  }

  void to_json(JsonWriter& w) const {
    w.begin_array();
    std::apply([&w](const Parts&... ps) { (ps.to_json(w), ...); }, parts);
    w.end_array();
  }

  static MultiCollector from_json(const JsonValue& v) {
    const std::vector<JsonValue>& items = v.as_array();
    if (items.size() != sizeof...(Parts)) {
      throw JsonError("MultiCollector: expected " + std::to_string(sizeof...(Parts)) +
                      " parts, got " + std::to_string(items.size()));
    }
    MultiCollector out;
    from_json_impl(out, items, std::index_sequence_for<Parts...>{});
    return out;
  }

 private:
  template <std::size_t... Is>
  void merge_impl(const MultiCollector& other, std::index_sequence<Is...>) {
    (std::get<Is>(parts).merge(std::get<Is>(other.parts)), ...);
  }

  template <std::size_t... Is>
  static void from_json_impl(MultiCollector& out, const std::vector<JsonValue>& items,
                             std::index_sequence<Is...>) {
    ((std::get<Is>(out.parts) =
          std::tuple_element_t<Is, std::tuple<Parts...>>::from_json(items[Is])),
     ...);
  }
};

// ---------------------------------------------------------------------------
// Shard state: partial results that merge bit-exactly.
// ---------------------------------------------------------------------------

/// Partial result of one shard of a replicated experiment: the collector
/// state of every replication chunk the shard owns, keyed by global chunk
/// index. Chunks are kept separate rather than pre-merged — that is what
/// makes the merge exact: `merge_shards` folds all chunks in global chunk
/// order, replaying the precise floating-point merge sequence of the
/// single-process run.
template <typename Collector>
struct ExperimentShard {
  std::uint64_t replications = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t chunk_count = 0;  ///< resolved layout (non-empty chunks)
  std::vector<std::pair<std::uint64_t, Collector>> chunks;

  void to_json(JsonWriter& w) const {
    w.begin_object();
    w.kv("replications", replications);
    w.kv("base_seed", base_seed);
    w.kv("chunk_count", chunk_count);
    w.key("chunks");
    w.begin_array();
    for (const auto& [index, state] : chunks) {
      w.begin_object();
      w.kv("index", index);
      w.key("state");
      state.to_json(w);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  static ExperimentShard from_json(const JsonValue& v) {
    ExperimentShard shard;
    shard.replications = v.at("replications").as_uint64();
    shard.base_seed = v.at("base_seed").as_uint64();
    shard.chunk_count = v.at("chunk_count").as_uint64();
    for (const JsonValue& entry : v.at("chunks").as_array()) {
      shard.chunks.emplace_back(entry.at("index").as_uint64(),
                                Collector::from_json(entry.at("state")));
    }
    return shard;
  }
};

/// Fold shard partials in global chunk order into one collector,
/// bit-identical to the single-process fold. Validates that the shards
/// describe the same experiment (replications / seed / chunk layout) and
/// together cover every chunk exactly once; throws std::runtime_error
/// otherwise (shard files are external input, not caller code).
template <typename Collector>
Collector merge_shards(const std::vector<ExperimentShard<Collector>>& shards) {
  if (shards.empty()) throw std::runtime_error("merge_shards: no shards given");
  const ExperimentShard<Collector>& head = shards.front();
  // chunk_count counts non-empty chunks, so a complete shard set carries
  // exactly chunk_count chunk entries; bounding by what was actually
  // parsed keeps a corrupt state file a clean error instead of a huge
  // allocation sized from an untrusted field.
  std::size_t total_entries = 0;
  for (const auto& shard : shards) total_entries += shard.chunks.size();
  if (head.chunk_count > total_entries) {
    throw std::runtime_error(
        "merge_shards: shard set carries fewer chunks than the layout requires "
        "(incomplete or corrupt state)");
  }
  std::vector<const Collector*> by_chunk(head.chunk_count, nullptr);
  for (const auto& shard : shards) {
    if (shard.replications != head.replications || shard.base_seed != head.base_seed ||
        shard.chunk_count != head.chunk_count) {
      throw std::runtime_error("merge_shards: shards describe different experiments");
    }
    for (const auto& [index, state] : shard.chunks) {
      if (index >= head.chunk_count) {
        throw std::runtime_error("merge_shards: chunk index out of range");
      }
      if (by_chunk[index]) {
        throw std::runtime_error("merge_shards: chunk " + std::to_string(index) +
                                 " appears in more than one shard");
      }
      by_chunk[index] = &state;
    }
  }
  Collector out;
  for (std::uint64_t c = 0; c < head.chunk_count; ++c) {
    if (!by_chunk[c]) {
      throw std::runtime_error("merge_shards: chunk " + std::to_string(c) +
                               " is missing (incomplete shard set)");
    }
    out.merge(*by_chunk[c]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The replication engine.
// ---------------------------------------------------------------------------

/// Shared per-experiment fixture: the sampler is immutable and thread-safe,
/// so it is built once and shared across replications. `run_one` plays one
/// complete game on a cleared bin array, dispatching to the batched
/// (stale-information) process when `GameConfig::batch > 1`.
class GameFixture {
 public:
  GameFixture(const std::vector<std::uint64_t>& capacities, const SelectionPolicy& policy,
              const GameConfig& game)
      : sampler_(BinSampler::from_policy(policy, capacities, game.memory)), game_(game) {}

  GameResult run_one(Xoshiro256StarStar& rng, BinArray& bins) const;

  const BinSampler& sampler() const noexcept { return sampler_; }
  const GameConfig& game() const noexcept { return game_; }

 private:
  BinSampler sampler_;
  GameConfig game_;
};

/// Per-worker scratch state: one BinArray (cleared, not reallocated, between
/// replications) plus a staging buffer for profiles and traces. Built once
/// per chunk by the engine — on the worker thread that will run the chunk,
/// so the slot pages are first-touched NUMA-local to their worker (see
/// replication_chunk_states) — and never migrates between chunks.
struct ReplicationScratch {
  BinArray bins;
  std::vector<double> scratch;

  explicit ReplicationScratch(const std::vector<std::uint64_t>& capacities,
                              const MemoryConfig& mem = {})
      : bins(capacities, mem) {}
};

/// One engine pass: execute shard `shard_index` of `shard_count` of the
/// replication chunk layout (a contiguous slice that never depends on the
/// shard split) and package the per-chunk collector states.
/// `body(rep, rng, scratch, collector)` performs one replication; shard
/// 0-of-1 runs everything. Every runner and scenario is a `body` plus a
/// finalizer over the merged collector — nothing else re-implements
/// collection or merging.
template <typename Collector, typename Body>
ExperimentShard<Collector> replicate_shard(const std::vector<std::uint64_t>& capacities,
                                           const ExperimentConfig& exp,
                                           std::uint64_t shard_index, std::uint64_t shard_count,
                                           Body body, const MemoryConfig& mem = {}) {
  NUBB_REQUIRE_MSG(shard_count >= 1, "replicate_shard: shard_count must be >= 1");
  NUBB_REQUIRE_MSG(shard_index < shard_count, "replicate_shard: shard_index out of range");
  const ChunkLayout layout = make_chunk_layout(exp.replications, exp.chunks);
  const auto [first, last] = shard_chunk_range(layout.chunk_count, shard_index, shard_count);

  ExperimentShard<Collector> shard;
  shard.replications = exp.replications;
  shard.base_seed = exp.base_seed;
  shard.chunk_count = layout.chunk_count;
  shard.chunks = replication_chunk_states<Collector>(
      layout, exp.base_seed,
      [&capacities, &mem] { return ReplicationScratch(capacities, mem); }, std::move(body),
      first, last, exp.pool);
  return shard;
}

/// Full-result engine pass: shard 0-of-1 plus the merge, the single code
/// path that keeps sharded and plain runs bit-identical by construction.
template <typename Collector, typename Body>
Collector replicate(const std::vector<std::uint64_t>& capacities, const ExperimentConfig& exp,
                    Body body, const MemoryConfig& mem = {}) {
  return merge_shards<Collector>(
      {replicate_shard<Collector>(capacities, exp, 0, 1, std::move(body), mem)});
}

// ---------------------------------------------------------------------------
// Runners: full in-process results, each one `replicate` call. All honour
// GameConfig::batch except mean_gap_trace (checkpoints require the
// sequential process).
// ---------------------------------------------------------------------------

/// Statistics of the final maximum load over replications.
Summary max_load_summary(const std::vector<std::uint64_t>& capacities,
                         const SelectionPolicy& policy, const GameConfig& game,
                         const ExperimentConfig& exp);

/// Mean sorted (descending) load profile over replications.
std::vector<double> mean_sorted_profile(const std::vector<std::uint64_t>& capacities,
                                        const SelectionPolicy& policy, const GameConfig& game,
                                        const ExperimentConfig& exp);

/// Mean sorted profile per capacity class (key = capacity value).
std::map<std::uint64_t, std::vector<double>> mean_class_profiles(
    const std::vector<std::uint64_t>& capacities, const SelectionPolicy& policy,
    const GameConfig& game, const ExperimentConfig& exp);

/// For each capacity class, the fraction of replications in which a bin of
/// that class attains the exact maximum load (ties count for every class
/// attaining the maximum, as in Figures 7 and 9).
std::map<std::uint64_t, double> class_of_max_fractions(
    const std::vector<std::uint64_t>& capacities, const SelectionPolicy& policy,
    const GameConfig& game, const ExperimentConfig& exp);

/// Per-replication body of the gap trace (Figure 16), shared by
/// mean_gap_trace and the gap-trace scenario: throw `total_balls` balls and
/// record (max load - average load) after every `checkpoint_interval` of
/// them, a trace of ceil(total_balls / checkpoint_interval) entries.
class GapTraceBody {
 public:
  /// \pre checkpoint_interval > 0, total_balls > 0 and game.batch <= 1
  /// (the batched process has no checkpoints).
  GapTraceBody(const std::vector<std::uint64_t>& capacities, const SelectionPolicy& policy,
               const GameConfig& game, std::uint64_t total_balls,
               std::uint64_t checkpoint_interval);

  void operator()(std::uint64_t rep, Xoshiro256StarStar& rng, ReplicationScratch& w,
                  VectorMeanCollector& local) const;

 private:
  GameFixture fixture_;
  std::uint64_t total_balls_;
  std::uint64_t checkpoint_interval_;
};

/// Mean gap trace over replications (see GapTraceBody).
std::vector<double> mean_gap_trace(const std::vector<std::uint64_t>& capacities,
                                   const SelectionPolicy& policy, const GameConfig& game,
                                   std::uint64_t total_balls, std::uint64_t checkpoint_interval,
                                   const ExperimentConfig& exp);

}  // namespace nubb
