#include "core/scenario.hpp"

#include <algorithm>
#include <ostream>

#include "theory/bounds.hpp"
#include "util/table.hpp"

namespace nubb {

// ---------------------------------------------------------------------------
// RunMeta
// ---------------------------------------------------------------------------

void RunMeta::to_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("experiment", experiment);
  w.kv("n", n);
  w.kv("total_capacity", total_capacity);
  w.kv("caps_hash", caps_hash);
  w.kv("policy", policy);
  w.kv("choices", choices);
  w.kv("tie_break", tie_break);
  w.kv("balls", balls);
  w.kv("batch", batch);
  w.kv("stream", stream);
  w.kv("replications", replications);
  w.kv("seed", seed);
  w.kv("chunks", chunks);
  w.kv("checkpoint", checkpoint);
  w.kv("profile", profile);
  w.kv("classes", classes);
  w.kv("huge_pages", huge_pages);
  w.kv("simd", simd);
  w.end_object();
}

RunMeta RunMeta::from_json(const JsonValue& v) {
  RunMeta m;
  m.experiment = v.at("experiment").as_string();
  m.n = v.at("n").as_uint64();
  m.total_capacity = v.at("total_capacity").as_uint64();
  m.caps_hash = v.at("caps_hash").as_uint64();
  m.policy = v.at("policy").as_string();
  m.choices = v.at("choices").as_uint64();
  m.tie_break = v.at("tie_break").as_string();
  m.balls = v.at("balls").as_uint64();
  m.batch = v.at("batch").as_uint64();
  // State files written before stream v2 existed carry no "stream" key;
  // they were produced by (what is now called) stream v1.
  const JsonValue* stream = v.find("stream");
  m.stream = stream != nullptr ? stream->as_string() : "v1";
  m.replications = v.at("replications").as_uint64();
  m.seed = v.at("seed").as_uint64();
  m.chunks = v.at("chunks").as_uint64();
  m.checkpoint = v.at("checkpoint").as_uint64();
  m.profile = v.at("profile").as_bool();
  m.classes = v.at("classes").as_bool();
  // Provenance-only field added later; older state files carry no
  // "huge_pages" key and merge as if it were "auto" (merge_key resets it
  // anyway — memory layout never affects results).
  const JsonValue* hp = v.find("huge_pages");
  m.huge_pages = hp != nullptr ? hp->as_string() : "auto";
  // Same deal for the resolve-stage SIMD provenance: scalar and AVX2 runs
  // are bit-identical, so absent reads as "scalar" and merge_key resets it.
  const JsonValue* sd = v.find("simd");
  m.simd = sd != nullptr ? sd->as_string() : "scalar";
  return m;
}

std::uint64_t caps_fingerprint(const std::vector<std::uint64_t>& caps) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint64_t c : caps) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (c >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

void Scenario::normalize_meta(RunMeta& meta) const {
  meta.checkpoint = 0;
  meta.profile = false;
  meta.classes = false;
}

void ScenarioRegistry::add(std::unique_ptr<Scenario> scenario) {
  // Copy, not reference: a failed emplace may have constructed (and then
  // destroyed) the node holding the Scenario, taking its name_ with it.
  const std::string name = scenario->name();
  if (!by_name_.emplace(name, std::move(scenario)).second) {
    throw std::runtime_error("ScenarioRegistry: duplicate scenario name: " + name);
  }
}

const Scenario* ScenarioRegistry::find(const std::string& name) const noexcept {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second.get();
}

const Scenario& ScenarioRegistry::require(const std::string& name) const {
  if (const Scenario* s = find(name)) return *s;
  std::string known;
  for (const auto& [key, scenario] : by_name_) {
    if (!known.empty()) known += ", ";
    known += key;
  }
  throw std::runtime_error("unknown experiment \"" + name + "\" (known: " + known + ")");
}

std::vector<const Scenario*> ScenarioRegistry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(by_name_.size());
  for (const auto& [key, scenario] : by_name_) out.push_back(scenario.get());
  return out;  // by_name_ is an ordered map: already name-sorted
}

// ---------------------------------------------------------------------------
// Built-in scenarios
// ---------------------------------------------------------------------------

namespace {

/// Shared plumbing for scenarios built on one collector type. A concrete
/// scenario supplies only `typed_shard` (one engine pass for this shard)
/// and `report` (present the merged collector); serialization, validation,
/// merging, and the unsharded run are all derived from those, so the full
/// and sharded paths cannot drift.
template <typename C>
class TypedScenario : public Scenario {
 public:
  using Collector = C;
  using Scenario::Scenario;

  void run_shard(const ScenarioSpec& spec, JsonWriter& w) const final {
    typed_shard(spec).to_json(w);
  }

  void check_state(const JsonValue& state) const final {
    (void)ExperimentShard<Collector>::from_json(state);
  }

  void merge_and_report(const std::vector<JsonValue>& states,
                        const ReportContext& ctx) const final {
    std::vector<ExperimentShard<Collector>> shards;
    shards.reserve(states.size());
    for (const JsonValue& s : states) {
      shards.push_back(ExperimentShard<Collector>::from_json(s));
    }
    report(merge_shards(shards), ctx);
  }

  void run_and_report(const ScenarioSpec& spec, const ReportContext& ctx) const final {
    // A sharded spec here would silently report a partial run as the whole.
    NUBB_REQUIRE_MSG(spec.shard_index == 0 && spec.shard_count == 1,
                     "run_and_report needs an unsharded ScenarioSpec; use run_shard and "
                     "merge_and_report");
    report(merge_shards<Collector>({typed_shard(spec)}), ctx);
  }

 protected:
  virtual ExperimentShard<Collector> typed_shard(const ScenarioSpec& spec) const = 0;
  virtual void report(const Collector& merged, const ReportContext& ctx) const = 0;
};

// --- max-load (the historic default run) ------------------------------------

/// One engine pass feeds all three measurements the historic default run
/// offered (distribution, optional profile, optional class fractions) —
/// the games are played once, not once per collector.
using MaxLoadCollectors =
    MultiCollector<SampleCollector, VectorMeanCollector, KeyFrequencyCollector>;

ExperimentShard<MaxLoadCollectors> max_load_scenario_shard(const ScenarioSpec& spec) {
  const GameFixture fixture(spec.capacities, spec.policy, spec.game);
  const bool profile = spec.profile;
  const bool classes = spec.classes;
  return replicate_shard<MaxLoadCollectors>(
      spec.capacities, spec.exp, spec.shard_index, spec.shard_count,
      [&fixture, profile, classes](std::uint64_t, Xoshiro256StarStar& rng,
                                   ReplicationScratch& w, MaxLoadCollectors& local) {
        const GameResult result = fixture.run_one(rng, w.bins);
        local.part<0>().add(result.max_load_value());
        if (profile) {
          sorted_load_profile(w.bins, w.scratch);
          local.part<1>().add(w.scratch);
        }
        if (classes) {
          local.part<2>().add_trial();
          for (const std::uint64_t cap : capacities_attaining_max(w.bins)) {
            local.part<2>().add(cap);
          }
        }
      },
      spec.game.memory);
}

void print_max_load_report(const RunMeta& meta, const Summary& summary,
                           const std::vector<double>& qs, std::ostream& out) {
  TextTable table("nubb_run: n=" + std::to_string(meta.n) +
                  ", C=" + std::to_string(meta.total_capacity) +
                  ", m=" + std::to_string(meta.balls) + ", d=" + std::to_string(meta.choices) +
                  ", policy=" + meta.policy + ", reps=" + std::to_string(meta.replications));
  table.set_header({"metric", "value"});
  table.add_row({"mean max load", TextTable::num(summary.mean)});
  table.add_row({"std error", TextTable::num(summary.std_error, 6)});
  table.add_row({"95% CI half-width", TextTable::num(summary.ci_half_width_95(), 6)});
  table.add_row({"median / q95 / q99",
                 TextTable::num(qs[0]) + " / " + TextTable::num(qs[1]) + " / " +
                     TextTable::num(qs[2])});
  table.add_row({"min / max observed",
                 TextTable::num(summary.min) + " / " + TextTable::num(summary.max)});
  table.add_row({"average load m/C",
                 TextTable::num(static_cast<double>(meta.balls) /
                                static_cast<double>(meta.total_capacity))});
  table.add_row({"Theorem-3 bound (+4)",
                 TextTable::num(bounds::theorem3_bound(
                     static_cast<double>(meta.n),
                     std::max<std::uint32_t>(static_cast<std::uint32_t>(meta.choices), 2),
                     4.0))});
  out << table;
}

void print_profile(const std::vector<double>& profile, std::ostream& out) {
  TextTable pt("mean sorted load profile (rank: load)");
  pt.set_header({"rank", "mean load"});
  const std::size_t stride = std::max<std::size_t>(1, profile.size() / 20);
  for (std::size_t i = 0; i < profile.size(); i += stride) {
    pt.add_row({TextTable::num(static_cast<std::uint64_t>(i)), TextTable::num(profile[i])});
  }
  out << pt;
}

void print_classes(const std::map<std::uint64_t, double>& fractions, std::ostream& out) {
  TextTable ct("capacity class attaining the maximum (fraction of runs)");
  ct.set_header({"capacity", "fraction"});
  for (const auto& [cap, frac] : fractions) {
    ct.add_row({TextTable::num(cap), TextTable::num(frac)});
  }
  out << ct;
}

class MaxLoadScenario final : public TypedScenario<MaxLoadCollectors> {
 public:
  MaxLoadScenario()
      : TypedScenario(
            "max-load",
            "distribution of the final maximum load (mean / quantiles / extremes); "
            "--profile and --classes add the sorted-profile and class-of-max views") {}

  void normalize_meta(RunMeta& meta) const override {
    meta.checkpoint = 0;  // profile / classes stay: this report reads them
  }

 protected:
  ExperimentShard<MaxLoadCollectors> typed_shard(const ScenarioSpec& spec) const override {
    return max_load_scenario_shard(spec);
  }

  void report(const MaxLoadCollectors& merged, const ReportContext& ctx) const override {
    const SampleCollector& sample = merged.part<0>();
    const Summary summary = Summary::from(sample.stats);
    // Median / q95 / q99; zeros for an empty run.
    const std::vector<double> qs = sample.values.empty()
                                       ? std::vector<double>(3, 0.0)
                                       : quantiles(sample.values, {0.50, 0.95, 0.99});

    print_max_load_report(ctx.meta, summary, qs, ctx.out);
    if (ctx.meta.profile) print_profile(merged.part<1>().mean(), ctx.out);
    std::map<std::uint64_t, double> fractions;
    if (ctx.meta.classes) {
      const KeyFrequencyCollector& wins = merged.part<2>();
      for (const auto& [cap, count] : wins.counts()) {
        fractions[cap] = static_cast<double>(count) / static_cast<double>(wins.trials());
      }
      print_classes(fractions, ctx.out);
    }

    if (ctx.json) {
      JsonWriter& j = *ctx.json;
      j.key("max_load");
      j.begin_object();
      j.kv("mean", summary.mean);
      j.kv("std_error", summary.std_error);
      j.kv("median", qs[0]);
      j.kv("q95", qs[1]);
      j.kv("q99", qs[2]);
      j.kv("min", summary.min);
      j.kv("max", summary.max);
      j.end_object();
      if (ctx.meta.profile) {
        j.key("profile");
        j.begin_array();
        for (const double x : merged.part<1>().mean()) j.value(x);
        j.end_array();
      }
      if (ctx.meta.classes) {
        j.key("classes");
        j.begin_array();
        for (const auto& [cap, frac] : fractions) {
          j.begin_object();
          j.kv("capacity", cap);
          j.kv("fraction", frac);
          j.end_object();
        }
        j.end_array();
      }
    }
  }
};

// --- gap-trace ---------------------------------------------------------------

class GapTraceScenario final : public TypedScenario<VectorMeanCollector> {
 public:
  GapTraceScenario()
      : TypedScenario("gap-trace",
                      "mean (max load - average load) after every --checkpoint balls while "
                      "the balls arrive (Figure 16); sequential process only") {}

  void normalize_meta(RunMeta& meta) const override {
    meta.profile = false;  // checkpoint stays: it is this scenario's x-axis
    meta.classes = false;
  }

 protected:
  ExperimentShard<VectorMeanCollector> typed_shard(const ScenarioSpec& spec) const override {
    // GameConfig's "0 means m = C" convention, resolved to the explicit
    // count the checkpointed trace requires.
    std::uint64_t total = spec.game.balls;
    if (total == 0) {
      for (const std::uint64_t c : spec.capacities) total += c;
    }
    return replicate_shard<VectorMeanCollector>(
        spec.capacities, spec.exp, spec.shard_index, spec.shard_count,
        GapTraceBody(spec.capacities, spec.policy, spec.game, total, spec.checkpoint_interval),
        spec.game.memory);
  }

  void report(const VectorMeanCollector& merged, const ReportContext& ctx) const override {
    const std::vector<double> trace = merged.mean();
    TextTable table("mean load gap (max - average) at checkpoints, interval " +
                    std::to_string(ctx.meta.checkpoint));
    table.set_header({"balls", "mean gap"});
    const std::size_t stride = std::max<std::size_t>(1, trace.size() / 20);
    for (std::size_t i = 0; i < trace.size(); i += stride) {
      const std::uint64_t balls =
          std::min<std::uint64_t>((i + 1) * ctx.meta.checkpoint, ctx.meta.balls);
      table.add_row({TextTable::num(balls), TextTable::num(trace[i])});
    }
    ctx.out << table;

    if (ctx.json) {
      JsonWriter& j = *ctx.json;
      j.key("gap_trace");
      j.begin_object();
      j.kv("interval", ctx.meta.checkpoint);
      j.key("mean_gap");
      j.begin_array();
      for (const double g : trace) j.value(g);
      j.end_array();
      j.end_object();
    }
  }
};

// --- class-max-load ----------------------------------------------------------

class ClassMaxLoadScenario final : public TypedScenario<KeyedCollector<ScalarCollector>> {
 public:
  ClassMaxLoadScenario()
      : TypedScenario("class-max-load",
                      "per-capacity-class distribution of that class's own maximum load "
                      "(which classes run hot, beyond who holds the global maximum)") {}

 protected:
  ExperimentShard<KeyedCollector<ScalarCollector>> typed_shard(
      const ScenarioSpec& spec) const override {
    const GameFixture fixture(spec.capacities, spec.policy, spec.game);
    return replicate_shard<KeyedCollector<ScalarCollector>>(
        spec.capacities, spec.exp, spec.shard_index, spec.shard_count,
        [&fixture](std::uint64_t, Xoshiro256StarStar& rng, ReplicationScratch& w,
                   KeyedCollector<ScalarCollector>& local) {
          fixture.run_one(rng, w.bins);
          // The distinct capacity count is tiny (a handful of classes), so
          // a flat map per replication stays cheap.
          std::map<std::uint64_t, double> class_max;
          for (std::size_t i = 0; i < w.bins.size(); ++i) {
            const double v = w.bins.load_value(i);
            auto [it, fresh] = class_max.try_emplace(w.bins.capacity(i), v);
            if (!fresh && v > it->second) it->second = v;
          }
          for (const auto& [cap, value] : class_max) local.per_key[cap].add(value);
        },
        spec.game.memory);
  }

  void report(const KeyedCollector<ScalarCollector>& merged,
              const ReportContext& ctx) const override {
    std::map<std::uint64_t, Summary> by_class;
    for (const auto& [cap, collector] : merged.per_key) {
      by_class[cap] = Summary::from(collector.stats);
    }
    TextTable table("per-class max load over " + std::to_string(ctx.meta.replications) +
                    " replications");
    table.set_header({"capacity", "mean", "std error", "min", "max"});
    for (const auto& [cap, s] : by_class) {
      table.add_row({TextTable::num(cap), TextTable::num(s.mean),
                     TextTable::num(s.std_error, 6), TextTable::num(s.min),
                     TextTable::num(s.max)});
    }
    ctx.out << table;

    if (ctx.json) {
      JsonWriter& j = *ctx.json;
      j.key("class_max_load");
      j.begin_array();
      for (const auto& [cap, s] : by_class) {
        j.begin_object();
        j.kv("capacity", cap);
        j.kv("mean", s.mean);
        j.kv("std_error", s.std_error);
        j.kv("min", s.min);
        j.kv("max", s.max);
        j.end_object();
      }
      j.end_array();
    }
  }
};

// --- hit-every-bin -----------------------------------------------------------

class HitEveryBinScenario final : public TypedScenario<ScalarCollector> {
 public:
  HitEveryBinScenario()
      : TypedScenario("hit-every-bin",
                      "probability that every bin receives at least one ball "
                      "(coverage; raise --balls-factor to watch it approach 1)") {}

 protected:
  ExperimentShard<ScalarCollector> typed_shard(const ScenarioSpec& spec) const override {
    const GameFixture fixture(spec.capacities, spec.policy, spec.game);
    return replicate_shard<ScalarCollector>(
        spec.capacities, spec.exp, spec.shard_index, spec.shard_count,
        [&fixture](std::uint64_t, Xoshiro256StarStar& rng, ReplicationScratch& w,
                   ScalarCollector& local) {
          fixture.run_one(rng, w.bins);
          bool covered = true;
          for (std::size_t i = 0; i < w.bins.size(); ++i) {
            if (w.bins.balls(i) == 0) {
              covered = false;
              break;
            }
          }
          local.add(covered ? 1.0 : 0.0);
        },
        spec.game.memory);
  }

  void report(const ScalarCollector& merged, const ReportContext& ctx) const override {
    const Summary s = Summary::from(merged.stats);
    TextTable table("hit-every-bin probability over " + std::to_string(s.count) +
                    " replications");
    table.set_header({"metric", "value"});
    table.add_row({"P[every bin hit]", TextTable::num(s.mean)});
    table.add_row({"std error", TextTable::num(s.std_error, 6)});
    ctx.out << table;

    if (ctx.json) {
      JsonWriter& j = *ctx.json;
      j.key("hit_every_bin");
      j.begin_object();
      j.kv("probability", s.mean);
      j.kv("std_error", s.std_error);
      j.kv("replications", s.count);
      j.end_object();
    }
  }
};

}  // namespace

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry;
    r->add(std::make_unique<MaxLoadScenario>());
    r->add(std::make_unique<GapTraceScenario>());
    r->add(std::make_unique<ClassMaxLoadScenario>());
    r->add(std::make_unique<HitEveryBinScenario>());
    return r;
  }();
  return *registry;
}

}  // namespace nubb
