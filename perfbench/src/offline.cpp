/// Offline workloads: the `max-load` scenario through the registry, the
/// path `nubb_run` takes, on one pinned worker.
///
///   fig6_mc     500 bins of capacity 1 + 500 of capacity 10, m = C, d = 2.
///               The hot state (~28 KiB of slots and alias arrays) sits in
///               L1/L2, so the kernel's fused AVX2 d2 fill+resolve loop,
///               the scalar alias draws used at n <= 2048 and the engine's
///               per-replication overhead do nearly all the work; the
///               memory layer and net/ do nothing.
///   bins16m_d3  8M bins of capacity 1 + 8M of capacity 10, m = n, d = 3.
///               Slots (244 MiB) plus alias arrays (183 MiB) are ~4x the
///               105 MiB L3: DRAM misses, prefetch and huge pages, the
///               alias build and each chunk's fresh BinArray dominate, and
///               the kernel takes the paths fig6_mc never does (group-of-4
///               d3 resolve, vector alias fill above n = 2048).

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "common.hpp"
#include "core/builder.hpp"
#include "core/placement_kernel.hpp"
#include "core/scenario.hpp"
#include "diagnostics.hpp"
#include "probe.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using nubb::BinArray;
using nubb::BinSampler;
using nubb::GameConfig;
using nubb::PlacementKernel;
using nubb::Xoshiro256StarStar;

/// Fixed-seed max-load report (the scenario's JSON block) pinned per
/// benchmark seed; identical under SIMD auto, on and off because stream v2
/// is a documented draw-order contract and AVX2 is bit-identical to scalar.
struct Pinned {
  std::uint64_t seed;
  const char* report;
  std::uint64_t state_fingerprint;  ///< fold of every replication's final slots
};

struct OfflineWorkload {
  const char* name;
  std::size_t small_bins;  ///< bins of capacity 1
  std::size_t big_bins;    ///< bins of capacity 10
  std::uint32_t d;
  bool m_is_n;                   ///< m = n per replication (else m = C)
  std::uint64_t replications;    ///< per timed run_and_report call
  std::size_t setup_group;       ///< set-ups between two calibration runs
  std::size_t setup_groups;
  std::size_t probe_burst;       ///< place_one calls per latency sample
  bool probe_with_trials;        ///< probe slices alternate with the trials; else
                                 ///< the probe runs on every set-up's state
  double probe_slice_ms;         ///< per request size and slice
  std::size_t min_trials;
  std::size_t kernel_games;      ///< games of the traced kernel pass
  std::size_t replay_games;      ///< games of the diagnostic replay
  std::size_t overhead_pairs;    ///< traced/untraced engine-pass pairs
  CalibKind calib;
  double band;                   ///< relative band around the pinned mean
  std::vector<Pinned> pinned;
};

// At m = n every bin of either class ends at load <= 1 on these seeds.
constexpr const char* kBins16mReport =
    R"({"max_load":{"mean":1,"std_error":0,"median":1,"q95":1,"q99":1,"min":1,"max":1}})";

/// Share of --seconds the probe takes on top of the trials, split over the
/// set-ups, where it does not alternate with the trials.
constexpr double kProbeShare = 0.4;

const OfflineWorkload& workload_by_name(const std::string& name) {
  static const OfflineWorkload kFig6{
      .name = "fig6_mc",
      .small_bins = 500,
      .big_bins = 500,
      .d = 2,
      .m_is_n = false,
      .replications = 512,
      .setup_group = 25,
      .setup_groups = 9,
      .probe_burst = 16,
      .probe_with_trials = true,
      .probe_slice_ms = 5.0,
      .min_trials = 5,
      .kernel_games = 256,
      .replay_games = 64,
      .overhead_pairs = 9,
      .calib = CalibKind::kCache,
      .band = 0.05,
      .pinned = {{1,
                  R"({"max_load":{"mean":1.5468750000000002,"std_error":0.014663415267569752,)"
                  R"("median":1.3,"q95":2,"q99":2,"min":1.2,"max":2}})",
                  5955226658071186493ULL},
                 {2,
                  R"({"max_load":{"mean":1.5332031250000004,"std_error":0.01435261419489371,)"
                  R"("median":1.3,"q95":2,"q99":2,"min":1.2,"max":2}})",
                  2389259215236305257ULL},
                 {3,
                  R"({"max_load":{"mean":1.5242187500000002,"std_error":0.014345174471687868,)"
                  R"("median":1.3,"q95":2,"q99":2,"min":1.2,"max":2}})",
                  13098480611323937369ULL}},
  };
  static const OfflineWorkload kBins16m{
      .name = "bins16m_d3",
      .small_bins = 8u << 20,
      .big_bins = 8u << 20,
      .d = 3,
      .m_is_n = true,
      .replications = 1,
      .setup_group = 1,
      .setup_groups = 5,
      .probe_burst = 16,
      .probe_with_trials = false,
      .probe_slice_ms = 50.0,
      .min_trials = 3,
      .kernel_games = 1,
      .replay_games = 1,
      .overhead_pairs = 1,
      .calib = CalibKind::kDram,
      .band = 0.5,
      .pinned = {{1, kBins16mReport, 12584000633481653618ULL},
                 {2, kBins16mReport, 9537928869474486796ULL},
                 {3, kBins16mReport, 12884923127422079206ULL}},
  };
  if (name == kFig6.name) return kFig6;
  if (name == kBins16m.name) return kBins16m;
  throw std::runtime_error("unknown offline workload " + name);
}

/// The generated input: the workload's capacity multiset in a seed-shuffled
/// bin order (Fisher-Yates on the library generator, so the order is the
/// same on every platform).
std::vector<std::uint64_t> make_capacities(const OfflineWorkload& w, std::uint64_t seed) {
  std::vector<std::uint64_t> caps =
      nubb::from_classes({{w.small_bins, 1}, {w.big_bins, 10}});
  Xoshiro256StarStar rng(seed);
  for (std::size_t i = caps.size() - 1; i > 0; --i) {
    std::swap(caps[i], caps[static_cast<std::size_t>(rng.bounded(i + 1))]);
  }
  return caps;
}

/// Everything one game needs beyond the kernel.
struct GameState {
  std::optional<BinSampler> sampler;
  std::optional<BinArray> bins;
};

struct SetupTimes {
  double sampler_s = 0.0;
  double bin_array_s = 0.0;
  double total_s = 0.0;  ///< sampler + bin array + kernel construction
};

/// One set-up as a user of the library pays it: sampler, bin array and
/// kernel for the workload's capacities. The kernel is discarded (kernels
/// are built per game); its provenance is copied out.
std::unique_ptr<GameState> build_state(const nubb::ScenarioSpec& spec, std::uint64_t m,
                                       SetupTimes& t, nubb::SimdImpl& simd, bool& fast64,
                                       Tracer* tracer) {
  auto st = std::make_unique<GameState>();
  const std::uint64_t t0 = now_ns();
  {
    Span s(tracer, "core/sampler:from_policy");
    st->sampler.emplace(BinSampler::from_policy(spec.policy, spec.capacities, spec.game.memory));
  }
  const std::uint64_t t1 = now_ns();
  {
    Span s(tracer, "core/bin_array:ctor");
    st->bins.emplace(spec.capacities, spec.game.memory);
  }
  const std::uint64_t t2 = now_ns();
  {
    Span s(tracer, "core/placement_kernel:ctor");
    const PlacementKernel kernel(*st->bins, *st->sampler, spec.game, m);
    simd = kernel.simd_impl();
    fast64 = kernel.uses_fast64_path();
  }
  const std::uint64_t t3 = now_ns();
  t.sampler_s = static_cast<double>(t1 - t0) * 1e-9;
  t.bin_array_s = static_cast<double>(t2 - t1) * 1e-9;
  t.total_s = static_cast<double>(t3 - t0) * 1e-9;
  return st;
}

/// Report block the max-load scenario writes for `spec` (the "max_load"
/// object), as compact JSON text.
struct TrialReport {
  std::string json;
  double mean = 0.0;
};

TrialReport run_report(const nubb::Scenario& scenario, const nubb::ScenarioSpec& spec,
                       const nubb::RunMeta& meta) {
  std::ostringstream text;
  std::ostringstream json;
  nubb::JsonWriter writer(json);
  writer.begin_object();
  scenario.run_and_report(spec, nubb::ReportContext{meta, text, &writer});
  writer.end_object();
  TrialReport r;
  r.json = json.str();
  r.mean = nubb::JsonValue::parse(r.json).at("max_load").at("mean").as_double();
  return r;
}

/// The engine pass: the max-load body, mirrored, over the scenario's chunk
/// layout through `replication_chunk_states` with the benchmark's own
/// make_context. Checks every replication placed m balls and returns the
/// merged summary (bit-identical to the scenario's by construction).
struct EngineOutcome {
  nubb::Summary summary;
  std::uint64_t replications = 0;
  std::uint64_t bad_replications = 0;
  std::uint64_t state_fingerprint = 0;  ///< FNV-1a fold of the per-replication fingerprints
  double seconds = 0.0;
};

EngineOutcome engine_pass(const nubb::ScenarioSpec& spec, std::uint64_t m, Tracer* tracer) {
  const std::uint64_t t0 = now_ns();
  Span root(tracer, "core/experiment:engine_pass");
  std::optional<nubb::GameFixture> fixture;
  {
    Span s(tracer, "core/experiment:fixture");
    fixture.emplace(spec.capacities, spec.policy, spec.game);
  }
  const nubb::ChunkLayout layout = nubb::make_chunk_layout(spec.exp.replications, spec.exp.chunks);
  std::uint64_t bad = 0;  // written by the worker, read after its futures
  std::vector<std::uint64_t> fingerprints(spec.exp.replications, 0);
  const auto states = nubb::replication_chunk_states<nubb::SampleCollector>(
      layout, spec.exp.base_seed,
      [&spec, tracer] {
        Span s(tracer, "core/experiment:scratch");
        return nubb::ReplicationScratch(spec.capacities, spec.game.memory);
      },
      [&fixture, &bad, &fingerprints, m, tracer](std::uint64_t rep, Xoshiro256StarStar& rng,
                                                 nubb::ReplicationScratch& w,
                                                 nubb::SampleCollector& local) {
        nubb::GameResult result;
        {
          Span s(tracer, "core/experiment:run_one", rep);
          result = fixture->run_one(rng, w.bins);
        }
        if (result.balls_thrown != m || w.bins.total_balls() != m) ++bad;
        fingerprints[rep] = w.bins.fingerprint();
        local.add(result.max_load_value());
      },
      0, layout.chunk_count, spec.exp.pool);
  nubb::SampleCollector merged;
  for (const auto& [index, state] : states) merged.merge(state);
  EngineOutcome out;
  out.summary = nubb::Summary::from(merged.stats);
  out.replications = merged.stats.count();
  out.bad_replications = bad;
  std::uint64_t h = nubb::detail::kFingerprintBasis;
  for (const std::uint64_t fp : fingerprints) h = (h ^ fp) * 0x100000001B3ULL;
  out.state_fingerprint = h;
  out.seconds = seconds_since(t0);
  return out;
}

/// A fixed-capacity uniform sample of a run's gated samples (reservoir
/// sampling), filled with zeros up front and small next to the workload's
/// state, so the probe's memory never moves the peak RSS.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed) : pool_(capacity), rng_(seed) {}
  void add(const GatedSample& s) {
    ++seen_;
    if (size_ < pool_.size()) {
      pool_[size_++] = s;
      return;
    }
    const std::uint64_t j = rng_.bounded(seen_);
    if (j < pool_.size()) pool_[j] = s;
  }
  const GatedSample* data() const noexcept { return pool_.data(); }
  std::size_t size() const noexcept { return size_; }
  std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::vector<GatedSample> pool_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  Xoshiro256StarStar rng_;
};

/// In-process latency of the two placement requests the daemon serves, made
/// directly on a kernel: one ball (`place_one`, timed in bursts) and a
/// 1024-ball `run`. Every burst and run is timed between two speed-gate
/// chunks, and the quantiles are taken over those run at full speed. Games
/// restart (clear + fresh kernel) when the next request would pass the
/// horizon m.
class LatencyProbe {
 public:
  LatencyProbe(GameState& st, const GameConfig& game, std::uint64_t m, std::size_t burst,
               std::uint64_t seed, SpeedGate gate)
      : st_(st), game_(game), m_(m), burst_(burst), rng_(seed), gate_(std::move(gate)),
        place_(1u << 16, seed + 1), batch_(1u << 14, seed + 2) {
    fresh_game();
  }

  /// One slice: `place_ns` of place_one bursts, then `batch_ns` of run(1024)
  /// calls.
  void slice(std::uint64_t place_ns, std::uint64_t batch_ns) {
    gate_.open();
    const std::uint64_t place_end = now_ns() + place_ns;
    while (now_ns() < place_end) {
      if (kernel_->placed_balls() + burst_ > m_) fresh_game();
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < burst_; ++i) kernel_->place_one(rng_);
      place_.add(gate_.sample(static_cast<double>(now_ns() - t0) * 1e-3 /
                              static_cast<double>(burst_)));
    }
    const std::uint64_t batch_end = now_ns() + batch_ns;
    while (now_ns() < batch_end) {
      if (kernel_->placed_balls() + kBatch > m_) fresh_game();
      const std::uint64_t t0 = now_ns();
      kernel_->run(kBatch, rng_);
      batch_.add(gate_.sample(static_cast<double>(now_ns() - t0) * 1e-3));
    }
  }

  std::vector<double> place_us() const { return gate_.kept(place_.data(), place_.size()); }
  std::vector<double> batch_us() const { return gate_.kept(batch_.data(), batch_.size()); }
  std::uint64_t place_samples() const noexcept { return place_.seen(); }
  std::uint64_t batch_samples() const noexcept { return batch_.seen(); }

 private:
  static constexpr std::uint64_t kBatch = 1024;

  /// A restart is not part of any sample: the gate reopens after it.
  void fresh_game() {
    kernel_.reset();
    st_.bins->clear();
    kernel_.emplace(*st_.bins, *st_.sampler, game_, m_);
    gate_.open();
  }

  GameState& st_;
  GameConfig game_;
  std::uint64_t m_;
  std::size_t burst_;
  Xoshiro256StarStar rng_;
  std::optional<PlacementKernel> kernel_;
  SpeedGate gate_;
  Reservoir place_;
  Reservoir batch_;
};

struct ProbeStats {
  double place_p50 = 0.0;
  double place_p90 = 0.0;
  double place_p99 = 0.0;
  double batch_p50 = 0.0;
  std::uint64_t place_samples = 0;
  std::uint64_t batch_samples = 0;
  std::size_t place_kept = 0;
  std::size_t batch_kept = 0;

  static ProbeStats of(const LatencyProbe& p) {
    std::vector<double> place = p.place_us();
    std::vector<double> batch = p.batch_us();
    std::sort(place.begin(), place.end());
    return {quantile_sorted(place, 0.5), quantile_sorted(place, 0.9),
            quantile_sorted(place, 0.99), quantile(batch, 0.5),
            p.place_samples(), p.batch_samples(),
            place.size(), batch.size()};
  }
};

/// The probe's speed gate shares the workload's bottleneck: where
/// placements miss L3, a compute chunk plus a DRAM walk over the slot array
/// itself (the same pages, so the walk disturbs no cache or TLB state the
/// placements would not); a compute chunk alone otherwise.
SpeedGate gate_for(const OfflineWorkload& w, const GameState& st) {
  if (w.calib != CalibKind::kDram) return SpeedGate();
  std::size_t words = 1;
  while (words * 2 * sizeof(std::uint64_t) <= st.bins->size() * sizeof(nubb::BinSlot)) words *= 2;
  return SpeedGate(reinterpret_cast<const std::uint64_t*>(st.bins->slot_data()), words);
}

/// The probe on one set-up's state for `seconds`.
ProbeStats probe_state(const OfflineWorkload& w, GameState& st, const GameConfig& game,
                       std::uint64_t m, std::uint64_t seed, double seconds) {
  LatencyProbe probe(st, game, m, w.probe_burst, seed, gate_for(w, st));
  const auto slice_ns = static_cast<std::uint64_t>(w.probe_slice_ms * 1e6);
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < end) probe.slice(slice_ns, slice_ns);
  return ProbeStats::of(probe);
}

/// Each quantile's lowest value over the probed states. How fast a large
/// random-access state is depends on the physical pages it was given: over
/// 16M bins, one state in three placed single balls ~60% slower than the
/// next, though all were fully THP-backed in the guest. The best state
/// measures the program, not that draw.
ProbeStats lowest(const std::vector<ProbeStats>& states) {
  ProbeStats out = states.front();
  for (const ProbeStats& p : states) {
    out.place_p50 = std::min(out.place_p50, p.place_p50);
    out.place_p90 = std::min(out.place_p90, p.place_p90);
    out.place_p99 = std::min(out.place_p99, p.place_p99);
    out.batch_p50 = std::min(out.batch_p50, p.batch_p50);
  }
  out.place_samples = out.batch_samples = out.place_kept = out.batch_kept = 0;
  for (const ProbeStats& p : states) {
    out.place_samples += p.place_samples;
    out.batch_samples += p.batch_samples;
    out.place_kept += p.place_kept;
    out.batch_kept += p.batch_kept;
  }
  return out;
}

/// The traced run's kernel pass on the set-up's state: SIMD-auto and
/// scalar games on the replications' seeds, then the scalar replay of the
/// first ones, whose final slots must equal both kernels'.
struct KernelPass {
  std::vector<double> kernel_ns;  ///< per ball, SIMD auto
  std::vector<double> scalar_ns;  ///< per ball, SIMD off
  std::vector<double> clear_us;
  ReplayResult timed{};  ///< stage times of the bare replay
  ReplayResult diag{};   ///< counts of the diagnostic replay
  std::uint64_t mismatches = 0;
};

KernelPass kernel_pass(const OfflineWorkload& w, const nubb::ScenarioSpec& spec, std::uint64_t m,
                       GameState& state, Tracer* tracer) {
  KernelPass out;
  std::vector<std::uint64_t> kernel_fp;
  std::vector<std::uint64_t> scalar_fp;
  GameConfig scalar_game = spec.game;
  scalar_game.simd = nubb::SimdMode::kOff;
  for (std::size_t g = 0; g < w.kernel_games; ++g) {
    const std::uint64_t seed = nubb::seed_for_replication(spec.exp.base_seed, g);
    for (int pass = 0; pass < 2; ++pass) {
      std::uint64_t t0 = now_ns();
      {
        Span s(tracer, "core/bin_array:clear");
        state.bins->clear();
      }
      out.clear_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      PlacementKernel kernel(*state.bins, *state.sampler, pass == 0 ? spec.game : scalar_game, m);
      Xoshiro256StarStar rng(seed);
      t0 = now_ns();
      {
        Span s(tracer,
               pass == 0 ? "core/placement_kernel:run" : "core/placement_kernel:run_scalar", g);
        kernel.run(m, rng);
      }
      const double ns = static_cast<double>(now_ns() - t0) / static_cast<double>(m);
      (pass == 0 ? out.kernel_ns : out.scalar_ns).push_back(ns);
      (pass == 0 ? kernel_fp : scalar_fp).push_back(state.bins->fingerprint());
    }
  }
  for (std::size_t g = 0; g < w.replay_games; ++g) {
    const std::uint64_t seed = nubb::seed_for_replication(spec.exp.base_seed, g);
    ReplayResult t;
    {
      Span s(tracer, "core/placement_resolve:replay_stages", g);
      t = replay_game(*state.sampler, spec.capacities, spec.game, m, seed, false);
    }
    const ReplayResult dg = replay_game(*state.sampler, spec.capacities, spec.game, m, seed, true);
    const bool same = t.fingerprint == kernel_fp[g] && dg.fingerprint == kernel_fp[g] &&
                      scalar_fp[g] == kernel_fp[g] && dg.draws_match;
    out.mismatches += same ? 0 : 1;
    out.timed.add(t);
    out.diag.add(dg);
  }
  return out;
}

/// Chunk wall times from the traced engine passes: each chunk runs from its
/// scratch build to its last replication (one worker runs the chunks in
/// order, so spans arrive chunk by chunk).
std::vector<double> chunk_seconds(const Tracer& tracer) {
  std::vector<double> chunk_s;
  std::uint64_t chunk_start = 0;
  std::uint64_t last_end = 0;
  auto close_chunk = [&] {
    if (chunk_start != 0 && last_end > chunk_start) {
      chunk_s.push_back(static_cast<double>(last_end - chunk_start) * 1e-9);
    }
    chunk_start = 0;
  };
  for (const SpanRecord& s : tracer.spans()) {
    const std::string name = s.name;
    if (name == "core/experiment:engine_pass") close_chunk();
    if (name == "core/experiment:scratch") {
      close_chunk();
      chunk_start = s.start_ns;
    }
    if (name == "core/experiment:run_one") last_end = s.end_ns;
  }
  close_chunk();
  return chunk_s;
}

/// Registry shard run plus merge and report, as a sharded nubb_run pays
/// them.
struct ShardPass {
  double run_shard_s = 0.0;
  double merge_report_s = 0.0;
  std::size_t state_bytes = 0;
};

ShardPass shard_pass(const nubb::Scenario& scenario, const nubb::ScenarioSpec& spec,
                     const nubb::RunMeta& meta, Tracer* tracer) {
  ShardPass out;
  std::ostringstream state_json;
  nubb::JsonWriter writer(state_json);
  const std::uint64_t t0 = now_ns();
  {
    Span s(tracer, "core/scenario:run_shard");
    scenario.run_shard(spec, writer);
  }
  out.run_shard_s = seconds_since(t0);
  out.state_bytes = state_json.str().size();
  std::ostringstream text;
  const std::uint64_t t1 = now_ns();
  {
    Span s(tracer, "core/scenario:merge_and_report");
    scenario.merge_and_report({nubb::JsonValue::parse(state_json.str())},
                              nubb::ReportContext{meta, text, nullptr});
  }
  out.merge_report_s = seconds_since(t1);
  return out;
}

nubb::RunMeta make_meta(const nubb::ScenarioSpec& spec, std::uint64_t m) {
  nubb::RunMeta meta;
  meta.experiment = "max-load";
  meta.n = spec.capacities.size();
  for (const std::uint64_t c : spec.capacities) meta.total_capacity += c;
  meta.policy = "proportional";
  meta.choices = spec.game.choices;
  meta.tie_break = "capacity";
  meta.balls = m;
  meta.stream = "v2";
  meta.replications = spec.exp.replications;
  meta.seed = spec.exp.base_seed;
  return meta;
}

}  // namespace

void run_offline(const Options& opt, Result& result) {
  const OfflineWorkload& w = workload_by_name(opt.workload);
  const int cpu = pin_to_fastest_cpu(allowed_cpus());
  Calibrator calib(w.calib);
  for (int i = 0; i < 3; ++i) calib.run();  // warm-up

  std::uint64_t seed_state = opt.seed;
  const std::uint64_t caps_seed = splitmix64(seed_state);
  const std::uint64_t exp_seed = splitmix64(seed_state);
  const std::uint64_t probe_seed = splitmix64(seed_state);

  nubb::ThreadPool pool(1);  // inherits the pin: kernel and calibration share a vCPU
  nubb::ScenarioSpec spec;
  spec.capacities = make_capacities(w, caps_seed);
  spec.policy = nubb::SelectionPolicy::proportional_to_capacity();
  spec.game.choices = w.d;
  spec.game.tie_break = nubb::TieBreak::kPreferLargerCapacity;
  spec.game.stream = nubb::RngStream::kV2;
  spec.game.simd = nubb::SimdMode::kAuto;
  spec.game.balls = w.m_is_n ? spec.capacities.size() : 0;
  spec.exp.replications = w.replications;
  spec.exp.base_seed = exp_seed;
  spec.exp.pool = &pool;
  std::uint64_t total_capacity = 0;
  for (const std::uint64_t c : spec.capacities) total_capacity += c;
  const std::uint64_t m = w.m_is_n ? spec.capacities.size() : total_capacity;
  const nubb::RunMeta meta = make_meta(spec, m);

  std::unique_ptr<Tracer> tracer_owner = opt.trace ? std::make_unique<Tracer>() : nullptr;
  Tracer* tracer = tracer_owner.get();

  // --- set-up: sampler + bin array + kernel, calibrated ------------------
  std::vector<double> setup_norm;
  std::vector<SetupTimes> setups;
  nubb::SimdImpl simd = nubb::SimdImpl::kScalar;
  bool fast64 = false;
  std::unique_ptr<GameState> state;
  Calibrator setup_calib(CalibKind::kSetup);
  setup_calib.run();  // warm-up
  std::vector<ProbeStats> state_probes;  // one per set-up, without probe_with_trials
  for (std::size_t g = 0; g < w.setup_groups; ++g) {
    const double before = setup_calib.run();
    std::vector<double> raw;
    for (std::size_t i = 0; i < w.setup_group; ++i) {
      state.reset();
      SetupTimes t;
      state = build_state(spec, m, t, simd, fast64, tracer);
      setups.push_back(t);
      raw.push_back(t.total_s);
    }
    const double after = setup_calib.run();
    const double f = setup_calib.factor(before, after);
    for (const double x : raw) setup_norm.push_back(x / f);
    if (!w.probe_with_trials) {
      state_probes.push_back(probe_state(w, *state, spec.game, m, probe_seed + g,
                                         kProbeShare * opt.seconds /
                                             static_cast<double>(w.setup_groups)));
    }
  }
  const double huge_frac = anon_huge_share(state->bins->slot_data(),
                                           state->bins->size() * sizeof(nubb::BinSlot));
  const double table_huge_frac =
      anon_huge_share(state->sampler->alias_table()->threshold_data(),
                      state->bins->size() * sizeof(std::uint64_t));
  const double alias_huge_frac = anon_huge_share(state->sampler->alias_table()->alias_data(),
                                                 state->bins->size() * sizeof(std::uint32_t));

  // Traced kernel pass and diagnostic replay on the same state.
  const KernelPass kp = opt.trace ? kernel_pass(w, spec, m, *state, tracer) : KernelPass{};
  const std::size_t slot_bytes = state->bins->size() * sizeof(nubb::BinSlot);
  const std::size_t table_bytes =
      state->bins->size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t));

  // --- in-process request latency -----------------------------------------
  ProbeStats probe_stats;
  std::optional<LatencyProbe> probe;
  if (w.probe_with_trials) {
    probe.emplace(*state, spec.game, m, w.probe_burst, probe_seed, gate_for(w, *state));
  } else {
    probe_stats = lowest(state_probes);
    state.reset();  // the timed trials build their own state, as nubb_run does
  }
  const auto slice_ns = static_cast<std::uint64_t>(w.probe_slice_ms * 1e6);

  // --- timed trials: run_and_report alternating with calibration ----------
  const nubb::Scenario& scenario = nubb::ScenarioRegistry::global().require("max-load");
  const double balls_per_trial = static_cast<double>(m) * static_cast<double>(w.replications);
  const double trial_budget = opt.trace ? 0.5 * opt.seconds : opt.seconds;
  std::vector<double> raw_rates;
  std::vector<Sample> norm_rates;
  std::string reference;
  double reference_mean = 0.0;
  const Pinned* pinned = nullptr;
  for (const Pinned& p : w.pinned) {
    if (p.seed == opt.seed) pinned = &p;
  }
  const double band_mean = w.pinned.empty() ? 0.0 : nubb::JsonValue::parse(w.pinned.front().report)
                                                        .at("max_load")
                                                        .at("mean")
                                                        .as_double();
  const std::uint64_t trials_start = now_ns();
  double edge = calib.run();
  while (raw_rates.size() < w.min_trials ||
         seconds_since(trials_start) < trial_budget) {
    const std::uint64_t t0 = now_ns();
    const StealMeter steal;
    const TrialReport report = run_report(scenario, spec, meta);
    const double secs = seconds_since(t0);
    const double share = steal.share();
    const double after = calib.run();
    const double raw = balls_per_trial / secs;
    raw_rates.push_back(raw);
    norm_rates.push_back({raw * calib.factor(edge, after), share});
    if (probe) probe->slice(slice_ns, slice_ns);
    edge = probe ? calib.run() : after;

    if (reference.empty()) {
      reference = report.json;
      reference_mean = report.mean;
    }
    bool ok = report.json == reference;
    if (pinned != nullptr) {
      ok = ok && report.json == pinned->report;
    } else if (!w.pinned.empty()) {
      ok = ok && report.mean >= band_mean * (1.0 - w.band) &&
           report.mean <= band_mean * (1.0 + w.band);
    }
    result.check(ok);
  }

  if (probe) probe_stats = ProbeStats::of(*probe);
  probe.reset();
  state.reset();

  // --- engine pass: every replication placed m balls, same summary --------
  const EngineOutcome engine = engine_pass(spec, m, nullptr);
  double before = calib.run();
  // Tracing overhead: the same engine pass with and without spans,
  // alternated, each normalised by its adjacent calibration runs.
  std::vector<double> overhead;
  for (std::size_t i = 0; opt.trace && i < w.overhead_pairs; ++i) {
    double secs[2];
    for (int traced = 0; traced < 2; ++traced) {
      const double raw = engine_pass(spec, m, traced ? tracer : nullptr).seconds;
      const double after = calib.run();
      secs[traced] = raw / calib.factor(before, after);
      before = after;
    }
    overhead.push_back(secs[1] / secs[0] - 1.0);
  }
  const bool engine_ok =
      engine.bad_replications == 0 && engine.replications == w.replications &&
      engine.summary.mean == reference_mean &&
      (pinned == nullptr || engine.state_fingerprint == pinned->state_fingerprint);
  result.check(engine_ok);
  if (opt.trace) result.check(kp.mismatches == 0);

  const double peak_mib = peak_rss_mib() - static_cast<double>(calib.buffer_bytes()) / (1 << 20);

  std::cout << "workload " << w.name << ": n=" << spec.capacities.size()
            << " C=" << total_capacity << " m=" << m << " d=" << w.d
            << " reps/trial=" << w.replications << " trials=" << raw_rates.size()
            << " pinned_cpu=" << cpu << "\n";
  std::cout << "output check: " << result.attempted - result.failed << "/" << result.attempted
            << " passed (" << (pinned ? "pinned report" : "band around pinned mean")
            << ", engine pass " << (engine_ok ? "ok" : "FAILED") << ")\n";
  std::cout << "max_load report: " << reference << "\n";
  std::cout << "state fingerprint: " << engine.state_fingerprint << "\n";

  // Provenance: what actually ran.
  const char* env_simd = std::getenv("NUBB_SIMD");
  std::ostringstream prov;
  nubb::JsonWriter pw(prov);
  pw.begin_object();
  pw.kv("simd_impl", simd == nubb::SimdImpl::kAvx2 ? "avx2" : "scalar");
  pw.kv("fast64", fast64);
  pw.kv("NUBB_SIMD", env_simd ? env_simd : "");
  pw.kv("slot_huge_share", huge_frac);
  pw.kv("alias_threshold_huge_share", table_huge_frac);
  pw.kv("alias_index_huge_share", alias_huge_frac);
  pw.kv("thp_mode", thp_mode());
  pw.kv("worker_threads", static_cast<std::uint64_t>(pool.thread_count()));
  pw.kv("pinned_cpu", static_cast<std::int64_t>(cpu));
  pw.kv("nproc", static_cast<std::uint64_t>(online_cpus()));
  pw.kv("l3_bytes", static_cast<std::uint64_t>(l3_bytes()));
  pw.kv("compiler", compiler_string());
  pw.kv("flags", compiler_flags());
  calib.write_json(pw, "calibration");
  setup_calib.write_json(pw, "setup_calibration");
  pw.end_object();
  std::cout << "provenance: " << prov.str() << "\n";

  const double place_p50 = probe_stats.place_p50;
  const double place_p90 = probe_stats.place_p90;
  const double batch_p50 = probe_stats.batch_p50;
  std::size_t trials_kept = 0;
  const double balls_per_s = clean_median(norm_rates, &trials_kept);
  const double error_rate = static_cast<double>(result.failed) /
                            static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
  print_line("balls_per_s", balls_per_s, "balls/s",
             "median of " + std::to_string(trials_kept) + " of " +
                 std::to_string(norm_rates.size()) + " calibrated trials; raw " +
                 std::to_string(median(raw_rates)));
  print_line("setup_s", median(setup_norm), "s",
             "median of " + std::to_string(setup_norm.size()) + " calibrated set-ups");
  print_line("peak_rss_mb", peak_mib, "MiB", "VmHWM net of the calibration buffer");
  print_line("error_rate", error_rate, "fraction",
             std::to_string(result.failed) + " of " + std::to_string(result.attempted));
  print_line("place_p50_us", place_p50, "us",
             "in-process place_one bursts of " + std::to_string(w.probe_burst) + ", " +
                 std::to_string(probe_stats.place_kept) + " gated of " +
                 std::to_string(probe_stats.place_samples) + " samples");
  print_line("place_p90_us", place_p90, "us");
  print_line("place_p99_us", probe_stats.place_p99, "us", "not in BENCHMARK.json");
  print_line("batch_p50_us", batch_p50, "us",
             "in-process run(1024), " + std::to_string(probe_stats.batch_kept) + " gated of " +
                 std::to_string(probe_stats.batch_samples) + " samples");

  if (!opt.trace) {
    result.set("balls_per_s", balls_per_s, "balls/s");
    result.set("setup_s", median(setup_norm), "s");
    result.set("peak_rss_mb", peak_mib, "MiB");
    result.set("place_p50_us", place_p50, "us");
    result.set("place_p90_us", place_p90, "us");
    result.set("batch_p50_us", batch_p50, "us");
    return;
  }

  // --- per-layer metrics (traced run) -------------------------------------
  const auto folded = tracer->fold();
  auto durations = [&folded](const char* name) {
    const auto it = folded.find(name);
    return it == folded.end() ? std::vector<double>{} : it->second.durations_ns;
  };
  std::vector<double> sampler_s;
  std::vector<double> bin_array_s;
  for (const SetupTimes& t : setups) {
    sampler_s.push_back(t.sampler_s);
    bin_array_s.push_back(t.bin_array_s);
  }
  const double kernel_ns_per_ball = median(kp.kernel_ns);
  const std::vector<double> scratch_ns = durations("core/experiment:scratch");

  const std::vector<double> chunk_s = chunk_seconds(*tracer);

  const ShardPass shard = shard_pass(scenario, spec, meta, tracer);

  const double scalar_ns_per_ball = median(kp.scalar_ns);
  const double replay_balls = static_cast<double>(std::max<std::uint64_t>(kp.timed.balls, 1));
  result.set("kernel.ns_per_ball", kernel_ns_per_ball, "ns/ball");
  result.set("kernel.cand_fill_ns_per_ball", kp.timed.cand_fill_ns / replay_balls, "ns/ball");
  result.set("kernel.tie_fill_ns_per_ball", kp.timed.tie_fill_ns / replay_balls, "ns/ball");
  result.set("kernel.resolve_ns_per_ball", kp.timed.resolve_ns / replay_balls, "ns/ball");
  result.set("kernel.scalar_ns_per_ball", scalar_ns_per_ball, "ns/ball");
  // Computed, cache-line model: each candidate touches its slot line plus
  // the alias threshold and alias lines; the destination line is written.
  result.set("kernel.bytes_per_ball", 64.0 * (3.0 * w.d + 1.0), "B/ball");
  result.set("kernel.avx2", simd == nubb::SimdImpl::kAvx2 ? 1.0 : 0.0, "flag");
  result.set("kernel.fast64", fast64 ? 1.0 : 0.0, "flag");
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  result.set("kernel.tie_rate", ratio(kp.diag.load_ties, kp.diag.balls), "fraction");
  result.set("kernel.dup_rate", ratio(kp.diag.duplicate_balls, kp.diag.balls), "fraction");
  result.set("kernel.dirty_group_rate", ratio(kp.diag.dirty_groups, kp.diag.groups), "fraction");
  result.set("kernel.alias_fallback_rate", ratio(kp.diag.alias_fallbacks, kp.diag.draws), "fraction");
  result.set("bin_array.build_s", median(bin_array_s), "s");
  result.set("bin_array.clear_us", median(kp.clear_us), "us");
  result.set("bin_array.huge_frac", huge_frac, "fraction");
  result.set("bin_array.slot_mib", static_cast<double>(slot_bytes) / (1 << 20), "MiB");
  result.set("sampler.build_s", median(sampler_s), "s");
  result.set("sampler.table_mib", static_cast<double>(table_bytes) / (1 << 20), "MiB");
  // What run_one adds around kernel.run per replication: the clear and the
  // kernel construction, timed directly (a difference of two whole-game
  // times drowns in their noise at 16M balls).
  result.set("experiment.rep_overhead_us",
             median(kp.clear_us) + median(durations("core/placement_kernel:ctor")) * 1e-3, "us");
  result.set("experiment.scratch_s", median(scratch_ns) * 1e-9, "s");
  result.set("experiment.chunk_s.p50", median(chunk_s), "s");
  result.set("experiment.chunk_s.max", quantile(chunk_s, 1.0), "s");
  result.set("experiment.run_shard_s", shard.run_shard_s, "s");
  result.set("experiment.merge_report_s", shard.merge_report_s, "s");
  result.set("experiment.state_kib", static_cast<double>(shard.state_bytes) / 1024.0, "KiB");
  result.set("raw_balls_per_s", median(raw_rates), "balls/s");
  result.set("calib_rate", median(calib.rates()), "updates/s");
  result.set("trace.overhead_frac", median(overhead), "fraction");
  result.set("load.requests", static_cast<double>(result.attempted), "count");
  result.set("load.failed", static_cast<double>(result.failed), "count");

  std::cout << "self time by span (traced run):\n";
  for (const auto& [name, t] : folded) {
    std::cout << "  " << name << ": count=" << t.count << " total_ms=" << t.total_ns * 1e-6
              << " self_ms=" << t.self_ns * 1e-6 << "\n";
  }
  const std::string path = opt.work_dir + "/trace-" + w.name + ".json";
  if (!tracer->write(path)) throw std::runtime_error("cannot write " + path);
  std::cout << "spans written to " << path << "\n";
}

}  // namespace perfbench
