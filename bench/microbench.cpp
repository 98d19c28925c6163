/// Self-contained micro-benchmarks for the inner loops: RNG throughput,
/// alias-table sampling, and full-game placement throughput in balls/second
/// across array shapes — for both the fused PlacementKernel hot path and a
/// frozen copy of the pre-kernel per-ball reference path, so every run
/// records the kernel's speedup alongside the absolute numbers.
///
/// Unlike the figure benches this binary guards *constant factors*, not
/// statistics, and it emits a machine-readable `BENCH_microbench.json`
/// (schema documented in bench/README.md) that CI uploads on every PR so
/// the performance trajectory of the hot path is tracked over time.
///
/// Usage: microbench [--reps N] [--seed S] [--quiet] [--out PATH]
///   --reps   measurement repetitions per benchmark (best-of; default 3)
///   --out    JSON output path (default BENCH_microbench.json in the cwd)

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/nubb.hpp"
#include "util/json.hpp"

namespace {

using namespace nubb;

// ---------------------------------------------------------------------------
// Frozen reference implementation: the per-ball placement path exactly as it
// existed before the fused PlacementKernel (PR 2), including the split
// (counts, capacities) array layout the pre-kernel BinArray stored — PR 3
// interleaved the live BinArray into (count, cap) slots, which would
// otherwise silently speed up the "pre-kernel" baseline too. Kept verbatim
// so the kernel's speedup is measured against the real pre-kernel code and
// memory behaviour on the same toolchain, not remembered numbers. Do not
// "improve" this copy.
// ---------------------------------------------------------------------------

/// The pre-PR-3 BinArray: parallel capacity and count vectors plus the same
/// online maximum bookkeeping.
struct ReferenceBins {
  std::vector<std::uint64_t> capacities;
  std::vector<std::uint64_t> balls;
  std::uint64_t total_capacity = 0;
  std::uint64_t total_balls = 0;
  Load max_load{0, 1};
  std::size_t argmax = 0;

  explicit ReferenceBins(const std::vector<std::uint64_t>& caps)
      : capacities(caps), balls(caps.size(), 0) {
    for (const auto c : caps) total_capacity += c;
  }

  std::size_t size() const { return capacities.size(); }
  std::uint64_t capacity(std::size_t i) const { return capacities[i]; }
  Load load(std::size_t i) const { return Load{balls[i], capacities[i]}; }

  void add_ball(std::size_t i) {
    ++balls[i];
    ++total_balls;
    const Load l{balls[i], capacities[i]};
    if (max_load < l) {
      max_load = l;
      argmax = i;
    }
  }

  void clear() {
    std::fill(balls.begin(), balls.end(), 0);
    total_balls = 0;
    max_load = Load{0, 1};
    argmax = 0;
  }
};

/// The pre-PR-3 WeightedBinArray: parallel capacity and weight vectors.
struct ReferenceWeightedBins {
  std::vector<std::uint64_t> capacities;
  std::vector<std::uint64_t> weights;
  std::uint64_t total_capacity = 0;
  std::uint64_t total_weight = 0;
  Load max_load{0, 1};
  std::size_t argmax = 0;

  explicit ReferenceWeightedBins(const std::vector<std::uint64_t>& caps)
      : capacities(caps), weights(caps.size(), 0) {
    for (const auto c : caps) total_capacity += c;
  }

  std::size_t size() const { return capacities.size(); }

  void add_weight(std::size_t i, std::uint64_t w) {
    weights[i] += w;
    total_weight += w;
    const Load l{weights[i], capacities[i]};
    if (max_load < l) {
      max_load = l;
      argmax = i;
    }
  }

  void clear() {
    std::fill(weights.begin(), weights.end(), 0);
    total_weight = 0;
    max_load = Load{0, 1};
    argmax = 0;
  }
};

void reference_draw_choices(const BinSampler& sampler, std::uint32_t d, bool distinct,
                            Xoshiro256StarStar& rng, std::size_t* out) {
  if (!distinct) {
    for (std::uint32_t k = 0; k < d; ++k) out[k] = sampler.sample(rng);
    return;
  }
  for (std::uint32_t k = 0; k < d; ++k) {
    for (;;) {
      const std::size_t candidate = sampler.sample(rng);
      bool seen = false;
      for (std::uint32_t j = 0; j < k; ++j) {
        if (out[j] == candidate) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        out[k] = candidate;
        break;
      }
    }
  }
}

std::size_t reference_choose_destination(const ReferenceBins& bins,
                                         const std::size_t* choices, std::size_t count,
                                         TieBreak tie_break, Xoshiro256StarStar& rng) {
  constexpr std::size_t kMaxChoices = 64;
  std::size_t best[kMaxChoices];
  std::size_t best_count = 0;
  Load best_load{0, 1};

  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t candidate = choices[c];
    const Load post = bins.load(candidate).after_one_more();
    if (best_count == 0 || post < best_load) {
      best_load = post;
      best[0] = candidate;
      best_count = 1;
    } else if (post == best_load) {
      bool duplicate = false;
      for (std::size_t i = 0; i < best_count; ++i) {
        if (best[i] == candidate) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) best[best_count++] = candidate;
    }
  }

  if (best_count == 1) return best[0];
  switch (tie_break) {
    case TieBreak::kFirstChoice:
      return best[0];
    case TieBreak::kUniform:
      return best[rng.bounded(best_count)];
    case TieBreak::kPreferLargerCapacity: {
      std::uint64_t cmax = 0;
      for (std::size_t i = 0; i < best_count; ++i) {
        cmax = std::max(cmax, bins.capacity(best[i]));
      }
      std::size_t filtered_count = 0;
      for (std::size_t i = 0; i < best_count; ++i) {
        if (bins.capacity(best[i]) == cmax) best[filtered_count++] = best[i];
      }
      if (filtered_count == 1) return best[0];
      return best[rng.bounded(filtered_count)];
    }
  }
  return best[0];
}

std::size_t reference_place_one_ball(ReferenceBins& bins, const BinSampler& sampler,
                                     const GameConfig& cfg, Xoshiro256StarStar& rng) {
  NUBB_REQUIRE_MSG(cfg.choices >= 1, "need at least one choice per ball");
  NUBB_REQUIRE_MSG(sampler.size() == bins.size(), "sampler and bin array size mismatch");
  NUBB_REQUIRE_MSG(!cfg.distinct_choices || cfg.choices <= bins.size(),
                   "cannot draw more distinct bins than exist");
  constexpr std::uint32_t kMaxChoices = 64;
  NUBB_REQUIRE_MSG(cfg.choices <= kMaxChoices, "more than 64 choices per ball");
  std::size_t choices[kMaxChoices] = {};
  reference_draw_choices(sampler, cfg.choices, cfg.distinct_choices, rng, choices);
  const std::size_t dest =
      reference_choose_destination(bins, choices, cfg.choices, cfg.tie_break, rng);
  bins.add_ball(dest);
  return dest;
}

void reference_play_game(ReferenceBins& bins, const BinSampler& sampler,
                         const GameConfig& cfg, Xoshiro256StarStar& rng) {
  const std::uint64_t m = cfg.balls == 0 ? bins.total_capacity : cfg.balls;
  for (std::uint64_t ball = 0; ball < m; ++ball) {
    reference_place_one_ball(bins, sampler, cfg, rng);
  }
}

/// The pre-kernel weighted path (seed weighted.cpp): one fully validated
/// per-ball placement with exact Load comparisons, against the split-array
/// weighted bins.
std::size_t reference_place_one_weighted_ball(ReferenceWeightedBins& bins,
                                              const BinSampler& sampler, std::uint64_t w,
                                              const GameConfig& cfg,
                                              Xoshiro256StarStar& rng) {
  NUBB_REQUIRE_MSG(cfg.choices >= 1, "need at least one choice per ball");
  NUBB_REQUIRE_MSG(sampler.size() == bins.size(), "sampler and bin array size mismatch");
  constexpr std::uint32_t kMaxChoices = 64;
  NUBB_REQUIRE_MSG(cfg.choices <= kMaxChoices, "more than 64 choices per ball");
  std::size_t choices[kMaxChoices] = {};
  reference_draw_choices(sampler, cfg.choices, cfg.distinct_choices, rng, choices);

  // Weighted Algorithm 1: minimise (W_i + w) / c_i exactly. (best[0] is
  // initialised by the first loop iteration — cfg.choices >= 1 is checked
  // above — but GCC's flow analysis cannot see that, hence the = {}.)
  std::size_t best[kMaxChoices] = {};
  std::size_t best_count = 0;
  Load best_load{0, 1};
  for (std::uint32_t k = 0; k < cfg.choices; ++k) {
    const std::size_t candidate = choices[k];
    const Load post{bins.weights[candidate] + w, bins.capacities[candidate]};
    if (best_count == 0 || post < best_load) {
      best_load = post;
      best[0] = candidate;
      best_count = 1;
    } else if (post == best_load) {
      bool duplicate = false;
      for (std::size_t i = 0; i < best_count; ++i) {
        if (best[i] == candidate) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) best[best_count++] = candidate;
    }
  }

  std::size_t dest = best[0];
  if (best_count > 1) {
    switch (cfg.tie_break) {
      case TieBreak::kFirstChoice:
        dest = best[0];
        break;
      case TieBreak::kUniform:
        dest = best[rng.bounded(best_count)];
        break;
      case TieBreak::kPreferLargerCapacity: {
        std::uint64_t cmax = 0;
        for (std::size_t i = 0; i < best_count; ++i) {
          cmax = std::max(cmax, bins.capacities[best[i]]);
        }
        std::size_t filtered = 0;
        for (std::size_t i = 0; i < best_count; ++i) {
          if (bins.capacities[best[i]] == cmax) best[filtered++] = best[i];
        }
        dest = filtered == 1 ? best[0] : best[rng.bounded(filtered)];
        break;
      }
    }
  }
  bins.add_weight(dest, w);
  return dest;
}

void reference_play_weighted_game(ReferenceWeightedBins& bins, const BinSampler& sampler,
                                  const BallSizeModel& sizes, const GameConfig& cfg,
                                  std::uint64_t balls, Xoshiro256StarStar& rng) {
  for (std::uint64_t b = 0; b < balls; ++b) {
    reference_place_one_weighted_ball(bins, sampler, sizes.sample(rng), cfg, rng);
  }
}

// ---------------------------------------------------------------------------
// Measurement harness.
// ---------------------------------------------------------------------------

struct BenchResult {
  std::string name;       // unique id, e.g. "game/greedy_d2/mixed_1_10/kernel"
  std::string algorithm;  // e.g. "greedy_d2"
  std::string profile;    // e.g. "mixed_1_10"
  std::string impl;       // one of the tags bench/README.md documents, e.g. "kernel_v2"
  std::uint64_t items_per_call = 0;
  std::uint64_t calls = 0;
  double seconds = 0.0;       // elapsed of the best repetition
  double ops_per_sec = 0.0;   // best over repetitions
};

/// Run `fn` repeatedly until `min_seconds` elapsed, `reps` times; keep the
/// best repetition (the one least disturbed by the machine).
template <typename Fn>
BenchResult measure(std::string name, std::string algorithm, std::string profile,
                    std::string impl, std::uint64_t items_per_call, std::uint64_t reps,
                    Fn&& fn) {
  constexpr double kMinSeconds = 0.10;
  BenchResult r;
  r.name = std::move(name);
  r.algorithm = std::move(algorithm);
  r.profile = std::move(profile);
  r.impl = std::move(impl);
  r.items_per_call = items_per_call;

  fn();  // warm-up: touch the tables and fault the pages once
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    Timer timer;
    std::uint64_t calls = 0;
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = timer.seconds();
    } while (elapsed < kMinSeconds);
    const double ops =
        static_cast<double>(items_per_call) * static_cast<double>(calls) / elapsed;
    if (ops > r.ops_per_sec) {
      r.ops_per_sec = ops;
      r.seconds = elapsed;
      r.calls = calls;
    }
  }
  return r;
}

/// Which placement implementation a full-game benchmark exercises: the
/// frozen pre-kernel reference, the kernel on the default (v1) stream, the
/// kernel on the batch-drawn v2 stream (docs/stream-v2.md), the v2 kernel
/// with the memory layer dialled down (no cross-ball prefetch, no huge
/// pages) — the "nopf" rows pair with plain v2 rows so the bins sweep gates
/// the memory-layer win in isolation (docs/memory-layout.md) — or the v2
/// kernel with the AVX2 resolve kernels on. The plain v2 rows pin SIMD
/// *off* so the "simd" rows gate the vector win against a true scalar
/// baseline regardless of the host's NUBB_SIMD.
enum class BenchImpl { kReference, kKernel, kKernelV2, kKernelV2NoPf, kKernelV2Simd };

const char* impl_tag(BenchImpl impl) {
  switch (impl) {
    case BenchImpl::kReference:
      return "reference";
    case BenchImpl::kKernel:
      return "kernel";
    case BenchImpl::kKernelV2:
      return "kernel_v2";
    case BenchImpl::kKernelV2NoPf:
      return "kernel_v2_nopf";
    case BenchImpl::kKernelV2Simd:
      return "kernel_v2_simd";
  }
  return "kernel";
}

/// Full-game benchmark body shared by the kernel (both streams) and
/// reference variants.
template <BenchImpl Impl>
BenchResult bench_game(const std::string& algorithm, const std::string& profile,
                       const std::vector<std::uint64_t>& caps, const GameConfig& cfg,
                       std::uint64_t reps, std::uint64_t seed) {
  const BinSampler sampler =
      BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
  const std::uint64_t balls = [&caps, &cfg] {
    if (cfg.balls != 0) return cfg.balls;
    std::uint64_t total = 0;
    for (const auto c : caps) total += c;
    return total;
  }();
  Xoshiro256StarStar rng(seed);
  const char* impl = impl_tag(Impl);
  const std::string name = "game/" + algorithm + "/" + profile + "/" + impl;
  GameConfig game = cfg;
  if constexpr (Impl == BenchImpl::kKernelV2) {
    game.stream = RngStream::kV2;
    game.simd = SimdMode::kOff;
  }
  if constexpr (Impl == BenchImpl::kKernelV2NoPf) {
    game.stream = RngStream::kV2;
    game.simd = SimdMode::kOff;
    game.memory.prefetch = false;
    game.memory.huge_pages = HugePages::kOff;
  }
  if constexpr (Impl == BenchImpl::kKernelV2Simd) {
    game.stream = RngStream::kV2;
    game.simd = SimdMode::kOn;
  }
  if constexpr (Impl != BenchImpl::kReference) {
    BinArray bins(caps, game.memory);
    return measure(name, algorithm, profile, impl, balls, reps, [&bins, &sampler, &game, &rng] {
      bins.clear();
      play_game(bins, sampler, game, rng);
    });
  } else {
    ReferenceBins bins(caps);
    return measure(name, algorithm, profile, impl, balls, reps, [&bins, &sampler, &game, &rng] {
      bins.clear();
      reference_play_game(bins, sampler, game, rng);
    });
  }
}

/// Weighted-game benchmark body: the v2 kernel path vs the frozen
/// pre-kernel per-ball weighted path, on the same ball count and seeds.
template <BenchImpl Impl>
BenchResult bench_weighted(const std::string& algorithm, const std::string& profile,
                           const std::vector<std::uint64_t>& caps, const BallSizeModel& sizes,
                           const GameConfig& cfg, std::uint64_t balls, std::uint64_t reps,
                           std::uint64_t seed) {
  const BinSampler sampler =
      BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
  Xoshiro256StarStar rng(seed);
  const char* impl = impl_tag(Impl);
  const std::string name = "game/" + algorithm + "/" + profile + "/" + impl;
  GameConfig game = cfg;
  game.balls = balls;
  if constexpr (Impl == BenchImpl::kKernelV2) {
    game.stream = RngStream::kV2;
    game.simd = SimdMode::kOff;
  }
  if constexpr (Impl == BenchImpl::kKernelV2Simd) {
    game.stream = RngStream::kV2;
    game.simd = SimdMode::kOn;
  }
  if constexpr (Impl != BenchImpl::kReference) {
    WeightedBinArray bins(caps, game.memory);
    return measure(name, algorithm, profile, impl, balls, reps,
                   [&bins, &sampler, &sizes, &game, &rng] {
                     bins.clear();
                     play_weighted_game(bins, sampler, sizes, game, rng);
                   });
  } else {
    ReferenceWeightedBins bins(caps);
    return measure(name, algorithm, profile, impl, balls, reps,
                   [&bins, &sampler, &sizes, &game, balls = balls, &rng] {
                     bins.clear();
                     reference_play_weighted_game(bins, sampler, sizes, game, balls, rng);
                   });
  }
}

void print_result(const BenchResult& r) {
  std::cout << "  " << r.name << ": " << TextTable::num(r.ops_per_sec / 1e6, 2)
            << " Mops/s  (" << r.calls << " calls, " << TextTable::num(r.seconds, 3)
            << "s)\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Inner-loop micro-benchmarks (RNG, alias table, fused placement kernel vs the "
      "frozen pre-kernel reference); writes machine-readable BENCH_microbench.json");
  nubb::bench::register_common(cli, /*default_seed=*/0xA11CE5ULL);
  cli.add_string("out", "BENCH_microbench.json", "path for the JSON results file");
  cli.add_int("bins-max", 1'000'000,
              "largest bin count in the ops/sec-vs-bins sweep (0 disables it; the "
              "10M and 100M rows are opt-in via 10000000 / 100000000)");
  cli.add_int("bins-reps", 0,
              "repetitions for the bins sweep only (0 = same as --reps; CI uses 1 "
              "to keep the PR gate fast)");
  if (!cli.parse(argc, argv)) return 0;
  const nubb::bench::CommonOptions opt = nubb::bench::read_common(cli);
  const std::string out_path = cli.get_string("out");
  const std::uint64_t reps = nubb::bench::effective_reps(opt, /*figure_default=*/3);
  const std::uint64_t bins_max = static_cast<std::uint64_t>(cli.get_int("bins-max"));
  const std::uint64_t bins_reps_raw = static_cast<std::uint64_t>(cli.get_int("bins-reps"));
  const std::uint64_t bins_reps = bins_reps_raw == 0 ? reps : bins_reps_raw;

  Timer total;
  std::vector<BenchResult> results;

  // Whether this binary + CPU can run the AVX2 resolve kernels at all. The
  // "*_simd" rows are emitted only when they can (bench_compare.py passes
  // --expect-absent for them on non-AVX2 runners), and never read NUBB_SIMD:
  // resolve_simd(kOn) is env-independent, so a host with NUBB_SIMD=off still
  // measures the vector rows.
  const bool simd_avail = resolve_simd(SimdMode::kOn) == SimdImpl::kAvx2;
  if (!opt.quiet && !simd_avail) {
    std::cout << "[microbench] AVX2 kernels unavailable; skipping *_simd rows\n";
  }

  // --- RNG and sampling primitives ---
  {
    Xoshiro256StarStar rng(opt.seed + 1);
    std::uint64_t sink = 0;
    results.push_back(measure("rng/next", "rng_next", "none", "primitive", 8'000'000, reps,
                              [&rng, &sink] {
                                for (int i = 0; i < 8'000'000; ++i) sink += rng.next();
                              }));
    results.push_back(measure("rng/bounded", "rng_bounded", "none", "primitive", 8'000'000,
                              reps, [&rng, &sink] {
                                for (int i = 0; i < 8'000'000; ++i) sink += rng.bounded(10000);
                              }));
    if (sink == 42) std::cout << "";  // defeat dead-code elimination
  }
  {
    std::vector<double> weights(100'000);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      weights[i] = static_cast<double>(1 + i % 8);
    }
    const AliasTable table(weights);
    Xoshiro256StarStar rng(opt.seed + 2);
    std::uint64_t sink = 0;
    results.push_back(measure("alias/sample_100k", "alias_sample", "mod8_100k", "primitive",
                              4'000'000, reps, [&table, &rng, &sink] {
                                for (int i = 0; i < 4'000'000; ++i) sink += table.sample(rng);
                              }));
    if (sink == 42) std::cout << "";
  }

  // --- Bulk-draw primitive: the batch fill the v2 kernels consume for
  // uniform samplers (timed only; it has no speedup key).
  {
    std::vector<std::uint32_t> buf(1 << 16);  // 256 KiB of outputs, L2-resident
    Xoshiro256StarStar rng(opt.seed + 11);
    results.push_back(measure("rng/bounded_fill", "rng_bounded_fill", "none", "primitive",
                              buf.size(), reps, [&rng, &buf] {
                                rng.bounded_fill(10'000, buf.data(), buf.size());
                              }));
  }

  // --- Full games: kernel vs frozen reference on the paper's profiles ---
  const auto mixed_small = two_class_capacities(500, 1, 500, 10);    // Figure 6 shape
  const auto mixed_large = two_class_capacities(50'000, 1, 50'000, 10);
  const auto uniform_c2 = uniform_capacities(4096, 2);

  GameConfig d2;  // d = 2, Algorithm 1 tie-break, m = C
  GameConfig d3 = d2;
  d3.choices = 3;

  // The acceptance pairs: the batch-drawn v2 stream against the frozen
  // reference. The one v1 row gates the per-ball path that every caller
  // leaving GameConfig::stream unset runs in bulk; it claims no v2-class
  // speedup, only that this path stays ahead of the frozen reference.
  results.push_back(bench_game<BenchImpl::kReference>("greedy_d2", "mixed_1_10", mixed_small,
                                                      d2, reps, opt.seed + 3));
  results.push_back(bench_game<BenchImpl::kKernel>("greedy_d2", "mixed_1_10", mixed_small, d2,
                                                   reps, opt.seed + 3));
  results.push_back(bench_game<BenchImpl::kKernelV2>("greedy_d2", "mixed_1_10", mixed_small,
                                                     d2, reps, opt.seed + 3));
  if (simd_avail) {
    results.push_back(bench_game<BenchImpl::kKernelV2Simd>("greedy_d2", "mixed_1_10",
                                                           mixed_small, d2, reps, opt.seed + 3));
  }
  results.push_back(bench_game<BenchImpl::kReference>("greedy_d2", "mixed_1_10_100k",
                                                      mixed_large, d2, reps, opt.seed + 4));
  results.push_back(bench_game<BenchImpl::kKernelV2>("greedy_d2", "mixed_1_10_100k",
                                                     mixed_large, d2, reps, opt.seed + 4));
  if (simd_avail) {
    results.push_back(bench_game<BenchImpl::kKernelV2Simd>("greedy_d2", "mixed_1_10_100k",
                                                           mixed_large, d2, reps, opt.seed + 4));
  }
  results.push_back(bench_game<BenchImpl::kReference>("greedy_d2", "uniform_c2_4096",
                                                      uniform_c2, d2, reps, opt.seed + 5));
  results.push_back(bench_game<BenchImpl::kKernelV2>("greedy_d2", "uniform_c2_4096",
                                                     uniform_c2, d2, reps, opt.seed + 5));
  if (simd_avail) {
    results.push_back(bench_game<BenchImpl::kKernelV2Simd>("greedy_d2", "uniform_c2_4096",
                                                           uniform_c2, d2, reps, opt.seed + 5));
  }
  results.push_back(bench_game<BenchImpl::kReference>("greedy_d3", "mixed_1_10", mixed_small,
                                                      d3, reps, opt.seed + 6));
  results.push_back(bench_game<BenchImpl::kKernelV2>("greedy_d3", "mixed_1_10", mixed_small,
                                                     d3, reps, opt.seed + 6));
  if (simd_avail) {
    results.push_back(bench_game<BenchImpl::kKernelV2Simd>("greedy_d3", "mixed_1_10",
                                                           mixed_small, d3, reps, opt.seed + 6));
  }

  // --- ops/sec-vs-bins sweep: the memory layer at >= 1M bins ---
  // At these sizes the slot array (16 B/bin) is far past every cache level,
  // so throughput is set by the memory layer, not the ALU. Only the v2
  // stream runs (the frozen reference would dominate the wall clock without
  // adding signal); each point is paired with a "nopf" run — prefetch off,
  // huge pages off — so the speedup row isolates the prefetch + huge-page
  // win that docs/memory-layout.md promises. m = n keeps each call bounded.
  {
    struct SweepPoint {
      std::uint64_t bins;
      const char* profile;
    };
    constexpr SweepPoint kSweep[] = {
        {1'000'000, "bins_1m"}, {10'000'000, "bins_10m"}, {100'000'000, "bins_100m"}};
    for (const SweepPoint& pt : kSweep) {
      if (pt.bins > bins_max) continue;
      const auto caps = two_class_capacities(pt.bins / 2, 1, pt.bins / 2, 10);
      GameConfig cfg_d2;
      cfg_d2.balls = pt.bins;
      GameConfig cfg_d3 = cfg_d2;
      cfg_d3.choices = 3;
      GameConfig cfg_d4 = cfg_d2;
      cfg_d4.choices = 4;
      results.push_back(bench_game<BenchImpl::kKernelV2NoPf>("greedy_d2", pt.profile, caps,
                                                             cfg_d2, bins_reps, opt.seed + 9));
      results.push_back(bench_game<BenchImpl::kKernelV2>("greedy_d2", pt.profile, caps, cfg_d2,
                                                         bins_reps, opt.seed + 9));
      results.push_back(bench_game<BenchImpl::kKernelV2NoPf>("greedy_d3", pt.profile, caps,
                                                             cfg_d3, bins_reps, opt.seed + 10));
      results.push_back(bench_game<BenchImpl::kKernelV2>("greedy_d3", pt.profile, caps, cfg_d3,
                                                         bins_reps, opt.seed + 10));
      // d >= 4 runs the generic candidate loop, which gained the same
      // cross-ball prefetch as the specialised d = 2/3 kernels — the pair
      // gates that win the same way.
      results.push_back(bench_game<BenchImpl::kKernelV2NoPf>("greedy_d4", pt.profile, caps,
                                                             cfg_d4, bins_reps, opt.seed + 13));
      results.push_back(bench_game<BenchImpl::kKernelV2>("greedy_d4", pt.profile, caps, cfg_d4,
                                                         bins_reps, opt.seed + 13));
    }
  }

  // --- Kernel-only modes (no pre-PR analogue at full speed) ---
  {
    const BinSampler sampler = BinSampler::from_policy(
        SelectionPolicy::proportional_to_capacity(), mixed_small);
    BinArray bins(mixed_small);
    Xoshiro256StarStar rng(opt.seed + 7);
    results.push_back(measure("game/greedy_d2_batched64/mixed_1_10/kernel",
                              "greedy_d2_batched64", "mixed_1_10", "kernel",
                              bins.total_capacity(), reps, [&bins, &sampler, &rng] {
                                bins.clear();
                                play_batched_game(bins, sampler, GameConfig{}, 64, rng);
                              }));
  }
  // Weighted Greedy[2]: the v2 kernel vs the frozen pre-kernel per-ball
  // weighted path, at the paper's m ~= C / E[size] convention.
  {
    const BinSampler probe_sampler = BinSampler::from_policy(
        SelectionPolicy::proportional_to_capacity(), mixed_small);
    const BallSizeModel sizes = BallSizeModel::uniform_range(1, 4);
    GameConfig cfg;
    std::uint64_t balls_per_game = 0;
    {
      WeightedBinArray probe(mixed_small);
      Xoshiro256StarStar probe_rng(opt.seed + 8);
      balls_per_game =
          play_weighted_game(probe, probe_sampler, sizes, cfg, probe_rng).balls_thrown;
    }
    results.push_back(bench_weighted<BenchImpl::kReference>("weighted_u1_4", "mixed_1_10",
                                                            mixed_small, sizes, cfg,
                                                            balls_per_game, reps, opt.seed + 8));
    results.push_back(bench_weighted<BenchImpl::kKernelV2>("weighted_u1_4", "mixed_1_10",
                                                           mixed_small, sizes, cfg,
                                                           balls_per_game, reps, opt.seed + 8));
    if (simd_avail) {
      results.push_back(bench_weighted<BenchImpl::kKernelV2Simd>(
          "weighted_u1_4", "mixed_1_10", mixed_small, sizes, cfg, balls_per_game, reps,
          opt.seed + 8));
    }
  }

  if (!opt.quiet) {
    std::cout << "[microbench] best-of-" << reps << " repetitions\n";
    for (const auto& r : results) print_result(r);
  }

  // --- derived speedups: kernel vs reference per (algorithm, profile) ---
  struct Speedup {
    std::string key;
    double factor = 0.0;
  };
  std::vector<Speedup> speedups;
  for (const auto& r : results) {
    if (r.impl != "kernel" && r.impl != "kernel_v2") continue;
    for (const auto& ref : results) {
      if (ref.impl == "reference" && ref.algorithm == r.algorithm &&
          ref.profile == r.profile && ref.ops_per_sec > 0.0) {
        const char* stream = r.impl == "kernel_v2" ? "/v2" : "/v1";
        speedups.push_back(
            {r.algorithm + "/" + r.profile + stream, r.ops_per_sec / ref.ops_per_sec});
      }
    }
  }
  // Bins-sweep rows gate v2-with-memory-layer against v2-without: the
  // "/v2_nopf" suffix reads "v2 over v2_nopf".
  for (const auto& r : results) {
    if (r.impl != "kernel_v2") continue;
    for (const auto& ref : results) {
      if (ref.impl == "kernel_v2_nopf" && ref.algorithm == r.algorithm &&
          ref.profile == r.profile && ref.ops_per_sec > 0.0) {
        speedups.push_back(
            {r.algorithm + "/" + r.profile + "/v2_nopf", r.ops_per_sec / ref.ops_per_sec});
      }
    }
  }
  // SIMD rows gate the AVX2 resolve kernels against the scalar v2 kernel on
  // the same game: "/v2_simd" reads "v2_simd over v2". Absent entirely when
  // the host cannot run AVX2 (bench_compare.py --expect-absent).
  for (const auto& r : results) {
    if (r.impl != "kernel_v2_simd") continue;
    for (const auto& ref : results) {
      if (ref.impl == "kernel_v2" && ref.algorithm == r.algorithm &&
          ref.profile == r.profile && ref.ops_per_sec > 0.0) {
        speedups.push_back(
            {r.algorithm + "/" + r.profile + "/v2_simd", r.ops_per_sec / ref.ops_per_sec});
      }
    }
  }
  if (!opt.quiet) {
    for (const auto& s : speedups) {
      std::cout << "  speedup " << s.key << ": " << TextTable::num(s.factor, 2) << "x\n";
    }
  }

  // --- JSON emission (schema: bench/README.md) ---
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "[microbench] cannot open " << out_path << " for writing\n";
    return 1;
  }
  JsonWriter json(out);
  json.begin_object();
  json.kv("schema", "nubb.microbench.v1");
  json.kv("reps", reps);
  json.kv("seed", opt.seed);
  json.key("benchmarks");
  json.begin_array();
  for (const auto& r : results) {
    json.begin_object();
    json.kv("name", r.name);
    json.kv("algorithm", r.algorithm);
    json.kv("profile", r.profile);
    json.kv("impl", r.impl);
    json.kv("items_per_call", r.items_per_call);
    json.kv("calls", r.calls);
    json.kv("seconds", r.seconds);
    json.kv("ops_per_sec", r.ops_per_sec);
    json.end_object();
  }
  json.end_array();
  json.key("speedup_vs_reference");
  json.begin_object();
  for (const auto& s : speedups) json.kv(s.key, s.factor);
  json.end_object();
  json.kv("elapsed_seconds", total.seconds());
  json.end_object();
  out << "\n";

  if (!opt.quiet) std::cout << "[microbench] wrote " << out_path << "\n";
  nubb::bench::finish("microbench", total, reps);
  return 0;
}
