/// Scalar-vs-SIMD bit-equality sweep: the AVX2 resolve kernels must be an
/// implementation detail with zero observable surface. Every path the
/// dispatch can take — both specialised loops (d = 2, d = 3), the d = 1 and
/// generic d >= 4 loops, every tie-break, unit and weighted balls, uniform
/// and alias samplers, every multiply width, both sides of the fused-fill
/// cutover, and the vector alias fill above 2,048 bins — must leave
/// identical bin state and identical RNG position under `SimdMode::kOn`
/// and `SimdMode::kOff`. A dispatch test checks that kOn really installs
/// the vector loops where they exist, since a kernel that silently ran
/// scalar would pass every equality case. The sweep also covers the
/// scenario-registry JSON (run_shard output compared byte for byte), the
/// S = 2 sharded placement service, and the RunMeta provenance plumbing.
/// On hosts without AVX2 the kOn side silently falls back to scalar and the
/// sweep degenerates to a self-comparison — still valid, just vacuous.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/nubb.hpp"
#include "core/scenario.hpp"
#include "net/protocol.hpp"
#include "net/service.hpp"
#include "util/json.hpp"

namespace nubb {
namespace {

struct GameResult {
  std::vector<std::uint64_t> counts;
  std::uint64_t rng_after = 0;  ///< equal consumption, not just equal state
};

GameResult run_game(const std::vector<std::uint64_t>& caps, GameConfig cfg,
                    std::uint64_t seed, SimdMode simd) {
  cfg.stream = RngStream::kV2;
  cfg.simd = simd;
  const BinSampler sampler =
      BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
  BinArray bins(caps);
  Xoshiro256StarStar rng(seed);
  play_game(bins, sampler, cfg, rng);
  return {bins.ball_counts(), rng.next()};
}

void expect_on_matches_off(const std::vector<std::uint64_t>& caps, const GameConfig& cfg,
                           std::uint64_t seed) {
  const GameResult off = run_game(caps, cfg, seed, SimdMode::kOff);
  const GameResult on = run_game(caps, cfg, seed, SimdMode::kOn);
  EXPECT_EQ(off.counts, on.counts)
      << "d=" << cfg.choices << " tb=" << static_cast<int>(cfg.tie_break)
      << " n=" << caps.size() << " seed=" << seed;
  EXPECT_EQ(off.rng_after, on.rng_after) << "d=" << cfg.choices;
}

constexpr TieBreak kAllTieBreaks[] = {TieBreak::kPreferLargerCapacity, TieBreak::kUniform,
                                      TieBreak::kFirstChoice};

// --- kernel sweep ----------------------------------------------------------

TEST(SimdEquality, ChoicesByTieBreakSweepAliasSampler) {
  // Mixed capacities => alias sampler => the fused single-word draw path.
  // Ball count crosses several 256-ball blocks plus a partial tail. The
  // 3,000-bin table sits above the 2,048-bin crossover, where the kOn side
  // draws candidates through the vector alias fill at every d.
  for (const auto& caps :
       {two_class_capacities(500, 1, 500, 10), two_class_capacities(1500, 1, 1500, 10)}) {
    for (const std::uint32_t d : {1u, 2u, 3u, 4u, 6u}) {
      for (const TieBreak tb : kAllTieBreaks) {
        GameConfig cfg;
        cfg.choices = d;
        cfg.tie_break = tb;
        expect_on_matches_off(caps, cfg, 42 + d);
      }
    }
  }
}

TEST(SimdEquality, UniformSamplerTakesTheBulkBoundedPath) {
  // Equal capacities: no alias table, so both sides draw candidates with
  // the scalar bulk bounded_fill; the kOn side still resolves d = 2 / d = 3
  // through the vector loops, and the fused fill loop is bypassed.
  const auto caps = uniform_capacities(4096, 2);
  for (const std::uint32_t d : {2u, 3u}) {
    GameConfig cfg;
    cfg.choices = d;
    expect_on_matches_off(caps, cfg, 7 + d);
  }
}

TEST(SimdEquality, FusedFillCutoverBoundary) {
  // The d = 2 fused fill+resolve loop is gated on n <= 2048 bins: n = 2048
  // runs fused, n = 2049 runs the separate fill-then-resolve phases. Both
  // must match scalar (and the goldens pin that they match each other's
  // draw order too).
  for (const std::size_t half : {std::size_t{1024}, std::size_t{1025}}) {
    GameConfig cfg;
    expect_on_matches_off(two_class_capacities(half, 1, half, 10), cfg, 1000 + half);
  }
}

TEST(SimdEquality, MultiplyWidthBoundaries) {
  // The comparison kernels pick a multiply width from the capacity and
  // committed-count ranges: all-32-bit operands, 32-bit capacities with
  // 64-bit numerators, and full 64x64. Capacities at 2^31 / 2^32 sit right
  // on the promotion edges. Ball counts are explicit — m = C would take
  // hours at these capacities and add nothing.
  const std::uint64_t big31 = std::uint64_t{1} << 31;
  const std::uint64_t big33 = std::uint64_t{1} << 33;
  for (const std::uint64_t cap : {big31 - 1, big31, big33}) {
    for (const std::uint32_t d : {2u, 3u}) {
      GameConfig cfg;
      cfg.choices = d;
      cfg.balls = 1500;
      expect_on_matches_off(two_class_capacities(100, cap / 8, 100, cap), cfg, 17 + d);
    }
  }
}

TEST(SimdEquality, WeightedGameSweep) {
  // 600 bins keep the scalar alias fill; 2,500 bins (above the 2,048-bin
  // crossover) take the vector one on the kOn side.
  struct Input {
    std::vector<std::uint64_t> caps;
    std::uint64_t balls;
  };
  const BallSizeModel sizes = BallSizeModel::uniform_range(1, 4);
  for (const Input& in : {Input{two_class_capacities(400, 2, 200, 8), 2000},
                          Input{two_class_capacities(1500, 2, 1000, 8), 6000}}) {
    const BinSampler sampler =
        BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), in.caps);
    for (const std::uint32_t d : {2u, 3u, 4u}) {
      for (const TieBreak tb : kAllTieBreaks) {
        GameConfig cfg;
        cfg.choices = d;
        cfg.tie_break = tb;
        cfg.stream = RngStream::kV2;
        cfg.balls = in.balls;

        cfg.simd = SimdMode::kOff;
        WeightedBinArray off_bins(in.caps);
        Xoshiro256StarStar off_rng(88 + d);
        play_weighted_game(off_bins, sampler, sizes, cfg, off_rng);

        cfg.simd = SimdMode::kOn;
        WeightedBinArray on_bins(in.caps);
        Xoshiro256StarStar on_rng(88 + d);
        play_weighted_game(on_bins, sampler, sizes, cfg, on_rng);

        EXPECT_EQ(off_bins.weights(), on_bins.weights()) << "d=" << d << " n=" << in.caps.size();
        EXPECT_EQ(off_rng.next(), on_rng.next()) << "d=" << d << " n=" << in.caps.size();
      }
    }
  }
}

TEST(SimdEquality, ReportedImplIsScalarWhenOff) {
  const auto caps = two_class_capacities(50, 1, 50, 10);
  const BinSampler sampler =
      BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
  BinArray bins(caps);
  GameConfig cfg;
  cfg.stream = RngStream::kV2;
  cfg.simd = SimdMode::kOff;
  const PlacementKernel kernel(bins, sampler, cfg, 100);
  EXPECT_EQ(kernel.simd_impl(), SimdImpl::kScalar);
}

TEST(SimdEquality, DispatchInstallsTheVectorLoopsUnderOn) {
  // simd_impl() reports what bulk runs execute. Under kOn the vector loops
  // exist only for stream v2 at the 64-bit comparison width with
  // independent choices; every other shape must report scalar.
  const auto caps = two_class_capacities(50, 1, 50, 10);
  const BinSampler sampler =
      BinSampler::from_policy(SelectionPolicy::proportional_to_capacity(), caps);
  const auto installed = [&](GameConfig cfg, std::uint64_t planned, bool fast64) {
    cfg.simd = SimdMode::kOn;
    BinArray bins(caps);
    const PlacementKernel kernel(bins, sampler, cfg, planned);
    EXPECT_EQ(kernel.uses_fast64_path(), fast64) << "d=" << cfg.choices;
    return kernel.simd_impl();
  };
  GameConfig v2;
  v2.stream = RngStream::kV2;

  GameConfig v1 = v2;
  v1.stream = RngStream::kV1;
  EXPECT_EQ(installed(v1, 100, true), SimdImpl::kScalar);
  GameConfig distinct = v2;
  distinct.distinct_choices = true;
  EXPECT_EQ(installed(distinct, 100, true), SimdImpl::kScalar);
  // A horizon of 2^62 balls into capacity-10 bins overflows 64-bit cross
  // products, so the kernel compares at 128 bits.
  EXPECT_EQ(installed(v2, std::uint64_t{1} << 62, false), SimdImpl::kScalar);

  if (resolve_simd(SimdMode::kOn) != SimdImpl::kAvx2) {
    GTEST_SKIP() << "AVX2 kernels unavailable on this host";
  }
  for (const std::uint32_t d : {1u, 2u, 3u, 4u}) {
    GameConfig cfg = v2;
    cfg.choices = d;
    EXPECT_EQ(installed(cfg, 100, true), SimdImpl::kAvx2) << "d=" << d;
  }
}

// --- registry sweep --------------------------------------------------------

std::string shard_json(const Scenario& scenario, ScenarioSpec spec, SimdMode simd) {
  spec.game.simd = simd;
  std::ostringstream os;
  JsonWriter w(os);
  scenario.run_shard(spec, w);
  EXPECT_TRUE(w.complete()) << scenario.name();
  return os.str();
}

TEST(SimdEquality, EveryRegistryExperimentProducesIdenticalShardState) {
  // The end-to-end form of the contract: the exact JSON bytes nubb_run
  // ships between processes must not depend on the SIMD setting, for every
  // registered experiment, on both streams.
  for (const Scenario* scenario : ScenarioRegistry::global().list()) {
    for (const RngStream stream : {RngStream::kV1, RngStream::kV2}) {
      ScenarioSpec spec;
      spec.capacities = two_class_capacities(16, 1, 16, 10);
      spec.exp.replications = 40;
      spec.exp.base_seed = 0xCAFE;
      spec.checkpoint_interval = 24;  // gap-trace needs one; others ignore it
      spec.game.stream = stream;
      EXPECT_EQ(shard_json(*scenario, spec, SimdMode::kOff),
                shard_json(*scenario, spec, SimdMode::kOn))
          << scenario->name() << " stream=" << (stream == RngStream::kV2 ? "v2" : "v1");
    }
  }
}

// --- sharded service -------------------------------------------------------

SnapshotResponse served_state(std::size_t shards, SimdMode simd) {
  ServiceConfig cfg;
  cfg.capacities = two_class_capacities(30, 1, 30, 4);
  cfg.seed = 42;
  cfg.game.stream = RngStream::kV2;
  cfg.game.simd = simd;
  cfg.service_shards = shards;
  PlacementService service(cfg);
  // Singles interleaved with batches so both request paths commit.
  const std::vector<std::uint64_t> log = {1, 5, 1, 10, 1, 8, 1, 15, 1, 6,
                                          1, 20, 1, 9, 1, 12, 1, 7, 1, 18};
  for (std::uint64_t ticket = 0; ticket < log.size(); ++ticket) {
    if (log[ticket] == 1) {
      service.place(PlaceRequest{ticket, 1});
    } else {
      service.batch_place(BatchPlaceRequest{ticket, log[ticket], 1});
    }
  }
  return service.snapshot();
}

TEST(SimdEquality, ShardedServiceSnapshotsMatch) {
  // S = 2 splits the bins into two sub-kernels with independent RNG
  // streams and their own SIMD dispatch; the served fingerprint must not
  // notice. S = 1 pins the coarse-lock service too.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_EQ(served_state(shards, SimdMode::kOff), served_state(shards, SimdMode::kOn))
        << "shards=" << shards;
  }
}

// --- RunMeta provenance ----------------------------------------------------

TEST(SimdEquality, RunMetaSimdRoundTripsThroughJson) {
  RunMeta meta;
  meta.experiment = "max-load";
  meta.n = 4;
  meta.total_capacity = 10;
  meta.replications = 3;
  meta.simd = "avx2";
  std::ostringstream os;
  {
    JsonWriter w(os);
    meta.to_json(w);
  }
  const RunMeta parsed = RunMeta::from_json(JsonValue::parse(os.str()));
  EXPECT_EQ(parsed, meta);
  EXPECT_EQ(parsed.simd, "avx2");
}

TEST(SimdEquality, MergeKeyMasksSimdLikeHugePages) {
  // Scalar and AVX2 shard files are bit-identical, so a shard set may mix
  // them: the merge compatibility key resets the provenance fields.
  RunMeta scalar_meta;
  scalar_meta.experiment = "max-load";
  RunMeta avx2_meta = scalar_meta;
  avx2_meta.simd = "avx2";
  avx2_meta.huge_pages = "on";
  EXPECT_FALSE(scalar_meta == avx2_meta);
  EXPECT_EQ(scalar_meta.merge_key(), avx2_meta.merge_key());
  EXPECT_EQ(avx2_meta.merge_key().simd, "scalar");
}

}  // namespace
}  // namespace nubb
