/// The served-state determinism contract (docs/serving.md): a request log
/// replayed through PlacementService leaves bit-identical bin state to an
/// offline play_game over the same ball sequence — for one session, for N
/// concurrent ticketed sessions, and regardless of how the log splits the
/// balls into requests (stream v1; stream v2 at kernel-run boundaries).

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "core/bin_array.hpp"
#include "core/game.hpp"
#include "core/placement_kernel.hpp"
#include "core/sampler.hpp"
#include "core/weighted.hpp"
#include "net/protocol.hpp"
#include "net/service.hpp"
#include "util/rng.hpp"

namespace nubb {
namespace {

constexpr std::uint64_t kSeed = 42;

ServiceConfig make_config(RngStream stream) {
  ServiceConfig cfg;
  // Two capacity classes so tie-breaks and the proportional sampler both
  // matter; m = C = 150 keeps the test fast.
  cfg.capacities.assign(30, 1);
  cfg.capacities.insert(cfg.capacities.end(), 30, 4);
  cfg.seed = kSeed;
  cfg.game.stream = stream;
  return cfg;
}

/// The ground truth: the offline sequential game over the same config.
BinArray offline_game(const ServiceConfig& cfg, std::uint64_t balls) {
  BinArray bins(cfg.capacities, cfg.game.memory);
  const BinSampler sampler = BinSampler::from_policy(cfg.policy, cfg.capacities);
  GameConfig game = cfg.game;
  game.balls = balls;
  Xoshiro256StarStar rng(cfg.seed);
  play_game(bins, sampler, game, rng, /*checkpoint_interval=*/0);
  return bins;
}

void expect_snapshot_matches(const SnapshotResponse& snap, const BinArray& reference) {
  EXPECT_EQ(snap.total_balls, reference.total_balls());
  EXPECT_EQ(snap.counts, reference.ball_counts());
  EXPECT_EQ(snap.fingerprint, reference.fingerprint());
  EXPECT_EQ(snap.max_load_num, reference.max_load().balls);
  EXPECT_EQ(snap.max_load_cap, reference.max_load().capacity);
}

TEST(ServeDeterminism, V1ArbitraryRequestSplitsMatchOfflineGame) {
  const ServiceConfig cfg = make_config(RngStream::kV1);
  PlacementService service(cfg);

  // 150 balls split unevenly across singles and batches — under stream v1
  // the request boundaries must be invisible to the realised allocation.
  const std::vector<std::uint64_t> batches{1, 7, 13, 29, 50, 37};
  std::uint64_t total = 0;
  for (const std::uint64_t b : batches) {
    if (b == 1) {
      service.place(PlaceRequest{});
    } else {
      service.batch_place(BatchPlaceRequest{kNoTicket, b, 1});
    }
    total += b;
  }
  EXPECT_EQ(total, 137u);
  for (int i = 0; i < 13; ++i) service.place(PlaceRequest{});

  expect_snapshot_matches(service.snapshot(), offline_game(cfg, 150));
}

TEST(ServeDeterminism, V1SplitChoiceNeverMovesABall) {
  const ServiceConfig cfg = make_config(RngStream::kV1);
  PlacementService one_batch(cfg);
  one_batch.batch_place(BatchPlaceRequest{kNoTicket, 120, 1});

  PlacementService singles(cfg);
  for (int i = 0; i < 120; ++i) singles.place(PlaceRequest{});

  EXPECT_EQ(one_batch.snapshot(), singles.snapshot());
}

TEST(ServeDeterminism, V2SingleBatchMatchesOfflineGame) {
  // Stream v2 draws RNG blocks per kernel run, so the contract is weaker:
  // state matches offline when request boundaries coincide with run
  // boundaries — one BatchPlace(m) against one uninterrupted play_game.
  const ServiceConfig cfg = make_config(RngStream::kV2);
  PlacementService service(cfg);
  service.batch_place(BatchPlaceRequest{kNoTicket, 150, 1});

  expect_snapshot_matches(service.snapshot(), offline_game(cfg, 150));
}

TEST(ServeDeterminism, ConcurrentTicketedSessionsMatchOfflineGame) {
  const ServiceConfig cfg = make_config(RngStream::kV1);
  PlacementService service(cfg);

  // N clients replay a fixed global order: client i holds tickets
  // i, i + N, i + 2N, ... Each runs a full serve() session on its own
  // thread; the ticket gate must serialise the commits into 0, 1, 2, ...
  // no matter how the scheduler interleaves the sessions.
  constexpr std::uint64_t kClients = 4;
  constexpr std::uint64_t kBalls = 150;

  std::vector<std::stringstream> to_server(kClients);
  std::vector<std::stringstream> from_server(kClients);
  for (std::uint64_t c = 0; c < kClients; ++c) {
    StreamChannel writer(to_server[c], to_server[c]);
    for (std::uint64_t ticket = c; ticket < kBalls; ticket += kClients) {
      send_message(writer, PlaceRequest{ticket, 1});
    }
  }

  std::vector<SessionResult> results(kClients);
  {
    std::vector<std::thread> sessions;
    sessions.reserve(kClients);
    for (std::uint64_t c = 0; c < kClients; ++c) {
      sessions.emplace_back([&, c] {
        StreamChannel channel(to_server[c], from_server[c]);
        results[c] = service.serve(channel);
      });
    }
    for (std::thread& t : sessions) t.join();
  }

  std::uint64_t answered = 0;
  for (const SessionResult& r : results) answered += r.requests;
  EXPECT_EQ(answered, kBalls);

  // Every response on every session must be a successful placement.
  for (std::uint64_t c = 0; c < kClients; ++c) {
    StreamChannel reader(from_server[c], from_server[c]);
    Frame frame;
    while (reader.receive_frame(frame)) {
      ASSERT_EQ(frame.type, MessageType::kPlaceResponse);
    }
  }

  expect_snapshot_matches(service.snapshot(), offline_game(cfg, kBalls));
}

TEST(ServeDeterminism, ConcurrentTicketedBatchesMatchOfflineGame) {
  // Same gate, coarser grain: tickets order whole batches.
  const ServiceConfig cfg = make_config(RngStream::kV1);
  PlacementService service(cfg);

  constexpr std::uint64_t kClients = 3;
  const std::vector<std::uint64_t> batch_sizes{10, 25, 5, 40, 20, 50};  // 150 total

  std::vector<std::thread> sessions;
  sessions.reserve(kClients);
  for (std::uint64_t c = 0; c < kClients; ++c) {
    sessions.emplace_back([&, c] {
      for (std::uint64_t ticket = c; ticket < batch_sizes.size(); ticket += kClients) {
        service.batch_place(BatchPlaceRequest{ticket, batch_sizes[ticket], 1});
      }
    });
  }
  for (std::thread& t : sessions) t.join();

  expect_snapshot_matches(service.snapshot(), offline_game(cfg, 150));
}

// --- sharded replay: schedule invariance at 8 and 16 sessions ---------------

/// Apply one logged op under its ticket: count == 1 is a single Place,
/// anything larger a BatchPlace. Total balls stay within the 150-capacity
/// horizon of make_config.
void apply_op(PlacementService& service, std::uint64_t ticket, std::uint64_t count) {
  if (count == 1) {
    service.place(PlaceRequest{ticket, 1});
  } else {
    service.batch_place(BatchPlaceRequest{ticket, count, 1});
  }
}

/// The fixed mixed request log: singles interleaved with batches, 24 ops,
/// 150 balls — enough tickets for 16 sessions to all hold several.
std::vector<std::uint64_t> mixed_log() {
  return {1, 5, 1, 10, 1, 8, 1, 15, 1, 6, 1, 20, 1, 9, 1, 12, 1, 7, 1, 18, 1, 16, 1, 12};
}

/// The ground truth for a sharded service: the same log replayed one op at
/// a time on a second service with the same config. For a fixed S the
/// concurrent replay must land on this state bit for bit.
SnapshotResponse sequential_replay(const ServiceConfig& cfg,
                                   const std::vector<std::uint64_t>& log) {
  PlacementService reference(cfg);
  for (std::uint64_t ticket = 0; ticket < log.size(); ++ticket) {
    apply_op(reference, ticket, log[ticket]);
  }
  return reference.snapshot();
}

/// Replay the log through `clients` concurrent threads, client c holding
/// tickets c, c + clients, c + 2*clients, ...
SnapshotResponse concurrent_replay(const ServiceConfig& cfg, std::uint64_t clients,
                                   const std::vector<std::uint64_t>& log) {
  PlacementService service(cfg);
  std::vector<std::thread> sessions;
  sessions.reserve(clients);
  for (std::uint64_t c = 0; c < clients; ++c) {
    sessions.emplace_back([&, c] {
      for (std::uint64_t ticket = c; ticket < log.size(); ticket += clients) {
        apply_op(service, ticket, log[ticket]);
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  return service.snapshot();
}

TEST(ServeDeterminism, EightAndSixteenSessionsMatchOfflineGame) {
  // The S = 1 contract at scale: 144 single-ball tickets replayed by 8 and
  // then 16 concurrent sessions reproduce the offline sequential game.
  const ServiceConfig cfg = make_config(RngStream::kV1);
  const std::vector<std::uint64_t> log(144, 1);
  const BinArray reference = offline_game(cfg, 144);
  for (const std::uint64_t clients : {8u, 16u}) {
    expect_snapshot_matches(concurrent_replay(cfg, clients, log), reference);
  }
}

TEST(ServeDeterminism, ShardedMixedReplayIsScheduleInvariant) {
  // The S >= 2 contract: the served process differs from the offline
  // single-array game by design, but for a fixed S it is a deterministic
  // function of the ticketed log — 8 and 16 sessions interleaving singles
  // and batches land on the sequential replay bit for bit (operator== on
  // SnapshotResponse covers counts, fingerprint and the shard provenance).
  const std::vector<std::uint64_t> log = mixed_log();
  for (const std::size_t shards : {1u, 2u, 4u}) {
    ServiceConfig cfg = make_config(RngStream::kV1);
    cfg.service_shards = shards;
    const SnapshotResponse reference = sequential_replay(cfg, log);
    for (const std::uint64_t clients : {8u, 16u}) {
      EXPECT_EQ(concurrent_replay(cfg, clients, log), reference)
          << "S = " << shards << ", clients = " << clients;
    }
    if (shards == 1) {
      // ...and at S = 1 the sequential replay is itself the offline game.
      expect_snapshot_matches(reference, offline_game(cfg, 150));
    }
  }
}

// --- weighted placements vs the offline weighted kernel ----------------------

/// Offline ground truth for weighted serving: the same weighted kernel the
/// shard builds, run over `count` constant-weight balls.
WeightedBinArray offline_weighted(const ServiceConfig& cfg, std::uint64_t count,
                                  std::uint64_t weight, std::uint64_t max_weight) {
  WeightedBinArray bins(cfg.capacities, cfg.game.memory);
  const BinSampler sampler = BinSampler::from_policy(cfg.policy, cfg.capacities);
  GameConfig game = cfg.game;
  game.balls = 150;  // the service's resolved horizon (m = C)
  game.batch = 1;
  PlacementKernel kernel(bins, sampler, game, /*planned_balls=*/150, max_weight);
  Xoshiro256StarStar rng(cfg.seed);
  kernel.run_weighted(count, BallSizeModel::constant(weight), rng);
  return bins;
}

void expect_weighted_matches(const SnapshotResponse& snap, const WeightedBinArray& bins) {
  EXPECT_EQ(snap.total_balls, bins.total_weight());
  EXPECT_EQ(snap.counts, bins.weights());
  EXPECT_EQ(snap.fingerprint, bins.fingerprint());
  EXPECT_EQ(snap.max_load_num, bins.max_load().balls);
  EXPECT_EQ(snap.max_load_cap, bins.max_load().capacity);
}

TEST(ServeDeterminism, WeightedBatchesMatchOfflineRunWeighted) {
  // A constant ball-size model draws nothing, so served weight-3 batches
  // must walk the exact candidate sequence of an offline run_weighted over
  // the same seed — the weighted serving contract.
  ServiceConfig cfg = make_config(RngStream::kV1);
  cfg.max_weight = 3;
  PlacementService service(cfg);
  service.batch_place(BatchPlaceRequest{kNoTicket, 30, 3});
  service.batch_place(BatchPlaceRequest{kNoTicket, 20, 3});

  expect_weighted_matches(service.snapshot(), offline_weighted(cfg, 50, 3, 3));
}

TEST(ServeDeterminism, V2WeightedBatchMatchesOfflineRunWeighted) {
  // The daemon's default weighted path: under stream v2 one BatchPlace is
  // one kernel run, and the constant size model's v2 size phase draws
  // nothing, so a served weight-3 batch of 50 must equal one offline
  // run_weighted of 50 weight-3 balls over the same seed.
  ServiceConfig cfg = make_config(RngStream::kV2);
  cfg.max_weight = 3;
  PlacementService service(cfg);
  service.batch_place(BatchPlaceRequest{kNoTicket, 50, 3});

  expect_weighted_matches(service.snapshot(), offline_weighted(cfg, 50, 3, 3));
}

TEST(ServeDeterminism, WeightedSplitChoiceNeverMovesABall) {
  // Request batching is invisible for weighted balls too (stream v1), and
  // a single Place carrying weight w is the same commit as a 1-ball batch.
  ServiceConfig cfg = make_config(RngStream::kV1);
  cfg.max_weight = 2;

  PlacementService one_batch(cfg);
  one_batch.batch_place(BatchPlaceRequest{kNoTicket, 40, 2});

  PlacementService split(cfg);
  split.batch_place(BatchPlaceRequest{kNoTicket, 15, 2});
  for (int i = 0; i < 10; ++i) {
    PlaceRequest place;
    place.weight = 2;
    split.place(place);
  }
  split.batch_place(BatchPlaceRequest{kNoTicket, 15, 2});

  EXPECT_EQ(one_batch.snapshot(), split.snapshot());
  expect_weighted_matches(one_batch.snapshot(), offline_weighted(cfg, 40, 2, 2));
}

}  // namespace
}  // namespace nubb
