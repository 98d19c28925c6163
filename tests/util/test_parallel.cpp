#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "util/stats.hpp"

namespace nubb {
namespace {

/// Accumulator used across the tests: sums per-replication values.
struct SumAcc {
  double sum = 0.0;
  std::uint64_t count = 0;
  void merge(const SumAcc& other) {
    sum += other.sum;
    count += other.count;
  }
};

/// Mergeable wrapper around RunningStats.
struct RunningStatsAcc {
  RunningStats stats;
  void merge(const RunningStatsAcc& other) { stats.merge(other.stats); }
};

/// Run `replications` trials of `body(rep, rng, acc)` over the default
/// chunk layout and fold the chunk states into `out` in chunk order, as the
/// replication engine does.
template <typename Acc, typename Body>
void run_replications(std::uint64_t replications, std::uint64_t base_seed, Body body, Acc& out,
                      ThreadPool* pool) {
  struct NoContext {};
  const ChunkLayout layout = make_chunk_layout(replications);
  const auto states = replication_chunk_states<Acc>(
      layout, base_seed, [] { return NoContext{}; },
      [&body](std::uint64_t rep, Xoshiro256StarStar& rng, NoContext&, Acc& local) {
        body(rep, rng, local);
      },
      0, layout.chunk_count, pool);
  for (const auto& state : states) out.merge(state.second);
}

TEST(ParallelReplicationsTest, RunsEveryReplicationExactlyOnce) {
  ThreadPool pool(3);
  SumAcc acc;
  std::atomic<std::uint64_t> executions{0};
  run_replications(
      257, 42,
      [&executions](std::uint64_t rep, Xoshiro256StarStar&, SumAcc& local) {
        executions.fetch_add(1);
        local.sum += static_cast<double>(rep);
        local.count += 1;
      },
      acc, &pool);
  EXPECT_EQ(executions.load(), 257u);
  EXPECT_EQ(acc.count, 257u);
  EXPECT_DOUBLE_EQ(acc.sum, 256.0 * 257.0 / 2.0);
}

TEST(ParallelReplicationsTest, ZeroReplicationsIsNoop) {
  ThreadPool pool(2);
  SumAcc acc;
  run_replications(
      0, 1, [](std::uint64_t, Xoshiro256StarStar&, SumAcc&) { FAIL(); }, acc, &pool);
  EXPECT_EQ(acc.count, 0u);
}

TEST(ParallelReplicationsTest, ResultIndependentOfThreadCount) {
  auto run_with = [](std::size_t threads) {
    ThreadPool pool(threads);
    RunningStatsAcc acc;
    run_replications(
        500, 123,
        [](std::uint64_t, Xoshiro256StarStar& rng, RunningStatsAcc& local) {
          local.stats.add(rng.next_double());
        },
        acc, &pool);
    return acc.stats;
  };
  const RunningStats a = run_with(1);
  const RunningStats b = run_with(4);
  EXPECT_EQ(a.count(), b.count());
  // Same seeds => identical samples; merge order may differ, so compare with
  // tiny fp tolerance.
  EXPECT_NEAR(a.mean(), b.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), b.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), b.min());
  EXPECT_DOUBLE_EQ(a.max(), b.max());
}

TEST(ParallelReplicationsTest, ReplicationSeedsAreStable) {
  // The RNG handed to replication k must depend only on (base_seed, k).
  ThreadPool pool(2);
  struct VecAcc {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> draws;
    void merge(const VecAcc& o) { draws.insert(draws.end(), o.draws.begin(), o.draws.end()); }
  };
  VecAcc acc;
  run_replications(
      10, 77,
      [](std::uint64_t rep, Xoshiro256StarStar& rng, VecAcc& local) {
        local.draws.emplace_back(rep, rng.next());
      },
      acc, &pool);
  ASSERT_EQ(acc.draws.size(), 10u);
  for (const auto& [rep, draw] : acc.draws) {
    Xoshiro256StarStar expected(seed_for_replication(77, rep));
    EXPECT_EQ(draw, expected.next());
  }
}

TEST(ParallelReplicationsTest, BodyExceptionsPropagateToCaller) {
  // A failing replication must fail the whole experiment loudly, not get
  // swallowed by a worker thread.
  ThreadPool pool(2);
  SumAcc acc;
  EXPECT_THROW(run_replications(
                   50, 9,
                   [](std::uint64_t rep, Xoshiro256StarStar&, SumAcc&) {
                     if (rep == 17) throw std::runtime_error("injected failure");
                   },
                   acc, &pool),
               std::runtime_error);
}

}  // namespace
}  // namespace nubb
