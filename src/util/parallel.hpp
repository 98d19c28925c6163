#pragma once

/// \file parallel.hpp
/// Deterministic parallel execution of Monte-Carlo replications: the chunk
/// layout and `replication_chunk_states`, the one function that runs the
/// chunks, under the replication engine of core/experiment.hpp.
///
/// The contract that makes experiments reproducible:
///   * replication k always receives `seed_for_replication(base_seed, k)`;
///   * replications are partitioned into a fixed number of contiguous chunks
///     (`kReplicationChunks`, independent of the thread count), and each
///     chunk folds its replications into its own accumulator, which callers
///     merge in chunk order — so the result is bit-identical for any
///     ThreadPool size, including 1.
///
/// The same contract extends across processes: the chunk layout
/// (`ChunkLayout`) is a pure function of (replications, chunk_count), so a
/// shard that runs only the chunks in `shard_chunk_range` produces per-chunk
/// accumulators identical to the ones a single-process run would have built
/// for those chunks. Folding all shards' chunk states in global chunk order
/// then replays the single-process merge sequence exactly — floating-point
/// grouping included — which is what the replication engine
/// (`experiment.hpp`'s `replicate_shard` / `merge_shards`, and every runner
/// and scenario on top of it) builds on.

#include <algorithm>
#include <cstdint>
#include <future>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nubb {

/// Default number of contiguous replication chunks. Fixed (rather than a
/// multiple of the worker count) so the floating-point merge grouping — and
/// with it every golden value — is invariant under the thread count. 16
/// preserves the PR-1 golden layout (recorded with a 4-thread pool and the
/// then-current `workers * 4` rule) and still saturates pools of up to 16
/// workers; chunks are equal-sized, so coarser chunking costs no balance.
inline constexpr std::uint64_t kReplicationChunks = 16;

/// Resolved contiguous chunk layout for a replication range. `chunk_count`
/// counts only non-empty chunks, so indices [0, chunk_count) enumerate
/// exactly the chunks a run executes; the boundaries are identical to the
/// historic inline computation, so every golden value is preserved.
struct ChunkLayout {
  std::uint64_t replications = 0;
  std::uint64_t chunk_count = 0;
  std::uint64_t per_chunk = 0;

  std::uint64_t begin(std::uint64_t chunk) const noexcept { return chunk * per_chunk; }
  std::uint64_t end(std::uint64_t chunk) const noexcept {
    return std::min(begin(chunk) + per_chunk, replications);
  }
};

/// Layout for `replications` trials split into (at most) `chunk_count`
/// chunks; 0 requests the pinned kReplicationChunks default.
inline ChunkLayout make_chunk_layout(std::uint64_t replications,
                                     std::uint64_t chunk_count = kReplicationChunks) {
  ChunkLayout layout;
  layout.replications = replications;
  if (replications == 0) return layout;
  if (chunk_count == 0) chunk_count = kReplicationChunks;
  const std::uint64_t chunks = std::min<std::uint64_t>(chunk_count, replications);
  layout.per_chunk = (replications + chunks - 1) / chunks;
  // Ceil rounding can leave trailing chunks empty (e.g. 100 replications in
  // 16 requested chunks -> 15 chunks of 7); count only the real ones.
  layout.chunk_count = (replications + layout.per_chunk - 1) / layout.per_chunk;
  return layout;
}

/// The contiguous range [first, last) of chunk indices that shard
/// `shard_index` of `shard_count` owns. Balanced split; shards beyond the
/// chunk count get empty ranges. \pre shard_index < shard_count.
inline std::pair<std::uint64_t, std::uint64_t> shard_chunk_range(std::uint64_t chunk_count,
                                                                 std::uint64_t shard_index,
                                                                 std::uint64_t shard_count) {
  return {shard_index * chunk_count / shard_count,
          (shard_index + 1) * chunk_count / shard_count};
}

/// Run the replication chunks [chunk_first, chunk_last) of `layout` in
/// parallel and return each chunk's accumulator, keyed by global chunk
/// index, in chunk order. This is the primitive under both in-process runs
/// (which fold the states immediately) and shard runs (which serialize
/// them): chunk states never depend on which process or thread computed
/// them.
///
/// `make_context()` is invoked once per chunk (on the worker) to build
/// scratch state — bin arrays, reusable buffers — that
/// `body(rep_index, rng, context, acc)` may mutate freely across the
/// chunk's replications; contexts never migrate between chunks.
///
/// NUMA/first-touch contract: because make_context runs *on the worker
/// thread that will execute the chunk*, any storage it allocates and writes
/// (AlignedBuffer hands out uninitialized pages precisely so the owner's
/// first write is the first touch) is faulted into physical pages local to
/// that worker's NUMA node under the kernel's default first-touch policy.
/// Per-chunk BinArray slot state therefore stays node-local for the chunk's
/// whole lifetime without any explicit NUMA API — contexts never migrate.
///
/// `Acc` requirements: default-constructible; callers fold the returned
/// states with `void merge(const Acc&)` in chunk order.
template <typename Acc, typename MakeContext, typename Body>
std::vector<std::pair<std::uint64_t, Acc>> replication_chunk_states(
    const ChunkLayout& layout, std::uint64_t base_seed, MakeContext make_context, Body body,
    std::uint64_t chunk_first, std::uint64_t chunk_last, ThreadPool* pool = nullptr) {
  std::vector<std::pair<std::uint64_t, Acc>> states;
  chunk_last = std::min(chunk_last, layout.chunk_count);
  if (chunk_first >= chunk_last) return states;
  ThreadPool& tp = pool ? *pool : global_thread_pool();

  std::vector<std::future<Acc>> partials;
  partials.reserve(chunk_last - chunk_first);
  for (std::uint64_t c = chunk_first; c < chunk_last; ++c) {
    const std::uint64_t begin = layout.begin(c);
    const std::uint64_t end = layout.end(c);
    partials.push_back(tp.submit([begin, end, base_seed, &make_context, &body]() {
      Acc local;
      auto context = make_context();
      for (std::uint64_t rep = begin; rep < end; ++rep) {
        Xoshiro256StarStar rng(seed_for_replication(base_seed, rep));
        body(rep, rng, context, local);
      }
      return local;
    }));
  }
  states.reserve(partials.size());
  for (std::uint64_t c = chunk_first; c < chunk_last; ++c) {
    states.emplace_back(c, partials[c - chunk_first].get());
  }
  return states;
}

}  // namespace nubb
