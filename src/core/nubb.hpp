#pragma once

/// \file nubb.hpp
/// The public facade: every supported entry point of the library, one
/// include. Applications and examples include only this header; anything
/// not re-exported here is an internal layer whose spelling may change
/// between PRs without notice.
///
/// Quickstart:
/// \code
///   #include "core/nubb.hpp"
///   using namespace nubb;
///
///   auto caps = two_class_capacities(/*n_small=*/900, /*c_small=*/1,
///                                    /*n_large=*/100, /*c_large=*/10);
///   GameConfig game;              // d = 2, Algorithm 1 tie-break, m = C
///   ExperimentConfig exp;         // 1000 replications, fixed seed
///   Summary s = max_load_summary(caps, SelectionPolicy::proportional_to_capacity(),
///                                game, exp);
///   // s.mean is the expected maximum load
/// \endcode

// --- the game ---------------------------------------------------------------

// BinSlot / BinArray / WeightedBinArray — the system state: n bins with
// integer capacities, ball counts (or accumulated weights), the running
// maximum load, and a state fingerprint() two processes can compare.
#include "core/bin_array.hpp"
#include "core/weighted.hpp"

// BinRange / partition_bins / BinArrayView — deterministic contiguous bin
// sub-ranges and non-owning slot views, the state layer under the sharded
// placement service (fingerprints fold across ranges in order).
#include "core/bin_range.hpp"

// Load — exact rational loads (balls/capacity) compared without rounding.
#include "core/load.hpp"

// GameConfig / play_game / play_weighted_game — one sequential game of the
// paper's Algorithm 1: d choices, tie-break rule, RNG stream, memory
// layout, checkpoint hooks.
#include "core/game.hpp"

// PlacementKernel — the fused draw/choose/commit hot path behind
// play_game, the serving daemon, and every driver below. Construct one
// per game; place_one()/run() are the supported placement entry points.
#include "core/placement_kernel.hpp"

// SelectionPolicy / probability helpers — how the d candidate bins are
// drawn (proportional to capacity, uniform, capacity powers, top-only).
#include "core/probability.hpp"

// BinSampler / AliasTable plumbing — materialised sampling distributions;
// build them once per capacity vector via BinSampler::from_policy.
#include "core/sampler.hpp"

// two_class_capacities / from_classes / zipf_capacities / ... — capacity
// vector builders for the paper's populations.
#include "core/builder.hpp"

// place_one_ball / choose_destination — the historic per-ball reference
// protocol the kernel is golden-locked against.
#include "core/protocol.hpp"

// --- experiments ------------------------------------------------------------

// ExperimentConfig / max_load_summary / replication engine — Monte-Carlo
// replication with deterministic per-chunk seeding, in process.
#include "core/experiment.hpp"

// Scenario / ScenarioRegistry / RunMeta — named experiments behind
// nubb_run and the one API for runs sharded across processes:
// registration, shard-state serialisation, merge & report.
#include "core/scenario.hpp"

// Metrics / load-vector folds over finished games.
#include "core/load_vector.hpp"
#include "core/metrics.hpp"

// Batched arrivals, dynamic bin growth, reallocation protocols, and the
// Section 4.5 exponent search — the paper's variant processes.
#include "core/batched.hpp"
#include "core/exponent_search.hpp"
#include "core/growth.hpp"
#include "core/reallocation.hpp"

// --- theory and baselines ---------------------------------------------------

// Theorem 1/2 bounds and exact small-case references — what the
// experiments are checked against.
#include "theory/bounds.hpp"

// Consistent hashing — the classic DHT baseline the paper's protocol is
// compared to (examples/p2p_ring.cpp).
#include "baselines/consistent_hashing.hpp"

// --- serving ----------------------------------------------------------------

// Channel / StreamChannel / frame constants — the framed, versioned wire
// transport (docs/serving.md).
#include "net/channel.hpp"

// Request/response structs, send_message / round_trip — the serving wire
// API shared by nubb_serve and every client.
#include "net/protocol.hpp"

// PlacementService — live bin state behind the kernel, answering the wire
// API over any Channel (in-process for tests, sockets for the daemon).
#include "net/service.hpp"
