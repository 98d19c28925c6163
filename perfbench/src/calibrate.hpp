#pragma once

/// \file calibrate.hpp
/// Frozen calibration loops and the speed gate. Single-thread speed on a
/// small shared VM switches between a fast and a slow mode, separately on
/// each vCPU, so a raw rate measured in one process says as much about the
/// machine as about the program. Each offline workload therefore alternates
/// its trials (tens of ms and up) with a fixed loop that shares the
/// workload's bottleneck, on the same pinned thread, and reports raw x
/// (nominal / adjacent calibration rate). Operations of a few µs (requests,
/// placement bursts) go through the SpeedGate instead, which keeps those
/// that ran while the machine was at full speed.
///
/// The loops, the gate, their sizes and the nominal rates are part of the
/// benchmark definition: changing any of them changes the numbers.

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/memory.hpp"

namespace perfbench {

enum class CalibKind {
  kCache,  ///< 8 KiB splitmix-and-update loop: L1/L2-bound, like fig6_mc
  kDram,   ///< random read-modify-write over 512 MiB: out of L3, like bins16m_d3
  kSetup,  ///< a frozen reference set-up (alias build + slot array, 1000 bins):
           ///< the allocation and floating-point mix of fig6_mc's set-up
};

class Calibrator {
 public:
  explicit Calibrator(CalibKind kind);

  /// Run the loop once and return its rate (updates, or reference set-ups,
  /// per second); the rate is also appended to rates().
  double run();

  /// Pinned reference rate the normalisation divides by.
  double nominal() const noexcept;
  /// Bytes the loop keeps resident (subtracted from the process peak RSS).
  std::size_t buffer_bytes() const noexcept { return buf_.size() * sizeof(std::uint64_t); }
  const char* name() const noexcept;
  const std::vector<double>& rates() const noexcept { return rates_; }

  /// Write `key: {"loop", "nominal", "rates"}` into an open JSON object.
  void write_json(nubb::JsonWriter& w, const std::string& key) const;

  /// Factor turning a raw rate measured between two calibration runs into a
  /// normalised one: nominal / mean(before, after). A raw time is divided
  /// by it.
  double factor(double before, double after) const noexcept {
    return nominal() / (0.5 * (before + after));
  }

 private:
  CalibKind kind_;
  nubb::AlignedBuffer<std::uint64_t> buf_;
  std::uint64_t state_ = 0x5EED;
  std::uint64_t sink_ = 0;
  std::vector<double> rates_;
};

/// The two halves of one speed-gate chunk, in ns (walk_ns is 0 for a
/// compute-only gate).
struct GateTick {
  std::uint32_t compute_ns = 0;
  std::uint32_t walk_ns = 0;
};

/// One short operation (a request round trip, a burst of placements) with
/// the gate chunks timed just before and just after it.
struct GatedSample {
  double value = 0.0;
  GateTick before;
  GateTick after;
};

/// Per-operation speed gate for operations far shorter than the swings in
/// the machine's speed. The slow mode of a shared vCPU (about 1.8x slower,
/// most likely a busy hyperthread sibling on the host) comes and goes in
/// stretches of a millisecond
/// or more, and DRAM latency rises by a sixth or more while other guests
/// stream memory; so a short frozen chunk run between two operations on the
/// same pinned vCPU tells how fast the machine was for each operation. Each
/// chunk has a compute half (~3 µs of splitmix updates in 8 KiB), which sees
/// the vCPU mode, and optionally a walk half (48 dependent loads over a
/// borrowed out-of-L3 buffer), which sees memory latency. An operation is
/// kept when every half of both neighbouring chunks ran within kSlack of the
/// run's full-speed time for that half (its kRefQuantile: the very fastest
/// chunks are rare flukes); the others measured the host's load, not the
/// program. A gate with a walk half also scales the kept values by
/// kNominalWalkNs over the walk's full-speed time: the host's DRAM latency
/// level moves that time from run to run (by up to 14% over three runs),
/// and DRAM-bound operations with it. Chunk times go to fixed histograms, so the
/// gate's memory never varies.
class SpeedGate {
 public:
  static constexpr double kRefQuantile = 0.01;
  static constexpr double kSlack = 0.12;
  /// When fewer operations than this share ran at full speed, those with
  /// the fastest neighbours are kept instead.
  static constexpr double kMinKeep = 0.02;
  /// Full-speed time of the walk half the kept values are scaled to: a
  /// typical reading on the 4-vCPU KVM guest the benchmark was built on.
  static constexpr double kNominalWalkNs = 8500.0;

  /// A compute-only gate.
  SpeedGate();
  /// A gate that also walks `words` (a power of two) words at `walk`, which
  /// must outlive the gate.
  SpeedGate(const std::uint64_t* walk, std::size_t words);
  /// Run and time one chunk.
  GateTick chunk();
  /// `value` paired with the chunk timed before it and a fresh one after;
  /// the fresh chunk is also the next sample's `before`.
  GatedSample sample(double value);
  /// Start a sequence of samples: times the chunk that precedes the first.
  void open() { last_ = chunk(); }

  /// Values of the samples run at full speed (see the class comment).
  std::vector<double> kept(const GatedSample* samples, std::size_t n) const;
  std::vector<double> kept(const std::vector<GatedSample>& samples) const {
    return kept(samples.data(), samples.size());
  }
  /// Full-speed time (ns) of the compute (0) or walk (1) half: the
  /// kRefQuantile of all chunks so far.
  double reference_ns(int half) const;

 private:
  std::vector<std::uint64_t> buf_;       ///< the compute half's buffer
  const std::uint64_t* walk_ = nullptr;  ///< the walk half's buffer
  std::size_t walk_mask_ = 0;
  std::uint64_t state_ = 0x5EED;
  std::uint64_t sink_ = 0;
  GateTick last_;
  std::vector<std::uint64_t> hist_[2];  ///< chunk counts per bucket, per half
  std::uint64_t chunks_ = 0;
};

/// The CPUs the calling thread may run on now.
cpu_set_t allowed_cpus();

/// Pin the calling thread (and every thread or process it creates
/// afterwards) to the CPU of `allowed` on which the speed gate's compute
/// chunk currently runs fastest (median of ~1 ms of chunks on each). The
/// slow mode is per vCPU and can hold one for seconds while another runs
/// at full speed. Returns the CPU, or -1 when pinning failed.
int pin_to_fastest_cpu(const cpu_set_t& allowed);

}  // namespace perfbench
