#pragma once

/// \file probe.hpp
/// What actually ran: process memory, huge-page backing read back from the
/// kernel, and the machine and build the numbers came from.

#include <sys/types.h>

#include <cstddef>
#include <string>

#include "common.hpp"

namespace perfbench {

/// VmHWM (peak resident set) of process `pid` in MiB; 0 pid = this process.
/// Returns -1 when it cannot be read.
double peak_rss_mib(pid_t pid = 0);

/// Share of [addr, addr + bytes) backed by AnonHugePages, from the
/// /proc/self/smaps entries of the mappings that overlap the range (each
/// mapping's AnonHugePages/Size ratio, weighted by its overlap). -1 when
/// smaps cannot be read.
double anon_huge_share(const void* addr, std::size_t bytes);

/// The selected transparent-huge-page mode ("always", "madvise", "never"),
/// or "unknown".
std::string thp_mode();

/// Last-level (L3) cache size in bytes, 0 when unknown.
std::size_t l3_bytes();

unsigned online_cpus();

/// CPU time the hypervisor has taken from this guest's vCPUs ("steal" in
/// /proc/stat), summed over all CPUs, in seconds; 0 when unknown.
double stolen_seconds();

/// Share of the guest's CPU time (all vCPUs) the hypervisor stole since
/// construction.
class StealMeter {
 public:
  StealMeter() : stolen_(stolen_seconds()), start_ns_(now_ns()) {}
  double share() const {
    const double cpu_s = seconds_since(start_ns_) * static_cast<double>(online_cpus());
    return cpu_s > 0.0 ? (stolen_seconds() - stolen_) / cpu_s : 0.0;
  }

 private:
  double stolen_;
  std::uint64_t start_ns_;
};

/// Compiler, build type and flags of this binary.
std::string compiler_string();
std::string compiler_flags();

}  // namespace perfbench
