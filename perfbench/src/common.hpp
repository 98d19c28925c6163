#pragma once

/// \file common.hpp
/// Shared plumbing of the perfbench binary: command-line options, the
/// result every workload fills in, and small statistics helpers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  ///< path of the nubb_serve daemon (serve_loopback)
  std::string work_dir;   ///< scratch directory inside the checkout
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the metrics of the selected mode plus the output
/// check tally. `correct` is false as soon as any check fails.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record one checked operation; a failed one also clears `correct`.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Quantile of sorted data by linear interpolation between order
/// statistics (the "inclusive" rule); `q` in [0, 1]. Empty input gives 0.
inline double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Samples taken while the hypervisor stole more than this share of the
/// guest's CPU time are left out of the medians below.
inline constexpr double kMaxStealShare = 0.05;

/// One measured sample and the share of the guest's CPU time stolen while
/// it was taken.
struct Sample {
  double value = 0.0;
  double steal_share = 0.0;
};

/// Median over the samples taken without heavy hypervisor steal; over all of
/// them when fewer than a quarter qualify. `kept` reports how many were used.
inline double clean_median(const std::vector<Sample>& samples, std::size_t* kept = nullptr) {
  std::vector<double> clean;
  std::vector<double> all;
  for (const Sample& s : samples) {
    all.push_back(s.value);
    if (s.steal_share <= kMaxStealShare) clean.push_back(s.value);
  }
  const bool enough = clean.size() * 4 >= all.size() && !clean.empty();
  if (kept != nullptr) *kept = enough ? clean.size() : all.size();
  return median(enough ? clean : all);
}

/// splitmix64: derives every generated input (bin order, experiment seed,
/// daemon seed) from the run's --seed.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Prints one human-readable line "name = value unit" to stdout.
void print_line(const std::string& name, double value, const std::string& unit,
                const std::string& note = "");

// Workload entry points (offline.cpp, serve.cpp).
void run_offline(const Options& opt, Result& result);
void run_serve(const Options& opt, Result& result);

}  // namespace perfbench
