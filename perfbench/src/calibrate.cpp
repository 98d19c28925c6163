#include "calibrate.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCacheWords = (8u << 10) / sizeof(std::uint64_t);
constexpr std::size_t kDramWords = (512u << 20) / sizeof(std::uint64_t);
constexpr std::uint64_t kCacheIters = 1u << 21;
constexpr std::uint64_t kDramIters = 1u << 22;
constexpr std::uint64_t kSetupIters = 256;

// Reference rates (updates/s; set-ups/s for the reference set-up), pinned
// once from typical readings on a 4-vCPU KVM guest (Intel Xeon, 105 MiB L3).
// Only their ratio to the measured rate matters; they keep normalised
// numbers on the scale of raw ones.
constexpr double kCacheNominal = 4.0e8;
constexpr double kDramNominal = 4.5e7;
constexpr double kSetupNominal = 5.0e4;

/// The reference set-up: Vose's alias construction over the fig6_mc
/// capacity shape plus a zeroed interleaved slot array, written once here
/// and never changed (it must not follow the library's own set-up code).
std::uint64_t reference_setup(std::uint64_t salt) {
  constexpr std::size_t n = 1000;
  std::vector<double> weight(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    weight[i] = ((i + salt) % 2) != 0 ? 10.0 : 1.0;
    sum += weight[i];
  }
  std::vector<double> prob(n);
  std::vector<std::uint32_t> alias(n, 0);
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::size_t i = 0; i < n; ++i) {
    prob[i] = weight[i] * static_cast<double>(n) / sum;
    (prob[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    alias[s] = l;
    prob[l] += prob[s] - 1.0;
    if (prob[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  std::vector<std::uint64_t> threshold(n);
  for (std::size_t i = 0; i < n; ++i) {
    threshold[i] = static_cast<std::uint64_t>(std::min(prob[i], 1.0) * 9007199254740992.0);
  }
  auto slots = std::make_unique<std::uint64_t[]>(2 * n);
  std::uint64_t check = 0;
  for (std::size_t i = 0; i < n; ++i) {
    slots[2 * i + 1] = static_cast<std::uint64_t>(weight[i]);
    check += threshold[i] + alias[i] + slots[2 * i];
  }
  return check;
}

}  // namespace

Calibrator::Calibrator(CalibKind kind)
    : kind_(kind),
      buf_(kind == CalibKind::kCache ? kCacheWords : kind == CalibKind::kDram ? kDramWords : 0) {
  for (std::uint64_t& w : buf_) w = 0;  // first touch: fault every page in now
}

double Calibrator::run() {
  if (kind_ == CalibKind::kSetup) {
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kSetupIters; ++i) sink_ += reference_setup(i + sink_ % 2);
    const double rate = static_cast<double>(kSetupIters) / seconds_since(t0);
    rates_.push_back(rate);
    return rate;
  }
  const std::uint64_t mask = buf_.size() - 1;
  const std::uint64_t iters = kind_ == CalibKind::kCache ? kCacheIters : kDramIters;
  std::uint64_t* const buf = buf_.data();
  std::uint64_t state = state_;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t x = splitmix64(state);
    buf[x & mask] += x;
  }
  const double secs = seconds_since(t0);
  state_ = state;
  sink_ += buf[state & mask];
  const double rate = static_cast<double>(iters) / secs;
  rates_.push_back(rate);
  return rate;
}

double Calibrator::nominal() const noexcept {
  switch (kind_) {
    case CalibKind::kCache: return kCacheNominal;
    case CalibKind::kDram: return kDramNominal;
    case CalibKind::kSetup: return kSetupNominal;
  }
  return 1.0;
}

const char* Calibrator::name() const noexcept {
  switch (kind_) {
    case CalibKind::kCache: return "cache_8KiB_splitmix";
    case CalibKind::kDram: return "dram_512MiB_random_rmw";
    case CalibKind::kSetup: return "reference_setup_1000_bins";
  }
  return "";
}

void Calibrator::write_json(nubb::JsonWriter& w, const std::string& key) const {
  w.key(key);
  w.begin_object();
  w.kv("loop", name());
  w.kv("nominal", nominal());
  w.key("rates");
  w.begin_array();
  for (const double r : rates_) w.value(r);
  w.end_array();
  w.end_object();
}

namespace {
constexpr std::size_t kGateWords = 1024;  // 8 KiB, L1-resident
constexpr std::uint64_t kGateIters = 2048;
constexpr std::uint64_t kGateLoads = 48;
constexpr std::uint32_t kBucketNs = 16;
constexpr std::size_t kBuckets = 4096;  // chunks up to ~65 µs; slower ones share the last
}  // namespace

SpeedGate::SpeedGate() : buf_(kGateWords, 0) {
  for (auto& h : hist_) h.assign(kBuckets, 0);
}

SpeedGate::SpeedGate(const std::uint64_t* walk, std::size_t words) : SpeedGate() {
  walk_ = walk;
  walk_mask_ = words - 1;
}

GateTick SpeedGate::chunk() {
  auto elapsed = [](std::uint64_t t0) {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(now_ns() - t0, UINT32_MAX));
  };
  std::uint64_t state = state_;
  std::uint64_t* const buf = buf_.data();
  GateTick tick;
  std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kGateIters; ++i) {
    const std::uint64_t x = splitmix64(state);
    buf[x & (kGateWords - 1)] += x;
  }
  tick.compute_ns = elapsed(t0);
  sink_ += buf[state & (kGateWords - 1)];
  if (walk_ != nullptr) {
    std::uint64_t idx = state & walk_mask_;
    t0 = now_ns();
    for (std::uint64_t i = 0; i < kGateLoads; ++i) idx = (walk_[idx] + splitmix64(state)) & walk_mask_;
    tick.walk_ns = elapsed(t0);
    sink_ += idx;
  }
  state_ = state;
  ++hist_[0][std::min<std::size_t>(tick.compute_ns / kBucketNs, kBuckets - 1)];
  ++hist_[1][std::min<std::size_t>(tick.walk_ns / kBucketNs, kBuckets - 1)];
  ++chunks_;
  return tick;
}

GatedSample SpeedGate::sample(double value) {
  const GateTick after = chunk();
  const GatedSample s{value, last_, after};
  last_ = after;
  return s;
}

double SpeedGate::reference_ns(int half) const {
  const std::vector<std::uint64_t>& hist = hist_[half];
  const double rank = kRefQuantile * static_cast<double>(chunks_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += hist[b];
    if (seen > 0 && static_cast<double>(seen) >= rank) {
      return static_cast<double>((b + 1) * kBucketNs);
    }
  }
  return static_cast<double>(kBuckets * kBucketNs);
}

std::vector<double> SpeedGate::kept(const GatedSample* samples, std::size_t n) const {
  const double ref[2] = {reference_ns(0), reference_ns(1)};
  // How far the slowest half of either neighbouring chunk ran over its
  // full-speed time, per sample.
  std::vector<double> over;
  over.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const GatedSample& s = samples[i];
    double worst = std::max(s.before.compute_ns, s.after.compute_ns) / ref[0];
    if (walk_ != nullptr) {
      worst = std::max(worst, std::max(s.before.walk_ns, s.after.walk_ns) / ref[1]);
    }
    over.push_back(worst);
  }
  const double limit = std::max(1.0 + kSlack, quantile(over, kMinKeep));
  const double scale = walk_ != nullptr ? kNominalWalkNs / ref[1] : 1.0;
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (over[i] <= limit) out.push_back(samples[i].value * scale);
  }
  return out;
}

cpu_set_t allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
  return set;
}

int pin_to_fastest_cpu(const cpu_set_t& allowed) {
  auto pin = [](int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  };
  constexpr int kChunks = 400;
  SpeedGate gate;
  std::vector<double> ns(kChunks);
  int best = -1;
  double best_ns = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || !pin(cpu)) continue;
    for (double& x : ns) x = gate.chunk().compute_ns;
    const double typical = median(ns);
    if (best < 0 || typical < best_ns) {
      best = cpu;
      best_ns = typical;
    }
  }
  return best >= 0 && pin(best) ? best : -1;
}

}  // namespace perfbench
