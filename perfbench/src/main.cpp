/// perfbench — one run of one workload; see README.md.
///
///   perfbench --workload fig6_mc|bins16m_d3|serve_loopback --seed N
///             --seconds S --trace 0|1 --work-dir DIR [--serve-bin PATH]
///
/// Prints human-readable lines, then as its last stdout line one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
/// non-zero without a result line when the run cannot complete.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end set: every workload reports every one (BENCHMARK.json).
const std::vector<MetricSpec> kEndToEnd = {
    {"balls_per_s", "balls/s"}, {"setup_s", "s"},       {"peak_rss_mb", "MiB"},
    {"place_p50_us", "us"},     {"place_p90_us", "us"}, {"batch_p50_us", "us"},
};

// The per-layer set. A layer a workload does not exercise reports 0.
const std::vector<MetricSpec> kPerLayer = {
    {"kernel.ns_per_ball", "ns/ball"},
    {"kernel.cand_fill_ns_per_ball", "ns/ball"},
    {"kernel.tie_fill_ns_per_ball", "ns/ball"},
    {"kernel.resolve_ns_per_ball", "ns/ball"},
    {"kernel.scalar_ns_per_ball", "ns/ball"},
    {"kernel.bytes_per_ball", "B/ball"},
    {"kernel.avx2", "flag"},
    {"kernel.fast64", "flag"},
    {"kernel.tie_rate", "fraction"},
    {"kernel.dup_rate", "fraction"},
    {"kernel.dirty_group_rate", "fraction"},
    {"kernel.alias_fallback_rate", "fraction"},
    {"bin_array.build_s", "s"},
    {"bin_array.clear_us", "us"},
    {"bin_array.huge_frac", "fraction"},
    {"bin_array.slot_mib", "MiB"},
    {"sampler.build_s", "s"},
    {"sampler.table_mib", "MiB"},
    {"experiment.rep_overhead_us", "us"},
    {"experiment.scratch_s", "s"},
    {"experiment.chunk_s.p50", "s"},
    {"experiment.chunk_s.max", "s"},
    {"experiment.run_shard_s", "s"},
    {"experiment.merge_report_s", "s"},
    {"experiment.state_kib", "KiB"},
    {"protocol.encode_ns", "ns"},
    {"protocol.decode_ns", "ns"},
    {"protocol.frame_bytes", "B"},
    {"socket.send_us", "us"},
    {"socket.wait_us", "us"},
    {"socket.transport_us", "us"},
    {"service.place_us.p50", "us"},
    {"service.place_us.p90", "us"},
    {"service.batch_us.mean", "us"},
    {"service.direct_place_ns", "ns"},
    {"service.stream_place_us", "us"},
    {"raw_balls_per_s", "balls/s"},
    {"calib_rate", "updates/s"},
    {"trace.overhead_frac", "fraction"},
    {"load.requests", "count"},
    {"load.failed", "count"},
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--serve-bin") {
      opt.serve_bin = value;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  if (opt.workload.empty() || opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    throw std::runtime_error("--workload, --work-dir and a positive --seconds are required");
  }
  return opt;
}

/// Exactly the metrics of the selected mode, each a finite number.
void emit_result(const Options& opt, Result& result) {
  const std::vector<MetricSpec>& specs = opt.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, metric] : result.metrics) {
    bool known = false;
    for (const MetricSpec& s : specs) known = known || name == s.name;
    if (!known) throw std::runtime_error("metric outside the selected set: " + name);
  }
  std::string json = "{\"correct\": " + std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = result.metrics.find(specs[i].name);
    if (it == result.metrics.end() && !opt.trace) {
      throw std::runtime_error(std::string("end-to-end metric not measured: ") + specs[i].name);
    }
    double value = it == result.metrics.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) {
      throw std::runtime_error(std::string("non-finite metric: ") + specs[i].name);
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += std::string(i ? ", " : "") + "\"" + specs[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

void print_line(const std::string& name, double value, const std::string& unit,
                const std::string& note) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  std::cout << "  " << name << " = " << buf << " " << unit;
  if (!note.empty()) std::cout << "  (" << note << ")";
  std::cout << "\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options opt = parse_args(argc, argv);
    Result result;
    if (opt.workload == "serve_loopback") {
      if (opt.serve_bin.empty()) throw std::runtime_error("serve_loopback needs --serve-bin");
      run_serve(opt, result);
    } else {
      run_offline(opt, result);
    }
    emit_result(opt, result);
    return 0;
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
