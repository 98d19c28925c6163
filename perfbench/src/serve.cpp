/// serve_loopback: the shipped nubb_serve daemon on loopback, driven by the
/// benchmark's own closed-loop client (a placement caller waits for its
/// destination before it writes, so each request waits for the previous
/// reply). It is the only workload that exercises net/, the sharded
/// service, and the daemon's per-ball and bulk kernel paths:
///
///   daemon  nubb_serve --caps 500000x1,500000x10 --service-shards 2
///           --threads 2 --max-balls 2^31, default stream and SIMD
///   client  1-ball Place requests on one connection, then BatchPlace
///           requests of 1024 balls on one connection.
///
/// A 1-ball round trip is almost all transport, protocol and service
/// overhead (the kernel is well under 1% of it); a 1024-ball round trip adds
/// about 100 us of placement work on top, so the two request sizes split
/// fixed cost from per-ball cost. At most four threads run: the client, the
/// daemon's accept loop and its two session threads.

#include <fcntl.h>
#include <cstdlib>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "common.hpp"
#include "core/builder.hpp"
#include "core/placement_kernel.hpp"
#include "net/protocol.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "probe.hpp"
#include "trace.hpp"
#include "util/json.hpp"

extern char** environ;

namespace perfbench {

namespace {

using nubb::BatchPlaceRequest;
using nubb::BatchPlaceResponse;
using nubb::PlaceRequest;
using nubb::PlaceResponse;
using nubb::SocketChannel;
using nubb::StatsRequest;
using nubb::StatsResponse;

constexpr std::size_t kSmallBins = 500000;
constexpr std::size_t kBigBins = 500000;
constexpr std::uint64_t kBatch = 1024;
constexpr std::uint64_t kMaxBalls = std::uint64_t{1} << 31;  // room for any run <= 60 s
constexpr int kDaemons = 5;  // daemon processes per run (set-up repetitions too)

/// One nubb_serve process. Killed and reaped on destruction unless it was
/// shut down cleanly, so no daemon outlives the benchmark.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& work_dir, int index,
         std::uint64_t seed) {
    port_file_ = work_dir + "/serve-port-" + std::to_string(index);
    log_file_ = work_dir + "/serve-" + std::to_string(index) + ".log";
    ::unlink(port_file_.c_str());
    std::vector<std::string> args = {bin,
                                     "--caps",
                                     std::to_string(kSmallBins) + "x1," +
                                         std::to_string(kBigBins) + "x10",
                                     "--service-shards",
                                     "2",
                                     "--threads",
                                     "2",
                                     "--max-balls",
                                     std::to_string(kMaxBalls),
                                     "--seed",
                                     std::to_string(seed),
                                     "--port",
                                     "0",
                                     "--port-file",
                                     port_file_};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_file_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + bin);
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const noexcept { return pid_; }

  /// Wait (up to 30 s) for the port file the daemon writes once listening.
  std::uint16_t wait_port() const {
    const std::uint64_t deadline = now_ns() + 30'000'000'000ULL;
    while (now_ns() < deadline) {
      std::ifstream in(port_file_);
      std::string text;
      if (std::getline(in, text) && !in.eof()) return static_cast<std::uint16_t>(std::stoul(text));
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        throw std::runtime_error("nubb_serve exited during start-up; see " + log_file_);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    throw std::runtime_error("nubb_serve did not start within 30 s");
  }

  /// Send Shutdown and reap; true when the daemon exited with status 0.
  bool shutdown(std::uint16_t port) {
    {
      SocketChannel ch = SocketChannel::connect("127.0.0.1", port);
      (void)nubb::round_trip<nubb::ShutdownResponse>(ch, nubb::ShutdownRequest{});
    }
    int status = 0;
    const pid_t got = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  std::string port_file_;
  std::string log_file_;
};

/// Histogram of the place-latency cells recorded between two Stats reads.
nubb::WireHistogram histogram_diff(const StatsResponse& a, const StatsResponse& b) {
  nubb::WireHistogram h = b.place_latency_us;
  for (std::size_t i = 0; i < h.counts.size() && i < a.place_latency_us.counts.size(); ++i) {
    h.counts[i] -= a.place_latency_us.counts[i];
  }
  h.underflow -= a.place_latency_us.underflow;
  h.overflow -= a.place_latency_us.overflow;
  return h;
}

/// Mean service time (µs) of `op` between two Stats reads.
double op_mean_us(const StatsResponse& a, const StatsResponse& b, nubb::MessageType op) {
  auto find = [op](const StatsResponse& s) {
    for (const nubb::OpStat& o : s.ops) {
      if (o.op == static_cast<std::uint16_t>(op)) return o;
    }
    return nubb::OpStat{};
  };
  const nubb::OpStat x = find(a);
  const nubb::OpStat y = find(b);
  if (y.count <= x.count) return 0.0;
  return static_cast<double>(y.total_ns - x.total_ns) * 1e-3 /
         static_cast<double>(y.count - x.count);
}

/// One request size's share of a run: every round trip, plus each one
/// paired with the speed-gate chunks around it.
struct Phase {
  std::uint64_t count = 1;  ///< balls per request
  std::vector<double> rtt_us;
  std::vector<GatedSample> gated;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t balls = 0;
  std::uint64_t bytes = 0;  ///< request + response bytes on the wire
  StatsResponse before;
  StatsResponse after;
};

/// Closed-loop requests of `phase.count` balls on `ch` for `slice_s`; every
/// reply is checked against its request and the running acknowledged total,
/// and a speed-gate chunk runs after each one.
/// With a tracer, each request is a root span whose children are the
/// client-side layer calls. Returns false once a request failed (a broken
/// stream poisons the rest of the run).
bool run_slice(SocketChannel& ch, Phase& phase, double slice_s, std::uint64_t& acked,
               std::uint64_t bins, std::uint64_t& request_id, Tracer* tracer, SpeedGate& gate) {
  const std::uint64_t count = phase.count;
  const std::uint64_t bytes0 = ch.bytes_sent() + ch.bytes_received();
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(slice_s * 1e9);
  bool ok = true;
  gate.open();
  while (ok && now_ns() < end && acked + count <= kMaxBalls) {
    ++phase.requests;
    ++request_id;
    ok = false;
    const std::uint64_t t0 = now_ns();
    try {
      Span root(tracer, count == 1 ? "client:place" : "client:batch", request_id);
      nubb::Frame frame;
      {
        Span s(tracer, "net/protocol:send_message", request_id);
        if (count == 1) {
          nubb::send_message(ch, PlaceRequest{});
        } else {
          BatchPlaceRequest req;
          req.count = count;
          nubb::send_message(ch, req);
        }
      }
      bool got = false;
      {
        Span s(tracer, "net/channel:receive_frame", request_id);
        got = ch.receive_frame(frame);
      }
      if (got) {
        Span s(tracer, "net/protocol:decode_message", request_id);
        if (count == 1) {
          const PlaceResponse resp = nubb::decode_message<PlaceResponse>(frame);
          ok = resp.bin < bins && resp.balls >= 1 && (resp.capacity == 1 || resp.capacity == 10);
        } else {
          const BatchPlaceResponse resp = nubb::decode_message<BatchPlaceResponse>(frame);
          ok = resp.placed == count && resp.total_balls == acked + count;
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "request " << request_id << " failed: " << e.what() << "\n";
    }
    if (!ok) {
      ++phase.failed;
      break;
    }
    const double rtt_us = static_cast<double>(now_ns() - t0) * 1e-3;
    phase.rtt_us.push_back(rtt_us);
    phase.gated.push_back(gate.sample(rtt_us));
    acked += count;
    phase.balls += count;
  }
  phase.bytes += ch.bytes_sent() + ch.bytes_received() - bytes0;
  return ok;
}

/// Place slices on one connection alternating with BatchPlace slices on a
/// second, so both request sizes sample the same stretch of machine time;
/// each connection reads the daemon's Stats before and after. Switching a
/// size off gives a window whose Stats diff holds one op alone (the
/// daemon's latency histogram is shared by both).
void run_mixed(std::uint16_t port, double budget_s, std::uint64_t& acked, std::uint64_t bins,
               Tracer* tracer, Calibrator& calib, SpeedGate& gate, Phase& place, Phase& batch,
               bool with_place = true, bool with_batch = true) {
  constexpr double kSliceS = 0.1;
  place.count = 1;
  batch.count = kBatch;
  SocketChannel place_ch = SocketChannel::connect("127.0.0.1", port);
  SocketChannel batch_ch = SocketChannel::connect("127.0.0.1", port);
  place.before = nubb::round_trip<StatsResponse>(place_ch, StatsRequest{});
  batch.before = nubb::round_trip<StatsResponse>(batch_ch, StatsRequest{});
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  std::uint64_t request_id = 0;
  calib.run();
  while (now_ns() < deadline &&
         (!with_place ||
          run_slice(place_ch, place, kSliceS, acked, bins, request_id, tracer, gate)) &&
         (!with_batch ||
          run_slice(batch_ch, batch, kSliceS, acked, bins, request_id, tracer, gate))) {
    calib.run();  // the client's vCPU speed, recorded as calib_rate
  }
  place.after = nubb::round_trip<StatsResponse>(place_ch, StatsRequest{});
  batch.after = nubb::round_trip<StatsResponse>(batch_ch, StatsRequest{});
}

/// Median duration (µs) of the `child` spans whose parent is a `root` span.
double child_median_us(const Tracer& tracer, const std::string& root, const std::string& child) {
  const std::vector<SpanRecord>& spans = tracer.spans();
  std::vector<double> us;
  for (const SpanRecord& s : spans) {
    if (s.parent < 0 || child != s.name) continue;
    if (root != spans[static_cast<std::size_t>(s.parent)].name) continue;
    us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  }
  return median(us);
}

nubb::ServiceConfig service_config(std::uint64_t seed) {
  nubb::ServiceConfig cfg;
  cfg.capacities = nubb::from_classes({{kSmallBins, 1}, {kBigBins, 10}});
  cfg.seed = seed;
  cfg.max_balls = kMaxBalls;
  cfg.service_shards = 2;
  cfg.game.stream = nubb::RngStream::kV2;  // nubb_serve's default --stream
  return cfg;
}

/// PlacementService::place called in-process: the service layer without
/// transport. Median over slices of the mean ns per call.
double direct_place_ns(std::uint64_t seed) {
  nubb::PlacementService service(service_config(seed));
  std::vector<double> slices;
  for (int s = 0; s < 21; ++s) {
    constexpr int kCalls = 20000;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) (void)service.place(PlaceRequest{});
    slices.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  return median(slices);
}

/// PlacementService::serve over an in-memory StreamChannel carrying `n`
/// Place frames: session loop + protocol + service, no socket. µs per
/// request.
double stream_place_us(std::uint64_t seed) {
  constexpr int kRequests = 50000;
  std::ostringstream frames;
  {
    std::istringstream unused;
    nubb::StreamChannel writer(unused, frames);
    for (int i = 0; i < kRequests; ++i) nubb::send_message(writer, PlaceRequest{});
  }
  nubb::PlacementService service(service_config(seed));
  std::istringstream in(frames.str());
  std::ostringstream out;
  nubb::StreamChannel channel(in, out);
  const std::uint64_t t0 = now_ns();
  const nubb::SessionResult session = service.serve(channel);
  const double us = static_cast<double>(now_ns() - t0) * 1e-3 / kRequests;
  if (session.requests != kRequests) throw std::runtime_error("stream session lost requests");
  return us;
}

volatile std::uint64_t g_sink = 0;

/// Encode / decode cost of the Place messages, ns per message.
void protocol_costs(double& encode_ns, double& decode_ns) {
  constexpr int kIters = 200000;
  std::uint64_t sink = 0;
  std::uint64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    nubb::WireWriter w;
    PlaceRequest{}.encode(w);
    sink += w.bytes().size();
  }
  encode_ns = static_cast<double>(now_ns() - t0) / kIters;
  nubb::WireWriter w;
  PlaceResponse{12345, 3, 10}.encode(w);
  nubb::Frame frame;
  frame.type = PlaceResponse::kType;
  frame.payload = w.bytes();
  t0 = now_ns();
  for (int i = 0; i < kIters; ++i) sink += nubb::decode_message<PlaceResponse>(frame).bin;
  decode_ns = static_cast<double>(now_ns() - t0) / kIters;
  g_sink = sink;  // keeps both loops observable
}

/// Per-daemon outcome of the end-of-run state checks.
struct DaemonCheck {
  bool snapshot_ok = false;
  bool stats_ok = false;
  double rss_mib = -1.0;
};

/// Snapshot and Stats must both account for exactly the acknowledged balls.
DaemonCheck check_state(std::uint16_t port, pid_t pid, std::uint64_t acked) {
  DaemonCheck c;
  SocketChannel ch = SocketChannel::connect("127.0.0.1", port);
  const auto snap = nubb::round_trip<nubb::SnapshotResponse>(ch, nubb::SnapshotRequest{});
  std::uint64_t counted = 0;
  for (const std::uint64_t n : snap.counts) counted += n;
  c.snapshot_ok = counted == acked && snap.total_balls == acked;
  const StatsResponse st = nubb::round_trip<StatsResponse>(ch, StatsRequest{});
  std::uint64_t shard_sum = 0;
  for (const nubb::ShardStat& sh : st.shards) shard_sum += sh.balls_placed;
  c.stats_ok = st.balls_placed == acked && shard_sum == acked;
  c.rss_mib = peak_rss_mib(pid);
  return c;
}

}  // namespace

void run_serve(const Options& opt, Result& result) {
  std::uint64_t seed_state = opt.seed;
  const std::uint64_t daemon_seed = splitmix64(seed_state) >> 1;  // CLI takes a signed int
  const std::uint64_t bins = kSmallBins + kBigBins;
  // Client and each daemon share one pinned vCPU (a spawned daemon inherits
  // the mask), the fastest one at the daemon's spawn: a round trip then
  // switches threads on a running vCPU instead of waking an idle one, whose
  // wake-up latency swings with the host's load.
  const cpu_set_t allowed = allowed_cpus();
  std::vector<int> cpus;
  Calibrator calib(CalibKind::kCache);
  // Single-thread speed on a shared vCPU halves for stretches of a few
  // milliseconds, and the share of such stretches follows the host's load;
  // the gated metrics keep the requests that ran at full speed.
  SpeedGate gate;

  // Provenance of the daemon's shape: a kernel built like its shards'.
  nubb::SimdImpl simd = nubb::SimdImpl::kScalar;
  bool fast64 = false;
  {
    const nubb::ServiceConfig cfg = service_config(daemon_seed);
    nubb::BinArray probe_bins(cfg.capacities);
    const nubb::BinSampler sampler = nubb::BinSampler::from_policy(cfg.policy, cfg.capacities);
    const nubb::PlacementKernel kernel(probe_bins, sampler, cfg.game, kMaxBalls);
    simd = kernel.simd_impl();
    fast64 = kernel.uses_fast64_path();
  }

  // The measured time is split over kDaemons processes run one after
  // another; each spawn also times the set-up, and the quantiles pool the
  // requests to all of them.
  std::vector<double> setup_s;  // calibrated
  Calibrator setup_calib(CalibKind::kSetup);
  setup_calib.run();  // warm-up
  std::vector<double> rss_mib;
  Phase place;
  Phase batch;
  std::vector<std::size_t> place_first;  // each daemon's first gated sample
  std::vector<std::size_t> batch_first;
  Phase traced_place;
  Phase traced_batch;
  Phase paired_place;
  Phase paired_batch;
  Phase place_only;
  std::unique_ptr<Tracer> tracer = opt.trace ? std::make_unique<Tracer>() : nullptr;
  const double share = (opt.trace ? 0.45 : 0.9) * opt.seconds / kDaemons;
  std::uint64_t total_acked = 0;
  for (int k = 0; k < kDaemons; ++k) {
    cpus.push_back(pin_to_fastest_cpu(allowed));
    // The daemon starts on the pinned vCPU, between two runs of the
    // reference set-up the offline workloads calibrate theirs with.
    const double before = setup_calib.run();
    const std::uint64_t t0 = now_ns();
    Daemon daemon(opt.serve_bin, opt.work_dir, k, daemon_seed);
    const std::uint16_t port = daemon.wait_port();
    {
      SocketChannel ch = SocketChannel::connect("127.0.0.1", port);
      const StatsResponse st = nubb::round_trip<StatsResponse>(ch, StatsRequest{});
      const double raw = seconds_since(t0);
      setup_s.push_back(raw / setup_calib.factor(before, setup_calib.run()));
      result.check(st.balls_placed == 0 && st.service_shards == 2);
    }
    std::uint64_t acked = 0;
    {
      // Warm-up: connections, page faults and caches on both sides.
      Phase place_warm;
      Phase batch_warm;
      run_mixed(port, 0.1 * share, acked, bins, nullptr, calib, gate, place_warm, batch_warm);
    }
    place_first.push_back(place.gated.size());
    batch_first.push_back(batch.gated.size());
    run_mixed(port, share, acked, bins, nullptr, calib, gate, place, batch);
    if (tracer && k == kDaemons - 1) {
      // Traced and untraced windows alternate, so their difference is the
      // tracing overhead rather than the machine's drift.
      for (int i = 0; i < 4; ++i) {
        run_mixed(port, 0.05 * opt.seconds, acked, bins, nullptr, calib, gate, paired_place,
                  paired_batch);
        run_mixed(port, 0.05 * opt.seconds, acked, bins, tracer.get(), calib, gate,
                  traced_place, traced_batch);
      }
      Phase idle;
      run_mixed(port, 0.1 * opt.seconds, acked, bins, nullptr, calib, gate, place_only, idle,
                true, false);
    }
    const DaemonCheck check = check_state(port, daemon.pid(), acked);
    result.check(check.snapshot_ok);
    result.check(check.stats_ok);
    result.check(daemon.shutdown(port));
    rss_mib.push_back(check.rss_mib);
    total_acked += acked;
    if (!check.snapshot_ok || !check.stats_ok) {
      std::cout << "daemon " << k << ": state check FAILED (snapshot "
                << (check.snapshot_ok ? "ok" : "mismatch") << ", stats "
                << (check.stats_ok ? "ok" : "mismatch") << ")\n";
    }
  }
  std::cout << "state check: " << total_acked << " acknowledged balls over " << kDaemons
            << " daemons\n";
  const double daemon_rss = median(rss_mib);

  // Every request is one checked operation.
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  for (const Phase* p :
       {&place, &batch, &traced_place, &traced_batch, &paired_place, &paired_batch, &place_only}) {
    requests += p->requests;
    failed += p->failed;
  }
  result.attempted += requests;
  result.failed += failed;
  if (failed != 0) result.correct = false;

  // Each daemon's gated quantiles, then the median over the daemons: a
  // stretch of seconds in which no vCPU ran at full speed moves one
  // daemon's numbers, not the run's.
  std::vector<double> place_p50s;
  std::vector<double> place_p90s;
  std::vector<double> batch_p50s;
  std::vector<double> balls_per_ss;
  std::size_t place_kept = 0;
  std::size_t batch_kept = 0;
  for (int k = 0; k < kDaemons; ++k) {
    auto kept = [&gate, k](const Phase& p, const std::vector<std::size_t>& first) {
      const std::size_t end = k + 1 < kDaemons ? first[k + 1] : p.gated.size();
      std::vector<double> v = gate.kept(p.gated.data() + first[k], end - first[k]);
      std::sort(v.begin(), v.end());
      return v;
    };
    const std::vector<double> p = kept(place, place_first);
    const std::vector<double> b = kept(batch, batch_first);
    place_p50s.push_back(quantile_sorted(p, 0.5));
    place_p90s.push_back(quantile_sorted(p, 0.9));
    batch_p50s.push_back(quantile_sorted(b, 0.5));
    double batch_us = 0.0;
    for (const double us : b) batch_us += us;
    // Closed loop on one connection: the balls of the kept requests over
    // the time they took.
    balls_per_ss.push_back(static_cast<double>(kBatch * b.size()) / (batch_us * 1e-6));
    place_kept += p.size();
    batch_kept += b.size();
    std::cout << "daemon " << k << " (cpu " << cpus[static_cast<std::size_t>(k)]
              << "): set-up " << setup_s[static_cast<std::size_t>(k)] << " s, place p50 "
              << place_p50s.back() << " us, p90 " << place_p90s.back() << " us, batch p50 "
              << batch_p50s.back() << " us\n";
  }
  const double place_p50 = median(place_p50s);
  const double place_p90 = median(place_p90s);
  const double batch_p50 = median(batch_p50s);
  const double balls_per_s = median(balls_per_ss);
  const char* env_simd = std::getenv("NUBB_SIMD");
  std::cout << "workload serve_loopback: bins=" << bins << " shards=2 session_threads=2"
            << " max_balls=" << kMaxBalls << " stream=v2 (daemon default)\n";
  std::ostringstream prov;
  nubb::JsonWriter pw(prov);
  pw.begin_object();
  pw.kv("simd_impl", simd == nubb::SimdImpl::kAvx2 ? "avx2" : "scalar");
  pw.kv("fast64", fast64);
  pw.kv("NUBB_SIMD", env_simd ? env_simd : "");
  pw.kv("thp_mode", thp_mode());
  pw.kv("session_threads", static_cast<std::uint64_t>(2));
  pw.key("pinned_cpus");  // one per daemon
  pw.begin_array();
  for (const int c : cpus) pw.value(static_cast<std::int64_t>(c));
  pw.end_array();
  pw.kv("nproc", static_cast<std::uint64_t>(online_cpus()));
  pw.kv("l3_bytes", static_cast<std::uint64_t>(l3_bytes()));
  pw.kv("compiler", compiler_string());
  pw.kv("flags", compiler_flags());
  calib.write_json(pw, "calibration");
  setup_calib.write_json(pw, "setup_calibration");
  pw.end_object();
  std::cout << "provenance: " << prov.str() << "\n";
  std::cout << "requests kept by the speed gate (full-speed chunk " << gate.reference_ns(0)
            << " ns, slack " << SpeedGate::kSlack * 100 << "%): place " << place_kept << "/"
            << place.gated.size() << ", batch " << batch_kept << "/" << batch.gated.size()
            << "\n";
  print_line("balls_per_s", balls_per_s, "balls/s",
             "BatchPlace(1024), median of the daemons' gated rates; " +
                 std::to_string(batch.balls) + " balls in all");
  print_line("setup_s", median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) + " calibrated daemon spawns");
  print_line("peak_rss_mb", daemon_rss, "MiB", "daemon VmHWM before Shutdown, median of daemons");
  print_line("error_rate",
             static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(requests, 1)),
             "fraction", std::to_string(failed) + " of " + std::to_string(requests) + " requests");
  print_line("place_p50_us", place_p50, "us",
             "1-ball Place round trip, median of the daemons' quantiles over " +
                 std::to_string(place_kept) + " gated of " + std::to_string(place.rtt_us.size()) +
                 " samples");
  print_line("place_p90_us", place_p90, "us");
  print_line("place_p99_us", quantile(place.rtt_us, 0.99), "us",
             "all " + std::to_string(place.rtt_us.size()) + " requests; not in BENCHMARK.json");
  print_line("batch_p50_us", batch_p50, "us",
             "BatchPlace(1024) round trip, as above, " + std::to_string(batch_kept) +
                 " gated of " + std::to_string(batch.rtt_us.size()) + " samples");
  print_line("batch_p99_us", quantile(batch.rtt_us, 0.99), "us",
             "all requests; not in BENCHMARK.json");

  if (!opt.trace) {
    result.set("balls_per_s", balls_per_s, "balls/s");
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", daemon_rss, "MiB");
    result.set("place_p50_us", place_p50, "us");
    result.set("place_p90_us", place_p90, "us");
    result.set("batch_p50_us", batch_p50, "us");
    return;
  }

  // --- per-layer metrics (traced run) -------------------------------------
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  protocol_costs(encode_ns, decode_ns);
  const nubb::WireHistogram place_hist = histogram_diff(place_only.before, place_only.after);
  const double service_place_mean =
      op_mean_us(traced_place.before, traced_place.after, nubb::MessageType::kPlaceRequest);
  const double wait_us =
      child_median_us(*tracer, "client:place", "net/channel:receive_frame");
  const double traced_p50 = median(gate.kept(traced_place.gated));
  result.set("protocol.encode_ns", encode_ns, "ns");
  result.set("protocol.decode_ns", decode_ns, "ns");
  result.set("protocol.frame_bytes",
             static_cast<double>(place.bytes) /
                 static_cast<double>(std::max<std::uint64_t>(place.requests, 1)),
             "B");
  result.set("socket.send_us",
             child_median_us(*tracer, "client:place", "net/protocol:send_message"), "us");
  result.set("socket.wait_us", wait_us, "us");
  result.set("socket.transport_us", wait_us - service_place_mean, "us");
  result.set("service.place_us.p50", place_hist.quantile_upper(0.5), "us");
  result.set("service.place_us.p90", place_hist.quantile_upper(0.9), "us");
  result.set("service.batch_us.mean",
             op_mean_us(traced_batch.before, traced_batch.after,
                        nubb::MessageType::kBatchPlaceRequest),
             "us");
  result.set("service.direct_place_ns", direct_place_ns(daemon_seed), "ns");
  result.set("service.stream_place_us", stream_place_us(daemon_seed), "us");
  result.set("kernel.avx2", simd == nubb::SimdImpl::kAvx2 ? 1.0 : 0.0, "flag");
  result.set("kernel.fast64", fast64 ? 1.0 : 0.0, "flag");
  result.set("raw_balls_per_s", balls_per_s, "balls/s");
  result.set("calib_rate", median(calib.rates()), "updates/s");
  result.set("trace.overhead_frac", traced_p50 / median(gate.kept(paired_place.gated)) - 1.0,
             "fraction");
  result.set("load.requests", static_cast<double>(requests), "count");
  result.set("load.failed", static_cast<double>(failed), "count");

  std::cout << "self time by span (traced run):\n";
  for (const auto& [name, t] : tracer->fold()) {
    std::cout << "  " << name << ": count=" << t.count << " total_ms=" << t.total_ns * 1e-6
              << " self_ms=" << t.self_ns * 1e-6 << "\n";
  }
  const std::string path = opt.work_dir + "/trace-serve_loopback.json";
  if (!tracer->write(path)) throw std::runtime_error("cannot write " + path);
  std::cout << "spans written to " << path << "\n";
}

}  // namespace perfbench
