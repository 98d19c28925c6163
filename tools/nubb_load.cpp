/// nubb_load — load generator for nubb_serve: replay placements over N
/// concurrent connections and report serving throughput and latency
/// percentiles against the in-process kernel as reference.
///
///   # burst 1M placements over 4 connections, then stop the daemon
///   nubb_load --port $(cat /tmp/port) --connections 4 --requests 1000000
///             --batch 1000 --shutdown --json BENCH_serve.json
///
/// The game option group (--caps, --d, --stream, ...) must mirror the
/// daemon's flags: it is not sent over the wire — it configures the
/// *reference* measurement, an in-process PlacementKernel run of the same
/// game, so the reported `speedup_vs_reference` row
/// (`serve_dD/loopback` = placements/sec/core ÷ kernel balls/sec) is a
/// same-machine ratio that bench_compare.py can gate. Cores are counted as
/// connections (one client thread each) plus the daemon's busy session
/// threads — `--server-cores` when given, otherwise probed from the
/// daemon's Stats extension (min(session pool, connections)), falling back
/// to one per connection against daemons that predate the extension, which
/// reproduces the historic 2 x connections divisor — see docs/serving.md
/// for the SLO methodology.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "tool_common.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/version.hpp"

using namespace nubb;

namespace {

struct WorkerResult {
  std::vector<double> latency_us;  // one sample per request round trip
  std::uint64_t placed = 0;
  std::string error;  // non-empty = the worker died
};

void run_worker(const std::string& host, std::uint16_t port, std::uint64_t balls,
                std::uint64_t batch, WorkerResult& out) {
  try {
    SocketChannel channel = SocketChannel::connect(host, port);
    out.latency_us.reserve(static_cast<std::size_t>((balls + batch - 1) / batch));
    std::uint64_t left = balls;
    while (left > 0) {
      const std::uint64_t count = left < batch ? left : batch;
      BatchPlaceRequest req;
      req.count = count;
      Timer rt;
      const BatchPlaceResponse resp = round_trip<BatchPlaceResponse>(channel, req);
      out.latency_us.push_back(rt.seconds() * 1e6);
      out.placed += resp.placed;
      left -= count;
    }
  } catch (const std::exception& e) {
    out.error = tool::error_text(e);
  }
}

/// Reference: the same game placed in-process through the kernel, no wire,
/// no lock — balls/second of the raw placement loop.
double kernel_balls_per_sec(const ServiceConfig& cfg, std::uint64_t balls) {
  BinArray bins(cfg.capacities, cfg.game.memory);
  const BinSampler sampler = BinSampler::from_policy(cfg.policy, cfg.capacities, cfg.game.memory);
  GameConfig game = cfg.game;
  game.balls = balls;
  PlacementKernel kernel(bins, sampler, game, balls);
  Xoshiro256StarStar rng(cfg.seed);
  Timer timer;
  kernel.run(balls, rng);
  return static_cast<double>(balls) / timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "nubb_load: drive nubb_serve with concurrent placement bursts and report "
      "placements/sec/core plus latency percentiles (see docs/serving.md).");
  tool::add_game_options(cli, "1000x1");
  cli.add_string("host", "127.0.0.1", "daemon host");
  cli.add_int("port", 0, "daemon port (required)");
  cli.add_int("connections", 4, "concurrent client connections");
  cli.add_int("requests", 100000, "total balls to place across all connections");
  cli.add_int("batch", 1000, "balls per BatchPlace request");
  cli.add_int("server-cores", 0,
              "daemon cores to charge in the per-core metric (0 = probe the "
              "daemon's Stats, falling back to one per connection)");
  cli.add_flag("shutdown", "send Shutdown after the burst (stops the daemon)");
  cli.add_string("json", "", "write the results as JSON to this file");
  cli.add_flag("version", "print the library version and exit");

  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.flag("version")) {
      std::cout << "nubb_load " << version_string() << "\n";
      return 0;
    }
    if (cli.get_int("port") <= 0 || cli.get_int("port") > 65535) {
      throw std::runtime_error("--port is required (1..65535)");
    }
    const std::string host = cli.get_string("host");
    const std::uint16_t port = static_cast<std::uint16_t>(cli.get_int("port"));
    if (cli.get_int("connections") < 1) throw std::runtime_error("--connections must be >= 1");
    if (cli.get_int("requests") < 1) throw std::runtime_error("--requests must be >= 1");
    if (cli.get_int("batch") < 1) throw std::runtime_error("--batch must be >= 1");
    const std::uint64_t connections = static_cast<std::uint64_t>(cli.get_int("connections"));
    const std::uint64_t requests = static_cast<std::uint64_t>(cli.get_int("requests"));
    const std::uint64_t batch = static_cast<std::uint64_t>(cli.get_int("batch"));

    if (cli.get_int("server-cores") < 0) {
      throw std::runtime_error("--server-cores must be >= 0");
    }
    const ServiceConfig service_cfg = tool::service_config_from(cli);

    // Daemon cores for the per-core divisor. Historically hard-coded as one
    // per connection; now the daemon reports its session pool in the Stats
    // shard extension, so count its busy threads instead (idle pool slots
    // burn no core). Single-shard daemons emit no extension and keep the
    // historic divisor exactly.
    std::uint64_t server_cores = static_cast<std::uint64_t>(cli.get_int("server-cores"));
    std::uint64_t service_shards = 0;  // 0 = unknown (pre-extension daemon)
    {
      SocketChannel channel = SocketChannel::connect(host, port);
      const StatsResponse st = round_trip<StatsResponse>(channel, StatsRequest{});
      service_shards = st.service_shards;
      if (server_cores == 0) {
        server_cores = st.session_threads != 0
                           ? std::min<std::uint64_t>(st.session_threads, connections)
                           : connections;
      }
    }

    // --- the burst: `connections` threads, each its share of the balls ----
    std::vector<WorkerResult> results(connections);
    std::vector<std::thread> workers;
    workers.reserve(connections);
    Timer wall;
    for (std::uint64_t i = 0; i < connections; ++i) {
      const std::uint64_t share =
          requests / connections + (i < requests % connections ? 1 : 0);
      workers.emplace_back(run_worker, host, port, share, batch, std::ref(results[i]));
    }
    for (auto& t : workers) t.join();
    const double elapsed = wall.seconds();

    std::uint64_t placed = 0;
    std::vector<double> latency_us;
    for (const WorkerResult& r : results) {
      if (!r.error.empty()) throw std::runtime_error("worker failed: " + r.error);
      placed += r.placed;
      latency_us.insert(latency_us.end(), r.latency_us.begin(), r.latency_us.end());
    }
    if (placed == 0 || latency_us.empty()) throw std::runtime_error("no placements completed");

    const std::vector<double> q = quantiles(latency_us, {0.5, 0.99, 0.999});
    const double throughput = static_cast<double>(placed) / elapsed;
    // The serving stack burns one client thread per connection plus the
    // daemon's busy session threads; charge both so the per-core number is
    // honest.
    const double cores = static_cast<double>(connections + server_cores);
    const double per_core = throughput / cores;

    const double kernel_ref = kernel_balls_per_sec(service_cfg, requests);
    const double speedup = per_core / kernel_ref;
    const std::string row = "serve_d" + std::to_string(cli.get_int("d")) + "/loopback";

    if (cli.flag("shutdown")) {
      SocketChannel channel = SocketChannel::connect(host, port);
      (void)round_trip<ShutdownResponse>(channel, ShutdownRequest{});
    }

    std::cout << "placed " << placed << " balls over " << connections << " connections in "
              << elapsed << "s\n"
              << "throughput: " << throughput << " balls/s (" << per_core
              << " per core across " << cores << " cores: " << connections
              << " client + " << server_cores << " server";
    if (service_shards != 0) std::cout << ", " << service_shards << " shard(s)";
    std::cout << ")\n"
              << "latency (per " << batch << "-ball request): p50 " << q[0] << "us, p99 "
              << q[1] << "us, p999 " << q[2] << "us\n"
              << "in-process kernel reference: " << kernel_ref << " balls/s\n"
              << row << ": " << speedup << "x\n";

    if (!cli.get_string("json").empty()) {
      std::ofstream out(cli.get_string("json"));
      if (!out) throw std::runtime_error("cannot open --json file: " + cli.get_string("json"));
      JsonWriter j(out);
      j.begin_object();
      j.kv("schema", "nubb.serve_load.v1");
      j.kv("host", host);
      j.kv("port", static_cast<std::uint64_t>(port));
      j.kv("connections", connections);
      j.kv("requests", requests);
      j.kv("batch", batch);
      j.kv("server_cores", server_cores);
      j.kv("service_shards", service_shards);
      j.kv("placed", placed);
      j.kv("elapsed_seconds", elapsed);
      j.kv("throughput_balls_per_sec", throughput);
      j.kv("placements_per_sec_per_core", per_core);
      j.kv("latency_p50_us", q[0]);
      j.kv("latency_p99_us", q[1]);
      j.kv("latency_p999_us", q[2]);
      j.kv("kernel_reference_balls_per_sec", kernel_ref);
      j.key("speedup_vs_reference");
      j.begin_object();
      j.kv(row, speedup);
      j.end_object();
      j.end_object();
      out << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nubb_load: " << tool::error_text(e) << "\n";
    return 1;
  }
}
