/// nubb_serve — the placement daemon: one live balls-into-bins game served
/// over the frame protocol (docs/serving.md).
///
/// Holds the bin state behind the placement kernel (stream v2 by default,
/// huge-page/prefetch memory config honored) and answers Place /
/// BatchPlace / Lookup / Snapshot / Stats / Shutdown requests from any
/// number of TCP clients, one session thread per connection. The state is
/// split into `--service-shards` capacity-balanced placement shards, each
/// with its own lock, kernel, and RNG stream (requests route round robin),
/// so concurrent clients stop serialising on one lock; with the default of
/// one shard the served sequence is exactly the offline sequential game
/// (see docs/serving.md for the sharded composition rule, the determinism
/// contract, and nubb_load for the matching load generator).
///
///   # serve the paper's mixed shape on an ephemeral loopback port
///   nubb_serve --caps 500x1,500x10 --port 0 --port-file /tmp/port
///
///   # pin the port, widen the session pool, cap the horizon
///   nubb_serve --caps 1000x4 --port 7070 --threads 16 --max-balls 1000000
///
///   # 4 placement shards for concurrent clients, weighted balls enabled
///   nubb_serve --caps 500x1,500x10 --service-shards 4 --max-weight 8
///
/// Prints `listening on HOST:PORT` once ready (scripts wait for the
/// --port-file instead of parsing stdout), serves until a client sends
/// Shutdown, then drains live sessions and exits 0.

#include <fstream>
#include <iostream>

#include "net/server.hpp"
#include "tool_common.hpp"
#include "util/version.hpp"

using namespace nubb;

int main(int argc, char** argv) {
  CliParser cli(
      "nubb_serve: serve one live balls-into-bins game over TCP (placement as a "
      "service; see docs/serving.md for the wire protocol).");
  tool::add_game_options(cli, "1000x1");
  cli.add_int("max-balls", 0, "placement horizon (0 = total capacity)");
  cli.add_string("host", "127.0.0.1", "numeric IPv4 bind address (loopback-first)");
  cli.add_int("port", 0, "TCP port; 0 binds an ephemeral port");
  cli.add_string("port-file", "",
                 "write the bound port to this file once listening (how scripts "
                 "discover an ephemeral port)");
  cli.add_int("threads", 8, "session worker threads (concurrent clients served)");
  cli.add_int("service-shards", 1,
              "placement shards: independent lock/kernel/RNG state partitions "
              "(1 = the bit-exact single-lock service; clamped to the bin count)");
  cli.add_int("max-weight", 1,
              "largest ball weight accepted on the wire (1 = unit balls only)");
  cli.add_flag("version", "print the library version and exit");

  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.flag("version")) {
      std::cout << "nubb_serve " << version_string() << "\n";
      return 0;
    }

    ServiceConfig service_cfg = tool::service_config_from(cli);
    if (cli.get_int("max-balls") < 0) throw std::runtime_error("--max-balls must be >= 0");
    service_cfg.max_balls = static_cast<std::uint64_t>(cli.get_int("max-balls"));
    if (cli.get_int("service-shards") < 1) {
      throw std::runtime_error("--service-shards must be >= 1");
    }
    service_cfg.service_shards = static_cast<std::size_t>(cli.get_int("service-shards"));
    if (cli.get_int("max-weight") < 1) throw std::runtime_error("--max-weight must be >= 1");
    service_cfg.max_weight = static_cast<std::uint64_t>(cli.get_int("max-weight"));

    ServerConfig server_cfg;
    server_cfg.host = cli.get_string("host");
    if (cli.get_int("port") < 0 || cli.get_int("port") > 65535) {
      throw std::runtime_error("--port must be in [0, 65535]");
    }
    server_cfg.port = static_cast<std::uint16_t>(cli.get_int("port"));
    if (cli.get_int("threads") < 1) throw std::runtime_error("--threads must be >= 1");
    server_cfg.session_threads = static_cast<std::size_t>(cli.get_int("threads"));
    // Echoed in Stats so load clients can count the daemon's core footprint
    // honestly (nubb_load --server-cores auto-detection).
    service_cfg.session_threads = static_cast<std::uint32_t>(server_cfg.session_threads);

    PlacementService service(service_cfg);
    PlacementServer server(service, server_cfg);

    if (!cli.get_string("port-file").empty()) {
      std::ofstream pf(cli.get_string("port-file"));
      if (!pf) {
        throw std::runtime_error("cannot open --port-file: " + cli.get_string("port-file"));
      }
      pf << server.port() << "\n";
    }
    std::cout << "listening on " << server_cfg.host << ":" << server.port() << " ("
              << service.bins() << " bins, horizon " << service.max_balls() << " balls, d="
              << cli.get_int("d") << ", stream " << cli.get_string("stream") << ", "
              << service.service_shards() << " shard"
              << (service.service_shards() == 1 ? "" : "s") << ")"
              << std::endl;  // flush: scripts may be watching the pipe

    const std::uint64_t sessions = server.run();
    std::cout << "shutdown after " << sessions << " sessions, " << service.balls_placed()
              << " balls placed\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nubb_serve: " << tool::error_text(e) << "\n";
    return 1;
  }
}
