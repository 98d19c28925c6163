#pragma once

/// \file tool_common.hpp
/// Flag spellings and value parsers shared by the CLI binaries (nubb_run,
/// nubb_serve, nubb_load). One registration helper per option group, so a
/// game described to the daemon and a game described to the offline driver
/// use the same vocabulary and cannot drift (`--caps 500x1,500x10` means
/// the same bins everywhere).

#include <charconv>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "core/nubb.hpp"
#include "net/service.hpp"
#include "util/cli.hpp"

namespace nubb::tool {

/// Whole-token unsigned decimal: no sign, space, fraction or trailing junk
/// (the rule CliParser applies to numeric options).
template <typename Unsigned>
bool parse_decimal(std::string_view digits, Unsigned& value) {
  const char* const last = digits.data() + digits.size();
  const auto [end, ec] = std::from_chars(digits.data(), last, value);
  return ec == std::errc() && end == last;
}

/// Parse "500x1,500x10" into a capacity vector (classes stay contiguous).
inline std::vector<std::uint64_t> parse_caps(const std::string& spec) {
  std::vector<CapacityClass> classes;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::string_view view(item);
    const auto x = view.find('x');
    CapacityClass cls;
    if (x == std::string_view::npos || !parse_decimal(view.substr(0, x), cls.count) ||
        !parse_decimal(view.substr(x + 1), cls.capacity)) {
      throw std::runtime_error(
          "bad --caps item (expected COUNTxCAPACITY, unsigned integers): " + item);
    }
    classes.push_back(cls);
  }
  return from_classes(classes);
}

inline SelectionPolicy parse_policy(const std::string& name, double exponent,
                                    std::uint64_t threshold) {
  if (name == "proportional") return SelectionPolicy::proportional_to_capacity();
  if (name == "uniform") return SelectionPolicy::uniform();
  if (name == "power") return SelectionPolicy::capacity_power(exponent);
  if (name == "top-only") return SelectionPolicy::top_capacity_only(threshold);
  throw std::runtime_error("unknown --policy (proportional|uniform|power|top-only): " + name);
}

inline RngStream parse_stream(const std::string& name) {
  if (name == "v1") return RngStream::kV1;
  if (name == "v2") return RngStream::kV2;
  throw std::runtime_error("unknown --stream (v1|v2): " + name);
}

inline TieBreak parse_tie_break(const std::string& name) {
  if (name == "capacity") return TieBreak::kPreferLargerCapacity;
  if (name == "uniform") return TieBreak::kUniform;
  if (name == "first") return TieBreak::kFirstChoice;
  throw std::runtime_error("unknown --tie-break (capacity|uniform|first): " + name);
}

/// The game option group: how every CLI binary describes the bins and the
/// placement process. `default_caps` differs per binary (the offline
/// driver has capacity generators; the daemon wants an explicit shape).
inline void add_game_options(CliParser& cli, const std::string& default_caps) {
  cli.add_string("caps", default_caps, "capacity classes, e.g. 500x1,500x10");
  cli.add_string("policy", "proportional", "proportional | uniform | power | top-only");
  cli.add_double("exponent", 2.0, "exponent t for --policy power");
  cli.add_int("threshold", 2, "capacity threshold for --policy top-only");
  cli.add_int("d", 2, "choices per ball");
  cli.add_string("tie-break", "capacity", "capacity (Algorithm 1) | uniform | first");
  cli.add_string("stream", "v2",
                 "RNG draw-order stream: v2 (batch-drawn bulk engine) | v1 (per-ball "
                 "reference order); see docs/stream-v2.md");
  cli.add_string("huge-pages", "auto",
                 "huge-page backing for the bin state: auto | on | off (see "
                 "docs/memory-layout.md)");
  cli.add_string("simd", "auto",
                 "vectorised stream-v2 resolve kernels: auto | on | off (see "
                 "docs/stream-v2.md)");
  cli.add_int("seed", 1, "base RNG seed");
}

/// Materialise the game option group into a ServiceConfig (capacities,
/// policy, game knobs, seed; max_balls stays at the caller's default).
inline ServiceConfig service_config_from(const CliParser& cli) {
  ServiceConfig cfg;
  cfg.capacities = parse_caps(cli.get_string("caps"));
  cfg.policy = parse_policy(cli.get_string("policy"), cli.get_double("exponent"),
                            static_cast<std::uint64_t>(cli.get_int("threshold")));
  cfg.game.choices = static_cast<std::uint32_t>(cli.get_int("d"));
  cfg.game.tie_break = parse_tie_break(cli.get_string("tie-break"));
  cfg.game.stream = parse_stream(cli.get_string("stream"));
  cfg.game.memory.huge_pages = parse_huge_pages(cli.get_string("huge-pages"));
  cfg.game.simd = parse_simd_mode(cli.get_string("simd"));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  return cfg;
}

}  // namespace nubb::tool
