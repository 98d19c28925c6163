#include "util/cli.hpp"

#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"

namespace nubb {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  NUBB_REQUIRE_MSG(!options_.count(name), "duplicate CLI option");
  options_[name] = Option{Kind::kFlag, help, "0", "0", false};
  order_.push_back(name);
}

void CliParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  NUBB_REQUIRE_MSG(!options_.count(name), "duplicate CLI option");
  const std::string v = std::to_string(default_value);
  options_[name] = Option{Kind::kInt, help, v, v, false};
  order_.push_back(name);
}

void CliParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  NUBB_REQUIRE_MSG(!options_.count(name), "duplicate CLI option");
  std::ostringstream os;
  os << default_value;
  options_[name] = Option{Kind::kDouble, help, os.str(), os.str(), false};
  order_.push_back(name);
}

void CliParser::add_string(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  NUBB_REQUIRE_MSG(!options_.count(name), "duplicate CLI option");
  options_[name] = Option{Kind::kString, help, default_value, default_value, false};
  order_.push_back(name);
}

void CliParser::add_subcommand(const std::string& name, const std::string& help) {
  for (const auto& [existing, unused] : subcommands_) {
    NUBB_REQUIRE_MSG(existing != name, "duplicate CLI subcommand");
  }
  subcommands_.emplace_back(name, help);
}

void CliParser::allow_positionals(const std::string& placeholder, const std::string& help) {
  positionals_allowed_ = true;
  positionals_placeholder_ = placeholder;
  positionals_help_ = help;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help_text();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      // A leading bare word selects a subcommand; later ones are
      // positional operands where the binary accepts them.
      if (i == 1 && !subcommands_.empty()) {
        bool known = false;
        for (const auto& [name, unused] : subcommands_) known = known || name == arg;
        if (!known) {
          throw std::runtime_error("unknown subcommand: " + arg + "\n" + help_text());
        }
        subcommand_ = arg;
        continue;
      }
      if (positionals_allowed_) {
        positionals_.push_back(arg);
        continue;
      }
      throw std::runtime_error("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = options_.find(arg);
    if (it == options_.end()) {
      throw std::runtime_error("unknown option: --" + arg + "\n" + help_text());
    }
    Option& opt = it->second;
    if (opt.kind == Kind::kFlag) {
      if (has_value) throw std::runtime_error("flag --" + arg + " does not take a value");
      // GCC 12 emits a -Wrestrict false positive when a short literal is
      // assigned to a std::string after inlined substr calls (GCC PR105329).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
      opt.value = "1";
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    } else {
      if (!has_value) {
        if (i + 1 >= argc) throw std::runtime_error("option --" + arg + " expects a value");
        value = argv[++i];
      }
      // Validate numeric options eagerly so errors point at the CLI. The
      // whole token must parse: stoll/stod alone accept trailing junk, so
      // "--balls 5x" used to silently mean 5.
      if (opt.kind == Kind::kInt || opt.kind == Kind::kDouble) {
        bool ok = false;
        try {
          std::size_t consumed = 0;
          if (opt.kind == Kind::kInt) {
            (void)std::stoll(value, &consumed);
          } else {
            (void)std::stod(value, &consumed);
          }
          ok = consumed == value.size();
        } catch (const std::exception&) {
          ok = false;
        }
        if (!ok) {
          throw std::runtime_error("option --" + arg + " has malformed value: " + value);
        }
      }
      opt.value = value;
    }
    opt.set_by_user = true;
  }
  return true;
}

const CliParser::Option& CliParser::lookup(const std::string& name, Kind kind) const {
  const auto it = options_.find(name);
  NUBB_REQUIRE_MSG(it != options_.end(), "CLI option was never registered: " + name);
  NUBB_REQUIRE_MSG(it->second.kind == kind, "CLI option accessed with wrong type: " + name);
  return it->second;
}

bool CliParser::flag(const std::string& name) const {
  return lookup(name, Kind::kFlag).value == "1";
}

std::int64_t CliParser::get_int(const std::string& name) const {
  return std::stoll(lookup(name, Kind::kInt).value);
}

double CliParser::get_double(const std::string& name) const {
  return std::stod(lookup(name, Kind::kDouble).value);
}

const std::string& CliParser::get_string(const std::string& name) const {
  return lookup(name, Kind::kString).value;
}

bool CliParser::was_set(const std::string& name) const {
  const auto it = options_.find(name);
  NUBB_REQUIRE_MSG(it != options_.end(), "CLI option was never registered: " + name);
  return it->second.set_by_user;
}

std::string CliParser::help_text() const {
  std::ostringstream os;
  os << description_ << "\n";
  if (!subcommands_.empty()) {
    os << "\nSubcommands:\n";
    for (const auto& [name, help] : subcommands_) {
      os << "  " << name << "\n      " << help << "\n";
    }
  }
  if (positionals_allowed_) {
    os << "\nOperands:\n  " << positionals_placeholder_ << "\n      " << positionals_help_
       << "\n";
  }
  os << "\nOptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    switch (opt.kind) {
      case Kind::kFlag:
        break;
      case Kind::kInt:
        os << " <int>";
        break;
      case Kind::kDouble:
        os << " <float>";
        break;
      case Kind::kString:
        os << " <string>";
        break;
    }
    os << "\n      " << opt.help;
    if (opt.kind != Kind::kFlag) os << " (default: " << opt.fallback << ")";
    os << "\n";
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

}  // namespace nubb
