#pragma once

/// \file cli.hpp
/// Tiny declarative command-line option parser for the bench/example
/// binaries. Supports `--name value`, `--name=value` and boolean flags;
/// optional subcommands (`prog run --caps ...`) and positional operands;
/// prints a generated `--help`.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace nubb {

/// Declarative option set. Register options with defaults, then parse().
class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Register options (call before parse()).
  void add_flag(const std::string& name, const std::string& help);
  void add_int(const std::string& name, std::int64_t default_value, const std::string& help);
  void add_double(const std::string& name, double default_value, const std::string& help);
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Register a subcommand. Once any subcommand exists, a leading
  /// non-option argument must name one of them (`prog run --caps ...`);
  /// invocations that start with an option get an empty subcommand() (the
  /// binary's default action).
  void add_subcommand(const std::string& name, const std::string& help);

  /// Accept positional operands after the subcommand (`prog merge a b c`).
  /// `placeholder` names them in --help (e.g. "FILE..."). Without this
  /// call, positionals beyond the subcommand stay an error.
  void allow_positionals(const std::string& placeholder, const std::string& help);

  /// Parse argv. Returns false if `--help` was requested (help printed to
  /// stdout) — callers should then exit 0. Throws std::runtime_error on
  /// unknown options or malformed values.
  bool parse(int argc, const char* const* argv);

  bool flag(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;

  /// True if the user explicitly supplied the option on the command line.
  bool was_set(const std::string& name) const;

  /// The parsed subcommand; empty when the invocation started with an
  /// option or no subcommands are registered.
  const std::string& subcommand() const noexcept { return subcommand_; }

  /// Positional operands in order (requires allow_positionals()).
  const std::vector<std::string>& positionals() const noexcept { return positionals_; }

  std::string help_text() const;

 private:
  enum class Kind { kFlag, kInt, kDouble, kString };
  struct Option {
    Kind kind;
    std::string help;
    std::string value;      // current value, textual
    std::string fallback;   // default, textual
    bool set_by_user = false;
  };

  const Option& lookup(const std::string& name, Kind kind) const;

  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;  // registration order for --help
  std::vector<std::pair<std::string, std::string>> subcommands_;  // (name, help)
  bool positionals_allowed_ = false;
  std::string positionals_placeholder_;
  std::string positionals_help_;
  std::string subcommand_;
  std::vector<std::string> positionals_;
};

}  // namespace nubb
