#pragma once

/// \file assert.hpp
/// Precondition checking for the nubb library.
///
/// NUBB_REQUIRE is an always-on precondition check used on public API
/// boundaries: violations indicate caller bugs and throw
/// `nubb::PreconditionError` so they are testable and never silently ignored
/// in release builds (simulation results built on violated preconditions are
/// worthless, so the cost of a branch is always worth paying).

#include <stdexcept>
#include <string>

namespace nubb {

/// Thrown when a public API precondition is violated. `what()` carries the
/// failed expression, the source file and line, and the detail message;
/// `reason()` is the part meant for an end user: the detail message, or
/// the expression when the check has none (no path, no line number).
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : PreconditionError(what, what) {}
  PreconditionError(const std::string& what, const std::string& reason)
      : std::logic_error(what), reason_(reason) {}

  const char* reason() const noexcept { return reason_.what(); }

 private:
  // A runtime_error only as string storage: copying it is as cheap and
  // nothrow as copying the logic_error base.
  std::runtime_error reason_;
};

namespace detail {
[[noreturn]] inline void precondition_failure(const char* expr, const char* file, int line,
                                              const std::string& message) {
  throw PreconditionError(std::string("precondition failed: ") + expr + " at " + file + ":" +
                              std::to_string(line) + (message.empty() ? "" : (": " + message)),
                          message.empty() ? std::string(expr) : message);
}
}  // namespace detail

}  // namespace nubb

#define NUBB_REQUIRE(expr)                                               \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::nubb::detail::precondition_failure(#expr, __FILE__, __LINE__, ""); \
    }                                                                    \
  } while (false)

#define NUBB_REQUIRE_MSG(expr, msg)                                        \
  do {                                                                     \
    if (!(expr)) {                                                         \
      ::nubb::detail::precondition_failure(#expr, __FILE__, __LINE__, msg); \
    }                                                                      \
  } while (false)
