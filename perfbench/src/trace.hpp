#pragma once

/// \file trace.hpp
/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark's own code around each call it makes into a layer of the
/// library; nothing inside the library is instrumented. A span holds its
/// name, start, end, parent and request id; spans stay in memory and are
/// written out once, when the run ends.
///
/// Spans nest in one stack shared by the benchmark's threads: the only
/// cross-thread handoff is a pool worker running a chunk while the caller
/// blocks on its future, so spans never interleave.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;     ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0;    ///< request / replication id (0 when none)
};

/// Per-name aggregate of the self-time fold.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  ///< duration minus the time covered by child spans
  std::vector<double> durations_ns;
};

class Tracer {
 public:
  std::int64_t begin(const char* name, std::uint64_t request);
  void end(std::int64_t index);

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Fold every span into per-name totals; self time subtracts the union of
  /// each span's direct children (children of one span never overlap).
  std::map<std::string, SpanTotals> fold() const;

  /// Write all spans as JSON to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, request) : -1) {}
  ~Span() {
    if (tracer_) tracer_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t index_;
};

}  // namespace perfbench
