#include "trace.hpp"

#include <fstream>

#include "common.hpp"

namespace perfbench {

std::int64_t Tracer::begin(const char* name, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  const auto index = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(index);
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::end(std::int64_t index) {
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::fold() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.durations_ns.push_back(dur);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - t0
        << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
