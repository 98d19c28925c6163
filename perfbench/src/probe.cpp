#include "probe.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double peak_rss_mib(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return -1.0;
}

double anon_huge_share(const void* addr, std::size_t bytes) {
  std::ifstream in("/proc/self/smaps");
  if (!in || bytes == 0) return -1.0;
  const auto lo = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t hi = lo + bytes;
  double huge_bytes = 0.0;
  std::uintptr_t map_lo = 0;
  std::uintptr_t map_hi = 0;
  double map_size = 0.0;
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long a = 0;
    unsigned long long b = 0;
    if (std::sscanf(line.c_str(), "%llx-%llx ", &a, &b) == 2 && line.find('-') < 17) {
      map_lo = static_cast<std::uintptr_t>(a);
      map_hi = static_cast<std::uintptr_t>(b);
      map_size = static_cast<double>(map_hi - map_lo);
      continue;
    }
    if (line.rfind("AnonHugePages:", 0) == 0 && map_hi > lo && map_lo < hi) {
      double kib = 0.0;
      std::istringstream(line.substr(14)) >> kib;
      const double overlap =
          static_cast<double>(std::min(hi, map_hi) - std::max(lo, map_lo));
      huge_bytes += overlap * (kib * 1024.0 / map_size);
    }
  }
  return huge_bytes / static_cast<double>(bytes);
}

std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string text;
  std::getline(in, text);
  const auto open = text.find('[');
  const auto close = text.find(']');
  if (open == std::string::npos || close == std::string::npos || close < open) return "unknown";
  return text.substr(open + 1, close - open - 1);
}

std::size_t l3_bytes() {
  const long size = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (size > 0) return static_cast<std::size_t>(size);
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::size_t kib = 0;
  in >> kib;
  return kib * 1024;
}

unsigned online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

double stolen_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  const long ticks = sysconf(_SC_CLK_TCK);
  return in && cpu == "cpu" && ticks > 0 ? fields[7] / static_cast<double>(ticks) : 0.0;
}

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string compiler_flags() {
  return std::string(PERFBENCH_BUILD_TYPE) + ":" + PERFBENCH_CXX_FLAGS;
}

}  // namespace perfbench
