#include "util/simd.hpp"

#include <cstdlib>
#include <stdexcept>

namespace nubb {

bool cpu_supports_avx2() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  // __builtin_cpu_supports caches the cpuid probe behind a resolver, so
  // repeated calls (one per kernel construction) cost a load + test.
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const char* to_string(SimdMode mode) noexcept {
  switch (mode) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kOn:
      return "on";
    case SimdMode::kOff:
      return "off";
  }
  return "auto";
}

const char* to_string(SimdImpl impl) noexcept {
  return impl == SimdImpl::kAvx2 ? "avx2" : "scalar";
}

SimdMode parse_simd_mode(const std::string& name) {
  if (name == "auto") return SimdMode::kAuto;
  if (name == "on") return SimdMode::kOn;
  if (name == "off") return SimdMode::kOff;
  throw std::runtime_error("unknown SIMD mode \"" + name + "\" (expected auto | on | off)");
}

bool simd_kernels_compiled() noexcept {
#if defined(NUBB_HAVE_AVX2_KERNELS)
  return true;
#else
  return false;
#endif
}

SimdImpl resolve_simd(SimdMode mode) {
  if (mode == SimdMode::kAuto) {
    // An *empty* NUBB_SIMD counts as unset so CI matrices can pass the
    // variable through unconditionally; any other unknown value is a real
    // configuration error and fails loudly.
    const char* env = std::getenv("NUBB_SIMD");
    if (env != nullptr && *env != '\0') {
      try {
        mode = parse_simd_mode(env);
      } catch (const std::runtime_error&) {
        throw std::runtime_error(std::string("bad NUBB_SIMD value \"") + env +
                                 "\" (expected auto | on | off)");
      }
    }
  }
  if (mode == SimdMode::kOff) return SimdImpl::kScalar;
  // kOn and (post-env) kAuto both mean "vector if possible": kOn is not an
  // error on machines without AVX2 — the bit-equality sweep turns it on
  // everywhere and expects the scalar fallback to engage.
  return simd_kernels_compiled() && cpu_supports_avx2() ? SimdImpl::kAvx2 : SimdImpl::kScalar;
}

}  // namespace nubb
