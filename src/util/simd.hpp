#pragma once

/// \file simd.hpp
/// SIMD dispatch policy for the stream-v2 bulk loops, and the two probes it
/// rests on: the CPU's AVX2 support and whether this build compiled the
/// AVX2 kernel TU (core/placement_kernel_avx2.cpp).
///
/// Two layers, deliberately separate: `SimdMode` is what the user asks for
/// (`--simd auto|on|off`, env `NUBB_SIMD`), `SimdImpl` is what the process
/// can actually run. `resolve_simd` maps one to the other at kernel
/// construction time — the only place the decision is made — so a kernel's
/// inner loops never branch on it. The AVX2 kernels are bit-identical to the
/// scalar ones by construction (the stream-v2 draw order is batch-staged, so
/// vectorising the resolve stages cannot reorder draws; see the "SIMD
/// resolve" section of docs/stream-v2.md), which is why `kAuto` can default
/// to the fastest available implementation without a results knob.

#include <string>

namespace nubb {

/// What the user asked for. `kAuto` (the default) defers to the `NUBB_SIMD`
/// environment variable when set ("auto" | "on" | "off"; empty counts as
/// unset), then to the CPU probe. `kOn` selects the vector kernels whenever
/// the build and CPU allow, silently falling back to scalar otherwise (the
/// sweep tests flip it on portable runners); `kOff` always runs scalar.
enum class SimdMode { kAuto, kOn, kOff };

/// What the kernel actually runs. Recorded in RunMeta provenance and
/// reported by PlacementKernel::simd_impl().
enum class SimdImpl { kScalar, kAvx2 };

const char* to_string(SimdMode mode) noexcept;
const char* to_string(SimdImpl impl) noexcept;

/// \throws std::runtime_error on anything but "auto" | "on" | "off".
SimdMode parse_simd_mode(const std::string& name);

/// True when the running CPU executes AVX2 instructions. Cached after the
/// first call; always false on non-x86 targets. This is a *hardware* probe;
/// the dispatch also requires simd_kernels_compiled().
bool cpu_supports_avx2() noexcept;

/// True when this binary contains the AVX2 kernel translation unit (the
/// toolchain accepted -mavx2 at configure time). Independent of the CPU.
bool simd_kernels_compiled() noexcept;

/// Resolve a requested mode to the implementation the dispatch will install.
/// Reads `NUBB_SIMD` for kAuto (so a fixed binary can be steered per run),
/// then requires both the compiled kernels and the CPU feature.
/// \throws std::runtime_error when NUBB_SIMD is set to an unknown value.
SimdImpl resolve_simd(SimdMode mode);

}  // namespace nubb
