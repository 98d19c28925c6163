/// SIMD dispatch policy suite (util/simd.hpp): mode parsing and naming, and
/// how `resolve_simd` combines the requested mode, `NUBB_SIMD`, the
/// compiled-kernel probe and the CPU probe. Runs on every host. That the
/// vector kernels equal the scalar ones bit for bit, and that the kernel
/// installs them, is tests/core/test_simd_equality.cpp's job.

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/simd.hpp"

namespace nubb {
namespace {

/// Scoped NUBB_SIMD override so env-sensitive cases cannot leak into each
/// other (or inherit the harness environment).
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    const char* old = std::getenv("NUBB_SIMD");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      ::unsetenv("NUBB_SIMD");
    } else {
      ::setenv("NUBB_SIMD", value, 1);
    }
  }
  ~ScopedSimdEnv() {
    if (had_old_) {
      ::setenv("NUBB_SIMD", old_.c_str(), 1);
    } else {
      ::unsetenv("NUBB_SIMD");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

// --- mode parsing / naming -------------------------------------------------

TEST(SimdModeTest, ParseRoundTripsTheThreeModes) {
  EXPECT_EQ(parse_simd_mode("auto"), SimdMode::kAuto);
  EXPECT_EQ(parse_simd_mode("on"), SimdMode::kOn);
  EXPECT_EQ(parse_simd_mode("off"), SimdMode::kOff);
  for (const SimdMode mode : {SimdMode::kAuto, SimdMode::kOn, SimdMode::kOff}) {
    EXPECT_EQ(parse_simd_mode(to_string(mode)), mode);
  }
}

TEST(SimdModeTest, ParseRejectsUnknownNames) {
  EXPECT_THROW(parse_simd_mode(""), std::runtime_error);
  EXPECT_THROW(parse_simd_mode("avx2"), std::runtime_error);
  EXPECT_THROW(parse_simd_mode("ON"), std::runtime_error);
  EXPECT_THROW(parse_simd_mode("yes"), std::runtime_error);
}

TEST(SimdImplTest, NamesMatchRunMetaProvenanceTags) {
  // These strings are recorded in nubb.shard.v2 state files (RunMeta::simd);
  // changing them is a state-file format change.
  EXPECT_STREQ(to_string(SimdImpl::kScalar), "scalar");
  EXPECT_STREQ(to_string(SimdImpl::kAvx2), "avx2");
}

// --- resolution ------------------------------------------------------------

TEST(ResolveSimdTest, OffAlwaysResolvesScalar) {
  ScopedSimdEnv env("on");  // an explicit mode beats the environment
  EXPECT_EQ(resolve_simd(SimdMode::kOff), SimdImpl::kScalar);
}

TEST(ResolveSimdTest, OnRequiresBothBuildAndCpu) {
  ScopedSimdEnv env("off");  // ...in either direction
  const SimdImpl impl = resolve_simd(SimdMode::kOn);
  if (simd_kernels_compiled() && cpu_supports_avx2()) {
    EXPECT_EQ(impl, SimdImpl::kAvx2);
  } else {
    EXPECT_EQ(impl, SimdImpl::kScalar);
  }
}

TEST(ResolveSimdTest, AutoFollowsTheEnvironment) {
  {
    ScopedSimdEnv env("off");
    EXPECT_EQ(resolve_simd(SimdMode::kAuto), SimdImpl::kScalar);
  }
  {
    ScopedSimdEnv env("on");
    EXPECT_EQ(resolve_simd(SimdMode::kAuto), resolve_simd(SimdMode::kOn));
  }
  {
    // "auto" and unset mean the same thing: defer to the probe.
    ScopedSimdEnv env("auto");
    EXPECT_EQ(resolve_simd(SimdMode::kAuto), resolve_simd(SimdMode::kOn));
  }
  {
    ScopedSimdEnv env(nullptr);
    EXPECT_EQ(resolve_simd(SimdMode::kAuto), resolve_simd(SimdMode::kOn));
  }
}

TEST(ResolveSimdTest, EmptyEnvironmentCountsAsUnset) {
  ScopedSimdEnv env("");
  EXPECT_EQ(resolve_simd(SimdMode::kAuto), resolve_simd(SimdMode::kOn));
}

TEST(ResolveSimdTest, InvalidEnvironmentValueThrows) {
  ScopedSimdEnv env("avx512");
  EXPECT_THROW(resolve_simd(SimdMode::kAuto), std::runtime_error);
  // Explicit modes never read the environment, so they stay usable even
  // with a broken NUBB_SIMD.
  EXPECT_NO_THROW(resolve_simd(SimdMode::kOff));
  EXPECT_NO_THROW(resolve_simd(SimdMode::kOn));
}

}  // namespace
}  // namespace nubb
