/// \file alias_table_avx2.cpp
/// AVX2 body of AliasTable::sample_fill. Compiled with -mavx2 (see
/// src/CMakeLists.txt); builds as an aborting stub when the toolchain lacks
/// the flag, so the symbol always links and runtime dispatch is the only
/// gate. Bit-equal to repeated sample(): the slot draw is the same Lemire
/// bounded draw (vector product, scalar-replayed chunk on the vanishing
/// rejections), and acceptance compares the same 53-bit mantissa against
/// the same integer thresholds.

#include "util/alias_table.hpp"

#include "util/assert.hpp"

#if defined(__AVX2__)

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "util/avx2_math.hpp"
#include "util/int128.hpp"

namespace nubb::detail {

namespace {

using namespace nubb::detail::avx2;

/// One sample in the integer form, consuming draws exactly like
/// AliasTable::sample (bounded slot draw, then one mantissa word).
NUBB_ALWAYS_INLINE inline std::uint32_t sample_scalar(const std::uint64_t* const threshold,
                                                      const std::uint32_t* const alias,
                                                      const std::uint64_t n,
                                                      const std::uint64_t reject,
                                                      Xoshiro256StarStar& rng) {
  std::uint64_t hi;
  for (;;) {
    const uint128 m = static_cast<uint128>(rng.next()) * n;
    hi = static_cast<std::uint64_t>(m >> 64);
    if (static_cast<std::uint64_t>(m) >= reject) [[likely]] break;
  }
  const auto slot = static_cast<std::uint32_t>(hi);
  const std::uint64_t mant = rng.next() >> 11;
  return mant < threshold[slot] ? slot : alias[slot];
}

}  // namespace

void alias_sample_fill_avx2(const std::uint64_t* const threshold,
                            const std::uint32_t* const alias, const std::uint64_t n,
                            std::uint32_t* const out, const std::size_t count,
                            Xoshiro256StarStar& rng) noexcept {
  const std::uint64_t reject = (0 - n) % n;
  constexpr std::size_t kPairs = 64;  // (slot word, mantissa word) per sample
  std::uint64_t raw[2 * kPairs];
  const __m256i vn = _mm256_set1_epi64x(static_cast<long long>(n));
  const __m256i vreject = _mm256_set1_epi64x(static_cast<long long>(reject));
  std::size_t done = 0;
  while (done < count) {
    const std::size_t c = std::min(kPairs, count - done) & ~std::size_t{3};
    if (c == 0) break;  // fewer than 4 samples left: scalar tail below
    const std::array<std::uint64_t, 4> saved = rng.state();
    {
      Xoshiro256StarStar local = rng;  // keep the state in registers (TBAA)
      for (std::size_t j = 0; j < 2 * c; ++j) raw[j] = local.next();
      rng = local;
    }
    __m256i any_reject = _mm256_setzero_si256();
    for (std::size_t j = 0; j < c; j += 4) {
      const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + 2 * j));
      const __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + 2 * j + 4));
      // Deinterleave the (slot, mantissa) pairs. unpack works within 128-bit
      // halves, so the lane order becomes samples (j, j+2, j+1, j+3) — pure
      // per-lane math until the final u32 shuffle restores sample order.
      const __m256i slot_w = _mm256_unpacklo_epi64(v0, v1);
      const __m256i mant_w = _mm256_unpackhi_epi64(v0, v1);
      __m256i hi;
      __m256i lo;
      mul64_hilo_b32(slot_w, vn, hi, lo);
      any_reject = _mm256_or_si256(any_reject, cmplt_u64(lo, vreject));
      const __m256i thr = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(threshold), hi, 8);
      const __m256i mant = _mm256_srli_epi64(mant_w, 11);
      // Both sides are below 2^53, so the signed compare is exact.
      const __m256i accept = _mm256_cmpgt_epi64(thr, mant);
      const __m128i slot32 = pack_lo32(hi);
      // 64-bit indices into the u32 alias array: exact for every n <= 2^32
      // (a 32-bit index gather would go negative past 2^31 slots).
      const __m128i al32 =
          _mm256_i64gather_epi32(reinterpret_cast<const int*>(alias), hi, 4);
      __m128i res = _mm_blendv_epi8(al32, slot32, pack_lo32(accept));
      res = _mm_shuffle_epi32(res, _MM_SHUFFLE(3, 1, 2, 0));  // undo (j, j+2, j+1, j+3)
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + done + j), res);
    }
    if (!_mm256_testz_si256(any_reject, any_reject)) [[unlikely]] {
      // A rejected slot word shifts every later draw by at least one next();
      // replay the chunk through the exact scalar consumption order.
      rng = Xoshiro256StarStar(saved);
      Xoshiro256StarStar local = rng;
      for (std::size_t j = 0; j < c; ++j) {
        out[done + j] = sample_scalar(threshold, alias, n, reject, local);
      }
      rng = local;
    }
    done += c;
  }
  if (done < count) {
    Xoshiro256StarStar local = rng;
    for (; done < count; ++done) {
      out[done] = sample_scalar(threshold, alias, n, reject, local);
    }
    rng = local;
  }
}

}  // namespace nubb::detail

#else  // !__AVX2__

namespace nubb::detail {

void alias_sample_fill_avx2(const std::uint64_t*, const std::uint32_t*, std::uint64_t,
                            std::uint32_t*, std::size_t, Xoshiro256StarStar&) noexcept {
  NUBB_REQUIRE_MSG(false, "alias_sample_fill_avx2 called but AVX2 kernels were not compiled");
}

}  // namespace nubb::detail

#endif  // __AVX2__
