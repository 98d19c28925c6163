#pragma once

/// \file avx2_math.hpp
/// 64-bit-lane arithmetic building blocks for the AVX2 kernel translation
/// unit (core/placement_kernel_avx2.cpp, the only TU compiled with -mavx2).
/// Include nowhere else: the whole file is compiled out unless __AVX2__ is
/// defined, so a baseline-ISA TU that includes it gets nothing rather than
/// illegal instructions.
///
/// AVX2 has no 64x64 multiply and no unsigned 64-bit compare, so the Lemire
/// reduction and the exact cross-multiplied load comparisons are assembled
/// from 32x32 partial products (_mm256_mul_epu32) and sign-flipped signed
/// compares. Everything here is exact integer arithmetic — these helpers
/// must reproduce the scalar kernels bit for bit, never approximately.

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

#include "util/inline.hpp"

namespace nubb::detail::avx2 {

/// Per-lane full 64x32 -> 96 product: `hi`/`lo` receive the high and low
/// 64-bit halves of x[i] * y[i]. With y < 2^32 in every lane two 32x32
/// partial products suffice. This is the Lemire-reduction case (y is a bin
/// or table count, always below 2^32 — the candidate buffers are u32).
/// \pre every lane of y is < 2^32.
NUBB_ALWAYS_INLINE inline void mul64_hilo_b32(const __m256i x, const __m256i y, __m256i& hi,
                                              __m256i& lo) {
  const __m256i ll = _mm256_mul_epu32(x, y);                         // x_lo * y
  const __m256i hl = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), y);  // x_hi * y
  // x * y = (hl << 32) + ll exactly; s carries the aligned middle columns.
  const __m256i s = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
  hi = _mm256_srli_epi64(s, 32);
  // Low half: high 32 bits from s, low 32 bits straight from ll (the blend
  // picks the even 32-bit lanes from its second operand).
  lo = _mm256_blend_epi32(_mm256_slli_epi64(s, 32), ll, 0x55);
}

/// mullo64 specialised for a 32-bit multiplier: with y < 2^32 in every lane
/// the x_hi * y_hi column vanishes, halving the multiply count. Used by the
/// resolve kernels when every bin capacity fits 32 bits (the capacity is
/// always the multiplier in a cross product).
/// \pre every lane of y is < 2^32.
NUBB_ALWAYS_INLINE inline __m256i mullo64_b32(const __m256i x, const __m256i y) {
  const __m256i hl = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), y);
  return _mm256_add_epi64(_mm256_mul_epu32(x, y), _mm256_slli_epi64(hl, 32));
}

/// Per-lane product modulo 2^64 (what `a * b` on uint64_t computes).
NUBB_ALWAYS_INLINE inline __m256i mullo64(const __m256i x, const __m256i y) {
  const __m256i xh = _mm256_srli_epi64(x, 32);
  const __m256i yh = _mm256_srli_epi64(y, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(xh, y), _mm256_mul_epu32(x, yh));
  return _mm256_add_epi64(_mm256_mul_epu32(x, y), _mm256_slli_epi64(cross, 32));
}

/// Unsigned per-lane a > b: flip the sign bits and compare signed.
NUBB_ALWAYS_INLINE inline __m256i cmpgt_u64(const __m256i a, const __m256i b) {
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign), _mm256_xor_si256(b, sign));
}

NUBB_ALWAYS_INLINE inline __m256i cmplt_u64(const __m256i a, const __m256i b) {
  return cmpgt_u64(b, a);
}

/// Low 32 bits of each 64-bit lane, packed into 4 consecutive u32.
NUBB_ALWAYS_INLINE inline __m128i pack_lo32(const __m256i v) {
  const __m256i idx = _mm256_set_epi32(0, 0, 0, 0, 6, 4, 2, 0);
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(v, idx));
}

/// Per-lane `mask ? a : b` on 64-bit lanes (mask all-ones / all-zeros per
/// lane, as every compare above produces). Argument order matches csel.
NUBB_ALWAYS_INLINE inline __m256i csel64(const __m256i mask, const __m256i a,
                                         const __m256i b) {
  return _mm256_blendv_epi8(b, a, mask);
}

}  // namespace nubb::detail::avx2

#endif  // __AVX2__
