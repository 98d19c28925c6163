#pragma once

/// \file rng.hpp
/// Pseudo-random number generation substrate.
///
/// The library deliberately does not use `std::mt19937`/`std::*_distribution`
/// in the hot path: their output is implementation-defined across standard
/// library versions, which would make the Monte-Carlo experiments
/// unreproducible across toolchains. Instead we implement
///
///  * `SplitMix64`  - a tiny 64-bit mixer; used for seeding and stream
///                    derivation (Steele, Lea, Flood: "Fast splittable
///                    pseudorandom number generators", OOPSLA 2014).
///  * `Xoshiro256StarStar` - the general-purpose engine used by every game
///                    (Blackman & Vigna, 2018). Passes BigCrush; 2^256 - 1
///                    period; `jump()` provides 2^128 disjoint subsequences.
///
/// Bounded integers use Lemire's multiply-shift rejection method; doubles use
/// the canonical 53-bit mantissa construction. Both are exactly reproducible
/// on any conforming C++20 implementation.

#include <array>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "util/assert.hpp"
#include "util/inline.hpp"
#include "util/int128.hpp"

namespace nubb {

/// SplitMix64: a 64-bit state / 64-bit output mixer.
///
/// Output sequence is fully determined by the seed; the increment is the
/// golden-ratio constant. Primarily used to expand user seeds into the
/// 256-bit state of Xoshiro256StarStar and to derive per-replication seeds.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  constexpr std::uint64_t operator()() noexcept { return next(); }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  std::uint64_t state_;
};

/// Mix two 64-bit values into one; used to derive independent streams, e.g.
/// `seed_for_replication(base_seed, rep)`. Stateless and collision-resistant
/// enough for Monte-Carlo stream separation (it is one SplitMix64 step of a
/// SplitMix64-mixed combination).
constexpr std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) noexcept {
  SplitMix64 sm(a ^ (0x9E3779B97F4A7C15ULL + (b << 6) + (b >> 2)));
  sm.next();
  return sm.next() ^ b;
}

/// xoshiro256** 1.0 by David Blackman and Sebastiano Vigna (public domain).
///
/// The workhorse engine: state is 256 bits, period 2^256 - 1, output passes
/// BigCrush. Satisfies the C++ `uniform_random_bit_generator` concept so it
/// can be plugged into standard facilities when convenient, but the library's
/// own distributions (below) are preferred for reproducibility.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seed via SplitMix64 expansion, as recommended by the authors (avoids
  /// the all-zero state and decorrelates similar seeds).
  explicit Xoshiro256StarStar(std::uint64_t seed = 0xB0BACAFE1234ABCDULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  /// Construct from a full 256-bit state (must not be all zero: zero is the
  /// engine's unique fixed point and would yield a constant-zero stream).
  explicit Xoshiro256StarStar(const std::array<std::uint64_t, 4>& state) : state_(state) {
    NUBB_REQUIRE_MSG((state[0] | state[1] | state[2] | state[3]) != 0,
                     "xoshiro256** state must not be all zero");
  }

  NUBB_ALWAYS_INLINE std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  std::uint64_t operator()() noexcept { return next(); }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Advance 2^128 steps: partitions the period into disjoint subsequences
  /// for parallel streams derived from one seed.
  void jump() noexcept;

  /// Uniform integer in [0, bound) via Lemire's multiply-shift method.
  /// \pre bound > 0.
  NUBB_ALWAYS_INLINE std::uint64_t bounded(std::uint64_t bound) noexcept {
    // Fast path: one multiply; the (rare) biased region continues in the
    // out-of-line rejection loop so this body stays small enough to inline
    // into the fused placement loops, where it is the hottest primitive.
    const uint128 m = static_cast<uint128>(next()) * bound;
    if (static_cast<std::uint64_t>(m) < bound) [[unlikely]] {
      return bounded_rejection(bound, m);
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Fill `out[0..count)` with independent draws from [0, bound), exactly as
  /// if `bounded(bound)` had been called `count` times in order (the batch
  /// form exists so hot loops can keep the engine state in registers across
  /// the whole candidate draw; it never reorders or fuses draws, so fixed-
  /// seed streams stay byte-identical with the one-at-a-time form).
  ///
  /// Large fills take a bulk Lemire multiply-shift path: the rejection
  /// threshold `(2^64 - bound) mod bound` is computed once (one division per
  /// fill, not per draw), so the steady-state loop is multiply, shift, and a
  /// compare against a register constant — no cold-path call, no second
  /// branch — and the redraw loop runs inline on the (rare) rejected draws.
  /// The redraw condition is exactly the scalar path's, so outputs and the
  /// number of `next()` steps are identical draw for draw.
  /// \pre bound > 0.
  template <typename T>
  void bounded_fill(std::uint64_t bound, T* out, std::size_t count) noexcept {
    static_assert(std::is_integral_v<T>, "bounded_fill needs an integral output type");
    if (count < 8) {
      // Short fills (the per-ball candidate draw) skip the threshold
      // division; the draws are the same either way.
      for (std::size_t i = 0; i < count; ++i) out[i] = static_cast<T>(bounded(bound));
      return;
    }
    const std::uint64_t threshold = (0 - bound) % bound;
    for (std::size_t i = 0; i < count; ++i) {
      uint128 m = static_cast<uint128>(next()) * bound;
      while (static_cast<std::uint64_t>(m) < threshold) [[unlikely]] {
        m = static_cast<uint128>(next()) * bound;
      }
      out[i] = static_cast<T>(static_cast<std::uint64_t>(m >> 64));
    }
  }

  /// Uniform double in [0, 1) with 53 random mantissa bits.
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * next_double(); }

  const std::array<std::uint64_t, 4>& state() const noexcept { return state_; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// Cold continuation of bounded(): Lemire's rejection loop, entered with
  /// the first draw's product `m` whose low half fell below `bound`. Redraws
  /// exactly as the historic inline loop did, so fixed-seed streams are
  /// byte-identical.
  std::uint64_t bounded_rejection(std::uint64_t bound, uint128 m) noexcept;

  std::array<std::uint64_t, 4> state_;
};

/// Canonical per-replication seed derivation: replication `rep` of an
/// experiment with `base_seed` always sees the same stream, independent of
/// scheduling or thread count.
constexpr std::uint64_t seed_for_replication(std::uint64_t base_seed, std::uint64_t rep) noexcept {
  return mix_seed(base_seed, 0x5851F42D4C957F2DULL * (rep + 1));
}

}  // namespace nubb
