// Deterministic, platform-portable pseudo-random number generation.
//
// The standard library's engines are deterministic but its *distributions*
// are not portable across implementations; experiments in this repository
// must reproduce bit-identically everywhere, so we implement both the
// generator (xoshiro256++) and the distributions ourselves.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace gtrix {

class CkptIo;

/// SplitMix64: used to expand a 64-bit seed into generator state.
/// Reference: Steele, Lea, Flood, "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0 by Blackman and Vigna. 256 bits of state, period 2^256-1,
/// passes BigCrush. Deterministic across platforms.
class Rng {
 public:
  /// Seeds the full state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Uniform 64-bit word.
  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, bound). Uses Lemire's multiply-shift rejection method;
  /// unbiased. bound must be positive.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept;

  /// Derives an independent child generator; `label` decorrelates children
  /// derived from the same parent seed for different purposes.
  Rng split(std::string_view label) noexcept;

  /// Checkpoint codec (src/ckpt): the four xoshiro words, so a restored
  /// stream emits the exact continuation. Defined in src/ckpt/state_ckpt.cpp.
  void checkpoint(CkptIo& io);

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Stable 64-bit FNV-1a hash of a string; used for seed derivation.
std::uint64_t fnv1a64(std::string_view s) noexcept;

}  // namespace gtrix
