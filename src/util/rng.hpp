// Deterministic, fast pseudo-random number generation.
//
// Characterization sweeps fan out one Rng per (triad, worker) derived from a
// master seed, so multi-threaded runs are bit-reproducible (DESIGN.md §6.4).
// xoshiro256** is used instead of std::mt19937_64 because pattern generation
// sits on the hot path of million-operation sweeps; the draw, uniform() and
// flip() are defined here so those loops inline them.
#ifndef VOSIM_UTIL_RNG_HPP
#define VOSIM_UTIL_RNG_HPP

#include <array>
#include <cstdint>

#include "src/util/contracts.hpp"

namespace vosim {

/// xoshiro256** generator with SplitMix64 seeding.
///
/// Satisfies std::uniform_random_bit_generator, so it can also be plugged
/// into <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next 64 uniformly random bits.
  std::uint64_t operator()() noexcept {
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

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::uint64_t in_range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1): the 53 high bits of one draw.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0, 1]).
  bool flip(double p) noexcept { return uniform() < p; }

  /// Standard normal variate (Box-Muller, stateless variant).
  double gaussian() noexcept;

  /// A word whose low `bits` bits are uniformly random. Precondition:
  /// bits <= 64.
  std::uint64_t bits(int nbits);

  /// Derives an independent child generator; used to give each worker or
  /// triad its own stream.
  Rng split() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace vosim

#endif  // VOSIM_UTIL_RNG_HPP
