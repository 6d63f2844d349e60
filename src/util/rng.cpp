#include "src/util/rng.hpp"

#include <cmath>
#include <numbers>

namespace vosim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro256** must not start from the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  VOSIM_EXPECTS(bound > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Rng::in_range(std::uint64_t lo, std::uint64_t hi) {
  VOSIM_EXPECTS(lo <= hi);
  const std::uint64_t span = hi - lo;
  if (span == ~0ULL) return (*this)();
  return lo + below(span + 1);
}

double Rng::gaussian() noexcept {
  // Box-Muller; draws two uniforms per variate (simple and branch-free
  // enough for the variation model, which is not on the innermost loop).
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::uint64_t Rng::bits(int nbits) {
  VOSIM_EXPECTS(nbits >= 0 && nbits <= 64);
  if (nbits == 0) return 0;
  return (*this)() >> (64 - nbits);
}

Rng Rng::split() noexcept {
  Rng child(0);
  child.state_ = {(*this)(), (*this)(), (*this)(), (*this)()};
  if ((child.state_[0] | child.state_[1] | child.state_[2] |
       child.state_[3]) == 0)
    child.state_[0] = 1;
  return child;
}

}  // namespace vosim
