// Carry-chain analysis (paper Section IV).
//
// The statistical model's single parameter for adders is the longest
// carry-propagation chain: VOS breaks the longest combinational paths
// first, and those are exactly the long carry chains.
#ifndef VOSIM_MODEL_CARRY_CHAIN_HPP
#define VOSIM_MODEL_CARRY_CHAIN_HPP

#include <cstdint>

namespace vosim {

/// Longest distance a carry travels into output bits [lo, hi) of a+b
/// (0 when no carry reaches them); hi may be width+1 to include the
/// carry-out. The whole word [0, width+1) gives Cth_max, one segment's
/// bits that segment's Cth (windowed_add.hpp), and [i, i+1) the
/// distance the carry entering bit i has travelled.
int max_carry_chain(std::uint64_t a, std::uint64_t b, int width, int lo,
                    int hi);

/// Theoretical maximal carry chain Cth_max of the addition a+b on `width`
/// bits: the largest number of positions any single carry travels. A
/// carry born at a generate position j (a_j = b_j = 1) travels through
/// the run of propagate positions (a^b) above it and dies one past the
/// run, so its length is 1 + run(p, j+1), capped by the carry-out stage.
/// Range: 0 (no carry at all) .. width (carry crosses into cout).
inline int theoretical_max_carry_chain(std::uint64_t a, std::uint64_t b,
                                       int width) {
  return max_carry_chain(a, b, width, 0, width + 1);
}

}  // namespace vosim

#endif  // VOSIM_MODEL_CARRY_CHAIN_HPP
