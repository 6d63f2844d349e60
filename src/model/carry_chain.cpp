#include "src/model/carry_chain.hpp"

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

int max_carry_chain(std::uint64_t a, std::uint64_t b, int width, int lo,
                    int hi) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
  VOSIM_EXPECTS(lo >= 0 && hi > lo && hi <= width + 1);
  VOSIM_EXPECTS((a & ~mask_n(width)) == 0 && (b & ~mask_n(width)) == 0);
  const std::uint64_t p = a ^ b;
  const std::uint64_t bits = mask_n(hi) & ~mask_n(lo);
  // After d steps `chains` holds the carries that have travelled d
  // positions (see windowed_add); the last step to land one in
  // [lo, hi) is the longest.
  int longest = 0;
  std::uint64_t chains = a & b;
  for (int d = 1; chains != 0; ++d) {
    chains <<= 1;
    if ((chains & bits) != 0) longest = d;
    chains &= p;
  }
  return longest;
}

}  // namespace vosim
