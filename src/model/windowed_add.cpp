#include "src/model/windowed_add.hpp"

#include <algorithm>

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

void expect_segment_bounds(int width, std::span<const int> bounds) {
  VOSIM_EXPECTS(bounds.size() >= 2);
  VOSIM_EXPECTS(bounds.front() == 0 && bounds.back() == width + 1);
  for (std::size_t s = 1; s < bounds.size(); ++s)
    VOSIM_EXPECTS(bounds[s] > bounds[s - 1]);
}

std::vector<int> equal_segments(int width, int num_segments) {
  VOSIM_EXPECTS(num_segments >= 1 && num_segments <= width + 1);
  std::vector<int> bounds{0};
  for (int s = 1; s <= num_segments; ++s)
    bounds.push_back(s * (width + 1) / num_segments);
  return bounds;
}

std::uint64_t windowed_add(std::uint64_t a, std::uint64_t b, int width,
                           std::span<const int> bounds,
                           std::span<const int> windows) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
  VOSIM_EXPECTS((a & ~mask_n(width)) == 0 && (b & ~mask_n(width)) == 0);
  expect_segment_bounds(width, bounds);
  VOSIM_EXPECTS(windows.size() + 1 == bounds.size());
  for (const int w : windows) VOSIM_EXPECTS(w >= 0 && w <= width);
  const std::uint64_t p = a ^ b;

  // Carries step up one position at a time: after d steps `chains`
  // holds, at bit i, the carry born at a generate d positions below
  // whose path is all propagates. A generate breaks every run through
  // it, so each carry is seen once, at the distance from its nearest
  // live generate, and enters the sum when that distance fits the
  // window of the segment it lands in.
  const int longest = *std::max_element(windows.begin(), windows.end());
  std::uint64_t chains = a & b;
  std::uint64_t carries = 0;
  for (int d = 1; d <= longest && chains != 0; ++d) {
    chains <<= 1;
    std::uint64_t open = 0;  // bits whose window admits distance d
    for (std::size_t s = 0; s < windows.size(); ++s)
      if (windows[s] >= d) open |= mask_n(bounds[s + 1]) & ~mask_n(bounds[s]);
    carries |= chains & open;
    chains &= p;
  }
  return p ^ carries;  // p is 0 at bit `width`: the carry-out alone
}

}  // namespace vosim
