// The "modified adder" of the paper (Section IV): addition whose carries
// are only allowed to travel a bounded number of positions. With window
// C >= Cth_max the result is exact; C = 0 degenerates to a bitwise XOR.
//
// Segments give each region of the (width+1)-bit output its own window:
// segment s covers bits [bounds[s], bounds[s+1]), bounds rising strictly
// from 0 to width+1 (the carry-out belongs to the last segment).
#ifndef VOSIM_MODEL_WINDOWED_ADD_HPP
#define VOSIM_MODEL_WINDOWED_ADD_HPP

#include <cstdint>
#include <span>
#include <vector>

namespace vosim {

/// Throws ContractViolation unless `bounds` segments a width-bit
/// adder's output word.
void expect_segment_bounds(int width, std::span<const int> bounds);

/// Equal-width segment bounds over the width+1 output bits.
std::vector<int> equal_segments(int width, int num_segments);

/// Windowed addition, one window per segment: the carry into bit i
/// comes only from the nearest generate at most windows[s] positions
/// below it, s being the segment holding bit i.
std::uint64_t windowed_add(std::uint64_t a, std::uint64_t b, int width,
                           std::span<const int> bounds,
                           std::span<const int> windows);

/// add_modified(in1, in2, C): the one-segment case, a (width+1)-bit sum
/// (carry-out in bit `width`) with one window C over every bit.
inline std::uint64_t windowed_add(std::uint64_t a, std::uint64_t b,
                                  int width, int window) {
  const int bounds[] = {0, width + 1};
  return windowed_add(a, b, width, bounds, {&window, 1});
}

}  // namespace vosim

#endif  // VOSIM_MODEL_WINDOWED_ADD_HPP
