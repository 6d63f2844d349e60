// Carry-chain analysis tests: hand cases, a brute-force reference and
// the relationship to real carries of the addition.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/model/carry_chain.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

/// Brute-force Cth_max straight from the definition: for every generate
/// position, count the propagate run above it.
int brute_force_cth(std::uint64_t a, std::uint64_t b, int width) {
  const std::uint64_t g = a & b;
  const std::uint64_t p = a ^ b;
  int best = 0;
  for (int j = 0; j < width; ++j) {
    if (bit_of(g, j) == 0) continue;
    int len = 1;
    for (int i = j + 1; i < width && bit_of(p, i) != 0; ++i) ++len;
    best = std::max(best, len);
  }
  return best;
}

TEST(CarryChain, HandCases) {
  // No generates: nothing propagates.
  EXPECT_EQ(theoretical_max_carry_chain(0b0101, 0b1010, 4), 0);
  // Single generate, no propagate above.
  EXPECT_EQ(theoretical_max_carry_chain(0b0001, 0b0001, 4), 1);
  // Full-length chain: g at bit0, propagates above.
  EXPECT_EQ(theoretical_max_carry_chain(0xFF, 0x01, 8), 8);
  // Generate at the top bit reaches only the carry-out.
  EXPECT_EQ(theoretical_max_carry_chain(0x80, 0x80, 8), 1);
  // Two chains: the longer one wins.
  // g0 with p1..p2 (len 3), g5 alone (len 1).
  const std::uint64_t a = 0b00100111;
  const std::uint64_t b = 0b00100001;
  // bits: g = a&b = 0b00100001 (g0, g5); p = a^b = 0b00000110 (p1,p2).
  EXPECT_EQ(theoretical_max_carry_chain(a, b, 8), 3);
}

TEST(CarryChain, ZeroOperands) {
  EXPECT_EQ(theoretical_max_carry_chain(0, 0, 8), 0);
  EXPECT_EQ(theoretical_max_carry_chain(0, 0xFF, 8), 0);
}

TEST(CarryChain, MatchesBruteForceExhaustively8bit) {
  for (std::uint64_t a = 0; a < 256; ++a)
    for (std::uint64_t b = 0; b < 256; ++b)
      ASSERT_EQ(theoretical_max_carry_chain(a, b, 8),
                brute_force_cth(a, b, 8))
          << a << "+" << b;
}

TEST(CarryChain, MatchesBruteForceRandomWide) {
  Rng rng(2718);
  for (int width : {16, 24, 32, 48, 63}) {
    for (int t = 0; t < 3000; ++t) {
      const std::uint64_t a = rng.bits(width);
      const std::uint64_t b = rng.bits(width);
      ASSERT_EQ(theoretical_max_carry_chain(a, b, width),
                brute_force_cth(a, b, width))
          << width << ": " << a << "+" << b;
    }
  }
}

TEST(CarryChain, BoundsRespected) {
  Rng rng(3);
  for (int t = 0; t < 1000; ++t) {
    const std::uint64_t a = rng.bits(16);
    const std::uint64_t b = rng.bits(16);
    const int c = theoretical_max_carry_chain(a, b, 16);
    ASSERT_GE(c, 0);
    ASSERT_LE(c, 16);
  }
  EXPECT_THROW(theoretical_max_carry_chain(0x10, 0, 4), ContractViolation);
  EXPECT_THROW(theoretical_max_carry_chain(0, 0, 0), ContractViolation);
}

/// Distance the carry entering each bit 0..width has travelled (0 when
/// none enters): the longest chain into that one bit.
std::vector<int> carry_travel_distances(std::uint64_t a, std::uint64_t b,
                                        int width) {
  std::vector<int> dist;
  for (int i = 0; i <= width; ++i)
    dist.push_back(max_carry_chain(a, b, width, i, i + 1));
  return dist;
}

TEST(CarryTravelDistances, MatchRealCarries) {
  // dist[i] > 0 exactly when a carry enters bit i in the true addition.
  Rng rng(31);
  for (int t = 0; t < 2000; ++t) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    const auto dist = carry_travel_distances(a, b, 8);
    // carries word: c_i = bit i of (a+b) ^ a ^ b (carry into position i).
    const std::uint64_t carries = (a + b) ^ a ^ b;
    for (int i = 1; i <= 8; ++i)
      ASSERT_EQ(dist[static_cast<std::size_t>(i)] > 0,
                bit_of(carries, i) != 0)
          << a << "+" << b << " bit " << i;
  }
}

TEST(CarryTravelDistances, MaxEqualsCthMax) {
  Rng rng(37);
  for (int t = 0; t < 2000; ++t) {
    const std::uint64_t a = rng.bits(12);
    const std::uint64_t b = rng.bits(12);
    const auto dist = carry_travel_distances(a, b, 12);
    const int max_dist = *std::max_element(dist.begin(), dist.end());
    ASSERT_EQ(max_dist, theoretical_max_carry_chain(a, b, 12))
        << a << "+" << b;
  }
}

TEST(CarryTravelDistances, NearestGenerateWins) {
  // a=0b111, b=0b001: g0, p1, p2. Carry into 1 from g0 (dist 1); into 2
  // travels 2; into 3 travels 3.
  const auto dist = carry_travel_distances(0b111, 0b001, 3);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], 2);
  EXPECT_EQ(dist[3], 3);
  // Insert a second generate at bit1: a=0b011,b=0b011 -> g0,g1; carry
  // into 2 comes from the nearer g1 (dist 1).
  const auto dist2 = carry_travel_distances(0b011, 0b011, 3);
  EXPECT_EQ(dist2[1], 1);
  EXPECT_EQ(dist2[2], 1);
}

}  // namespace
}  // namespace vosim
