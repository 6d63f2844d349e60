// Windowed ("modified") adder tests: exactness conditions, degenerate
// windows and equivalence with an O(n·C) brute-force reference.
#include <gtest/gtest.h>

#include "src/model/carry_chain.hpp"
#include "src/model/windowed_add.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

/// Straight-from-the-definition reference: carry into i iff some
/// generate j within [i-C, i-1] has an unbroken propagate run to i.
std::uint64_t brute_force_windowed(std::uint64_t a, std::uint64_t b,
                                   int width, int window) {
  const std::uint64_t g = a & b;
  const std::uint64_t p = a ^ b;
  std::uint64_t result = 0;
  for (int i = 0; i <= width; ++i) {
    bool carry = false;
    for (int j = std::max(0, i - window); j < i; ++j) {
      if (bit_of(g, j) == 0) continue;
      bool run = true;
      for (int k = j + 1; k < i; ++k)
        if (bit_of(p, k) == 0) run = false;
      if (run) carry = true;
    }
    const bool bit = (i == width)
                         ? carry
                         : ((bit_of(p, i) != 0) != carry);
    if (bit) result |= (1ULL << i);
  }
  return result;
}

TEST(WindowedAdd, FullWindowIsExactExhaustively) {
  for (std::uint64_t a = 0; a < 256; ++a)
    for (std::uint64_t b = 0; b < 256; ++b)
      ASSERT_EQ(windowed_add(a, b, 8, 8), a + b) << a << "+" << b;
}

TEST(WindowedAdd, WindowAtLeastCthIsExact) {
  Rng rng(123);
  for (int t = 0; t < 5000; ++t) {
    const std::uint64_t a = rng.bits(16);
    const std::uint64_t b = rng.bits(16);
    const int cth = theoretical_max_carry_chain(a, b, 16);
    for (int c = cth; c <= std::min(16, cth + 2); ++c)
      ASSERT_EQ(windowed_add(a, b, 16, c), a + b)
          << a << "+" << b << " C=" << c << " cth=" << cth;
  }
}

TEST(WindowedAdd, WindowBelowCthBreaksSomeAddition) {
  // For any pair with Cth >= 1, window Cth-1 must change the result of
  // *that* addition when the longest chain is unique... not necessarily
  // — but windows strictly below Cth must break at least the pair that
  // realizes the chain. Check on directed full-chain patterns.
  for (int width : {4, 8, 16}) {
    const std::uint64_t a = mask_n(width);
    const std::uint64_t b = 1;
    ASSERT_EQ(theoretical_max_carry_chain(a, b, width), width);
    for (int c = 0; c < width; ++c)
      ASSERT_NE(windowed_add(a, b, width, c), a + b) << "C=" << c;
  }
}

TEST(WindowedAdd, ZeroWindowIsXor) {
  Rng rng(7);
  for (int t = 0; t < 2000; ++t) {
    const std::uint64_t a = rng.bits(12);
    const std::uint64_t b = rng.bits(12);
    ASSERT_EQ(windowed_add(a, b, 12, 0), a ^ b);
  }
}

TEST(WindowedAdd, MatchesBruteForceExhaustively) {
  for (int window : {0, 1, 2, 3, 5, 8}) {
    for (std::uint64_t a = 0; a < 256; a += 1)
      for (std::uint64_t b = 0; b < 256; b += 3)
        ASSERT_EQ(windowed_add(a, b, 8, window),
                  brute_force_windowed(a, b, 8, window))
            << a << "+" << b << " C=" << window;
  }
}

TEST(WindowedAdd, MatchesBruteForceRandomWide) {
  Rng rng(999);
  for (int t = 0; t < 3000; ++t) {
    const int width = 8 + static_cast<int>(rng.below(40));
    const int window = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(width) + 1));
    const std::uint64_t a = rng.bits(width);
    const std::uint64_t b = rng.bits(width);
    ASSERT_EQ(windowed_add(a, b, width, window),
              brute_force_windowed(a, b, width, window))
        << width << "/" << window << ": " << a << "+" << b;
  }
}

TEST(WindowedAdd, ErrorMagnitudeShrinksWithWindowOnAverage) {
  // Not monotone pair-by-pair, but the mean absolute error over many
  // pairs must decrease as the window widens.
  Rng rng(11);
  std::vector<std::uint64_t> as;
  std::vector<std::uint64_t> bs;
  for (int t = 0; t < 3000; ++t) {
    as.push_back(rng.bits(16));
    bs.push_back(rng.bits(16));
  }
  double prev = -1.0;
  for (int window : {0, 2, 4, 8, 16}) {
    double err = 0.0;
    for (std::size_t i = 0; i < as.size(); ++i) {
      const double d =
          static_cast<double>(windowed_add(as[i], bs[i], 16, window)) -
          static_cast<double>(as[i] + bs[i]);
      err += std::abs(d);
    }
    if (prev >= 0.0) {
      EXPECT_LT(err, prev) << "window " << window;
    }
    prev = err;
  }
}

TEST(WindowedAdd, ContractsEnforced) {
  EXPECT_THROW(windowed_add(0, 0, 8, -1), ContractViolation);
  EXPECT_THROW(windowed_add(0, 0, 8, 9), ContractViolation);
  EXPECT_THROW(windowed_add(0x100, 0, 8, 4), ContractViolation);
}

}  // namespace
}  // namespace vosim
