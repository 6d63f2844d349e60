// Error-metric accumulator tests with hand-computed values.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/characterize/metrics.hpp"
#include "src/util/contracts.hpp"
#include "src/util/lanes.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

TEST(Metrics, PerfectRunIsErrorFree) {
  ErrorAccumulator acc(9);
  for (std::uint64_t v : {0ull, 1ull, 255ull, 511ull}) acc.add(v, v);
  EXPECT_EQ(acc.ops(), 4u);
  EXPECT_EQ(acc.ber(), 0.0);
  EXPECT_EQ(acc.op_error_rate(), 0.0);
  EXPECT_EQ(acc.mse(), 0.0);
  EXPECT_TRUE(std::isinf(acc.snr_db()));
  EXPECT_EQ(acc.mean_hamming(), 0.0);
}

TEST(Metrics, HandComputedBer) {
  ErrorAccumulator acc(8);
  acc.add(0b00000000, 0b00000011);  // 2 bit errors
  acc.add(0b11111111, 0b11111111);  // 0
  acc.add(0b10101010, 0b10101000);  // 1
  acc.add(0b00001111, 0b11110000);  // 8
  // BER = 11 / (4 ops * 8 bits)
  EXPECT_DOUBLE_EQ(acc.ber(), 11.0 / 32.0);
  EXPECT_DOUBLE_EQ(acc.op_error_rate(), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(acc.mean_hamming(), 11.0 / 4.0);
  EXPECT_DOUBLE_EQ(acc.normalized_hamming(), 11.0 / 32.0);
}

TEST(Metrics, BitwiseErrorProbability) {
  ErrorAccumulator acc(4);
  acc.add(0b0000, 0b0001);  // bit0 err
  acc.add(0b0000, 0b0001);  // bit0 err
  acc.add(0b0000, 0b1000);  // bit3 err
  acc.add(0b0000, 0b0000);
  const auto bw = acc.bitwise_error_probability();
  ASSERT_EQ(bw.size(), 4u);
  EXPECT_DOUBLE_EQ(bw[0], 0.5);
  EXPECT_DOUBLE_EQ(bw[1], 0.0);
  EXPECT_DOUBLE_EQ(bw[2], 0.0);
  EXPECT_DOUBLE_EQ(bw[3], 0.25);
}

TEST(Metrics, MseAndSnr) {
  ErrorAccumulator acc(16);
  acc.add(100, 90);   // err -10
  acc.add(200, 220);  // err +20
  EXPECT_DOUBLE_EQ(acc.mse(), (100.0 + 400.0) / 2.0);
  const double snr = 10.0 * std::log10((100.0 * 100 + 200.0 * 200) /
                                       (100.0 + 400.0));
  EXPECT_NEAR(acc.snr_db(), snr, 1e-12);
  EXPECT_DOUBLE_EQ(acc.mean_abs_error(), 15.0);
  EXPECT_DOUBLE_EQ(acc.max_abs_error(), 20.0);
}

TEST(Metrics, MergeMatchesSequential) {
  ErrorAccumulator a(8);
  ErrorAccumulator b(8);
  ErrorAccumulator all(8);
  for (int i = 0; i < 50; ++i) {
    const auto ref = static_cast<std::uint64_t>(i * 3 % 256);
    const auto act = static_cast<std::uint64_t>((i * 3 + (i % 4)) % 256);
    all.add(ref, act);
    (i % 2 ? a : b).add(ref, act);
  }
  a.merge(b);
  EXPECT_EQ(a.ops(), all.ops());
  EXPECT_DOUBLE_EQ(a.ber(), all.ber());
  EXPECT_DOUBLE_EQ(a.mse(), all.mse());
  EXPECT_DOUBLE_EQ(a.mean_hamming(), all.mean_hamming());
  EXPECT_DOUBLE_EQ(a.max_abs_error(), all.max_abs_error());
}

TEST(Metrics, WidthLimitsDifferences) {
  ErrorAccumulator acc(4);
  // Bits above the configured width must be ignored.
  acc.add(0b10000, 0b00000);
  EXPECT_EQ(acc.ber(), 0.0);
}

TEST(Metrics, MergeRequiresSameWidth) {
  ErrorAccumulator a(8);
  ErrorAccumulator b(9);
  EXPECT_THROW(a.merge(b), ContractViolation);
}

TEST(Metrics, WidthValidated) {
  EXPECT_THROW(ErrorAccumulator(0), ContractViolation);
  EXPECT_THROW(ErrorAccumulator(65), ContractViolation);
  EXPECT_NO_THROW(ErrorAccumulator(64));
}

TEST(Metrics, EmptyAccumulatorSafe) {
  ErrorAccumulator acc(8);
  EXPECT_EQ(acc.ber(), 0.0);
  EXPECT_EQ(acc.mse(), 0.0);
  EXPECT_EQ(acc.op_error_rate(), 0.0);
}

// add_lanes over one lane word equals add() per lane in lane order,
// bit for bit in every getter: random references and actual words at
// widths 1, 17 and 64 and word fills of 1, 37 and 64 lanes, with zero
// references (MRED's divide-by-one branch), exact lanes, and — from
// per-lane values — references with bits above the compared width.
TEST(Metrics, LaneWordAddMatchesPerOpAdds) {
  Rng rng(29);
  for (const int nbits : {1, 17, 64})
    for (const std::size_t lanes : {1u, 37u, 64u})
      for (const bool wide : {false, true}) {
        ErrorAccumulator per_op(nbits), by_word(nbits);
        for (int word = 0; word < 20; ++word) {
          std::vector<std::uint64_t> ref(lanes), actual(lanes);
          for (std::size_t k = 0; k < lanes; ++k) {
            ref[k] = rng.bits(nbits);
            if (k % 5 == 0) ref[k] = 0;
            actual[k] = rng.bits(nbits);
            if (k % 3 == 2) actual[k] = ref[k];  // an exact lane
            if (wide && nbits < 64 && k % 4 == 3)
              ref[k] |= rng.bits(64 - nbits) << nbits;
            per_op.add(ref[k], actual[k]);
          }
          // Bits above `lanes` must not count: fill them with noise.
          std::vector<std::uint64_t> ref_bits(nbits), actual_bits(nbits);
          for (int i = 0; i < nbits; ++i) {
            ref_bits[i] = rng() & ~lanes::mask(lanes);
            actual_bits[i] = rng() & ~lanes::mask(lanes);
            for (std::size_t k = 0; k < lanes; ++k) {
              ref_bits[i] |= ((ref[k] >> i) & 1ULL) << k;
              actual_bits[i] |= ((actual[k] >> i) & 1ULL) << k;
            }
          }
          const LaneReferences refs =
              wide ? LaneReferences::from_values(ref, nbits)
                   : LaneReferences::from_bits(ref_bits, lanes);
          by_word.add_lanes(refs, actual_bits);
        }
        const std::string tag = "nbits " + std::to_string(nbits) +
                                " lanes " + std::to_string(lanes) +
                                (wide ? " from values" : " from bits");
        EXPECT_EQ(by_word.ops(), per_op.ops()) << tag;
        EXPECT_EQ(by_word.ber(), per_op.ber()) << tag;
        EXPECT_EQ(by_word.bitwise_error_probability(),
                  per_op.bitwise_error_probability())
            << tag;
        EXPECT_EQ(by_word.op_error_rate(), per_op.op_error_rate()) << tag;
        EXPECT_EQ(by_word.mse(), per_op.mse()) << tag;
        EXPECT_EQ(by_word.snr_db(), per_op.snr_db()) << tag;
        EXPECT_EQ(by_word.mean_hamming(), per_op.mean_hamming()) << tag;
        EXPECT_EQ(by_word.normalized_hamming(), per_op.normalized_hamming())
            << tag;
        EXPECT_EQ(by_word.mean_abs_error(), per_op.mean_abs_error()) << tag;
        EXPECT_EQ(by_word.max_abs_error(), per_op.max_abs_error()) << tag;
        EXPECT_EQ(by_word.mred(), per_op.mred()) << tag;
        EXPECT_GT(per_op.op_error_rate(), 0.0) << tag;
      }
}

}  // namespace
}  // namespace vosim
