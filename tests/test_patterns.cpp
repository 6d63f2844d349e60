// Pattern-generation tests: determinism, range safety and carry-chain
// coverage of the stimulus policies.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/characterize/patterns.hpp"
#include "src/model/carry_chain.hpp"
#include "src/netlist/dut.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "tests/fnv_digest.hpp"

namespace vosim {
namespace {

class PatternPolicyTest : public ::testing::TestWithParam<PatternPolicy> {};

TEST_P(PatternPolicyTest, DeterministicPerSeed) {
  PatternStream s1(GetParam(), 16, 42);
  PatternStream s2(GetParam(), 16, 42);
  for (int i = 0; i < 200; ++i) {
    const OperandPair a = s1.next();
    const OperandPair b = s2.next();
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
  }
}

TEST_P(PatternPolicyTest, OperandsFitWidth) {
  for (int width : {4, 8, 16, 32}) {
    PatternStream s(GetParam(), width, 7);
    for (int i = 0; i < 500; ++i) {
      const OperandPair p = s.next();
      EXPECT_EQ(p.a & ~mask_n(width), 0u);
      EXPECT_EQ(p.b & ~mask_n(width), 0u);
    }
  }
}

TEST_P(PatternPolicyTest, DifferentSeedsDiffer) {
  PatternStream s1(GetParam(), 16, 1);
  PatternStream s2(GetParam(), 16, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (s1.next().a == s2.next().a) ++same;
  EXPECT_LT(same, 20);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PatternPolicyTest,
    ::testing::Values(PatternPolicy::kUniform, PatternPolicy::kCarryBalanced,
                      PatternPolicy::kCorrelatedWalk),
    [](const ::testing::TestParamInfo<PatternPolicy>& info) {
      switch (info.param) {
        case PatternPolicy::kUniform: return "Uniform";
        case PatternPolicy::kCarryBalanced: return "CarryBalanced";
        case PatternPolicy::kCorrelatedWalk: return "Walk";
      }
      return "Unknown";
    });

TEST(CarryBalancedPatterns, CoverAllChainLengths) {
  // The paper requires stimuli that exercise every carry-chain length;
  // for an 8-bit adder all Cth values 0..8 must appear in 20k patterns.
  PatternStream s(PatternPolicy::kCarryBalanced, 8, 42);
  std::set<int> seen;
  for (int i = 0; i < 20000; ++i) {
    const OperandPair p = s.next();
    seen.insert(theoretical_max_carry_chain(p.a, p.b, 8));
  }
  EXPECT_EQ(seen.size(), 9u);
}

TEST(CarryBalancedPatterns, LongChainsWellRepresented) {
  // Uniform stimuli almost never produce a full 16-bit chain; the
  // balanced policy must hit long chains regularly.
  PatternStream s(PatternPolicy::kCarryBalanced, 16, 42);
  int long_chains = 0;
  for (int i = 0; i < 20000; ++i) {
    const OperandPair p = s.next();
    if (theoretical_max_carry_chain(p.a, p.b, 16) >= 12) ++long_chains;
  }
  EXPECT_GT(long_chains, 200);
}

TEST(WalkPatterns, StepsAreLocal) {
  PatternStream s(PatternPolicy::kCorrelatedWalk, 16, 9);
  OperandPair prev = s.next();
  for (int i = 0; i < 200; ++i) {
    const OperandPair cur = s.next();
    const auto diff = static_cast<std::int64_t>(cur.a) -
                      static_cast<std::int64_t>(prev.a);
    // Steps are bounded (modulo wraparound at the ends).
    if (std::abs(diff) < (1 << 14)) {
      EXPECT_LE(std::abs(diff), 1 << 10);
    }
    prev = cur;
  }
}

/// The carry-balanced body as a propagate / generate / kill branch
/// tree: the same two draws per bit, flip(q) then flip(0.5), as the
/// stream's branchless body, which must produce the same words.
OperandPair branchy_carry_balanced(Rng& rng, int width) {
  const double q = 0.2 + 0.75 * rng.uniform();
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  for (int i = 0; i < width; ++i) {
    if (rng.flip(q)) {
      if (rng.flip(0.5)) a |= (1ULL << i);
      else b |= (1ULL << i);
    } else if (rng.flip(0.5)) {
      a |= (1ULL << i);
      b |= (1ULL << i);
    }
  }
  return OperandPair{a, b};
}

TEST(CarryBalancedPatterns, MatchBranchyOracle) {
  // 100,000 patterns, 20,000 at each width.
  for (const int width : {1, 8, 16, 32, 63}) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(width);
    PatternStream s(PatternPolicy::kCarryBalanced, width, seed);
    Rng oracle(seed);
    int mismatches = 0;
    for (int i = 0; i < 20000; ++i) {
      const OperandPair got = s.next();
      const OperandPair want = branchy_carry_balanced(oracle, width);
      if (got.a != want.a || got.b != want.b) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0) << "width " << width;
  }
}

// Golden digests of every policy's stream: 20,001 pairs (a sweep's
// settle pattern plus 20,000 streamed ones) at widths 1, 8, 16, 32 and
// 63, and DutPatternStream over mac4x8's eight buses and fir4-pipe's
// operands. Every characterization, model training and campaign
// operand set starts from these words, so a change to a policy's body
// or to Rng must leave them unchanged.
TEST(PatternStreamTest, StreamsMatchGoldenDigests) {
  constexpr int kPairs = 20001;
  struct Golden {
    PatternPolicy policy;
    const char* name;
    std::uint64_t widths[5];  // 1, 8, 16, 32, 63
    std::uint64_t mac4x8, fir4_pipe;
  };
  const Golden golden[] = {
      {PatternPolicy::kUniform,
       "uniform",
       {0x27ce91ba34865b83ULL, 0xa449c6c398939b33ULL, 0x2ea0131ff9678db3ULL,
        0x125a579cd98a1014ULL, 0xbea885059fb7b1b7ULL},
       0x36d4885e44e798f0ULL,
       0x61273c32d77af55cULL},
      {PatternPolicy::kCarryBalanced,
       "carry-balanced",
       {0x5b59440634bf7ea2ULL, 0x1ac8e61cec40c8f2ULL, 0xf61e40d930bba978ULL,
        0x669e532637d9b186ULL, 0xc4e3576d4dfa06fbULL},
       0x60a3514ceaa7775bULL,
       0x5c5942d4faa25803ULL},
      {PatternPolicy::kCorrelatedWalk,
       "walk",
       {0xce25e66863430d23ULL, 0xbb2fd46091431119ULL, 0x55ee3d7902a226baULL,
        0x9f8153ed47ea73f5ULL, 0xa2f512428575fae5ULL},
       0xea3b81268c8298a5ULL,
       0x7f42b0a28215e993ULL},
  };
  const std::vector<int> dut_widths[] = {
      build_circuit("mac4x8").operand_widths(),
      build_seq_circuit("fir4-pipe").operand_widths()};
  for (const Golden& want : golden) {
    const int widths[] = {1, 8, 16, 32, 63};
    for (int w = 0; w < 5; ++w) {
      PatternStream s(want.policy, widths[w], 42);
      FnvDigest d;
      for (int i = 0; i < kPairs; ++i) {
        const OperandPair p = s.next();
        d.add(p.a);
        d.add(p.b);
      }
      EXPECT_EQ(d.h, want.widths[w]) << want.name << " width " << widths[w]
                                      << ": 0x" << std::hex << d.h;
    }
    for (int k = 0; k < 2; ++k) {
      DutPatternStream s(want.policy, dut_widths[k], 42);
      std::vector<std::uint64_t> ops(dut_widths[k].size());
      FnvDigest d;
      for (int i = 0; i < kPairs; ++i) {
        s.next(ops);
        for (const std::uint64_t o : ops) d.add(o);
      }
      EXPECT_EQ(d.h, k == 0 ? want.mac4x8 : want.fir4_pipe)
          << want.name << (k == 0 ? " mac4x8" : " fir4-pipe") << ": 0x"
          << std::hex << d.h;
    }
  }
}

TEST(PatternStreamTest, WidthValidated) {
  EXPECT_THROW(PatternStream(PatternPolicy::kUniform, 0, 1),
               ContractViolation);
  EXPECT_THROW(PatternStream(PatternPolicy::kUniform, 64, 1),
               ContractViolation);
}

}  // namespace
}  // namespace vosim
