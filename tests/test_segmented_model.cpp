// Segmented statistical model tests (VosAdderModel with more than one
// segment): arithmetic of per-segment windows, training behaviour,
// serialization and the fidelity gain on the parallel-prefix adder it
// was designed for.
#include <gtest/gtest.h>

#include <sstream>

#include "src/model/carry_chain.hpp"
#include "src/model/evaluation.hpp"
#include "src/model/vos_model.hpp"
#include "src/model/windowed_add.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

TEST(SegmentedAdd, EqualSegmentsCoverWord) {
  const auto b1 = equal_segments(8, 1);
  EXPECT_EQ(b1, (std::vector<int>{0, 9}));
  const auto b3 = equal_segments(8, 3);
  ASSERT_EQ(b3.size(), 4u);
  EXPECT_EQ(b3.front(), 0);
  EXPECT_EQ(b3.back(), 9);
  EXPECT_THROW(equal_segments(8, 0), ContractViolation);
}

TEST(SegmentedAdd, EqualWindowsEqualOneWindow) {
  const std::vector<int> bounds = equal_segments(8, 3);
  Rng rng(1);
  for (int t = 0; t < 3000; ++t) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    for (int c = 0; c <= 8; ++c)
      ASSERT_EQ(windowed_add(a, b, 8, bounds, std::vector<int>{c, c, c}),
                windowed_add(a, b, 8, c))
          << a << "+" << b << " C=" << c;
  }
}

TEST(SegmentedAdd, FullWindowsAreExact) {
  const std::vector<int> bounds = equal_segments(16, 4);
  Rng rng(2);
  for (int t = 0; t < 2000; ++t) {
    const std::uint64_t a = rng.bits(16);
    const std::uint64_t b = rng.bits(16);
    ASSERT_EQ(
        windowed_add(a, b, 16, bounds, std::vector<int>{16, 16, 16, 16}),
        a + b);
  }
}

TEST(SegmentedAdd, WindowsActPerSegment) {
  // 0xFF + 0x01: the carry travels through every bit. Truncating only
  // the upper segment's window must corrupt only upper bits.
  const std::vector<int> bounds{0, 4, 9};
  const std::uint64_t exact = 0x100;
  const std::uint64_t got =
      windowed_add(0xFF, 0x01, 8, bounds, std::vector<int>{8, 0});
  // Lower segment (bits 0..3) matches the exact sum; upper differs.
  EXPECT_EQ(got & mask_n(4), exact & mask_n(4));
  EXPECT_NE(got >> 4, exact >> 4);
  // And the mirror case: upper window full, lower truncated.
  const std::uint64_t got2 =
      windowed_add(0xFF, 0x01, 8, bounds, std::vector<int>{0, 8});
  EXPECT_NE(got2 & mask_n(4), exact & mask_n(4));
  EXPECT_EQ(got2 >> 4, exact >> 4);
}

TEST(SegmentedAdd, MatchesBruteForcePerBitRule) {
  // Reference: carry into bit i survives iff travel distance <= window
  // of i's segment.
  Rng rng(3);
  const std::vector<int> bounds{0, 3, 6, 9};
  for (int t = 0; t < 3000; ++t) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    const std::vector<int> windows{static_cast<int>(rng.below(9)),
                                   static_cast<int>(rng.below(9)),
                                   static_cast<int>(rng.below(9))};
    const std::uint64_t p = a ^ b;
    std::uint64_t expect = 0;
    for (int i = 0; i <= 8; ++i) {
      std::size_t seg = 0;
      while (i >= bounds[seg + 1]) ++seg;
      const int dist = max_carry_chain(a, b, 8, i, i + 1);
      const bool carry = dist > 0 && dist <= windows[seg];
      const bool bit =
          (i == 8) ? carry : ((bit_of(p, i) != 0) != carry);
      if (bit) expect |= (1ULL << i);
    }
    ASSERT_EQ(windowed_add(a, b, 8, bounds, windows), expect)
        << a << "+" << b;
  }
}

TEST(SegmentedModel, MaxCarryChainIntoSegment) {
  // 0xFF+0x01: distances rise 1..8 across the bits.
  EXPECT_EQ(max_carry_chain(0xFF, 0x01, 8, 0, 4), 3);
  EXPECT_EQ(max_carry_chain(0xFF, 0x01, 8, 4, 9), 8);
  EXPECT_EQ(max_carry_chain(0x00, 0x00, 8, 0, 9), 0);
}

TEST(SegmentedModel, TrainOnExactOracleIsExact) {
  const HardwareOracle exact = [](std::uint64_t a, std::uint64_t b) {
    return a + b;
  };
  TrainerConfig cfg;
  cfg.num_patterns = 3000;
  const VosAdderModel model =
      train_vos_model(8, {1.0, 1.0, 0.0}, exact, 3, cfg);
  EXPECT_EQ(model.num_segments(), 3);
  EXPECT_TRUE(model.is_exact());
  Rng rng(4);
  PatternStream patterns(PatternPolicy::kCarryBalanced, 8, 777);
  for (int t = 0; t < 3000; ++t) {
    const OperandPair pat = patterns.next();
    ASSERT_EQ(model.add(pat.a, pat.b, rng), pat.a + pat.b);
  }
}

// A triad that is not a short decimal must survive save/load bit for
// bit, so ModelLibrary::find() still matches after a reload.
TEST(SegmentedModel, SaveLoadRoundTrip) {
  const HardwareOracle trunc = [](std::uint64_t a, std::uint64_t b) {
    return windowed_add(a, b, 8, 4);
  };
  TrainerConfig cfg;
  cfg.num_patterns = 1500;
  cfg.metric = DistanceMetric::kHamming;
  const OperatingTriad triad{0.16419752386414999, 0.6, 0.0};
  const VosAdderModel model = train_vos_model(8, triad, trunc, 2, cfg);
  EXPECT_FALSE(model.is_exact());
  std::stringstream ss;
  model.save(ss);
  const VosAdderModel back = VosAdderModel::load(ss);
  EXPECT_EQ(back.width(), 8);
  EXPECT_EQ(back.num_segments(), 2);
  EXPECT_EQ(back.bounds(), model.bounds());
  EXPECT_EQ(back.triad(), model.triad());
  EXPECT_EQ(back.metric(), DistanceMetric::kHamming);
  for (int s = 0; s < 2; ++s) EXPECT_EQ(back.table(s), model.table(s));
  std::stringstream again;
  back.save(again);
  EXPECT_EQ(again.str(), ss.str());
}

TEST(SegmentedModel, ImprovesBrentKungFidelity) {
  // The single-window model averages the BKA's region-dependent failure
  // depths; per-segment windows should track the simulator better.
  const DutNetlist bka = to_dut(build_brent_kung(8));
  const double cp_ns =
      analyze_timing(bka.netlist, lib(), {1, 1.0, 0.0}).critical_path_ps *
      1e-3;
  const OperatingTriad triad{cp_ns, 0.68, 0.0};
  TrainerConfig cfg;
  cfg.num_patterns = 8000;
  FidelityConfig fcfg;
  fcfg.num_patterns = 8000;
  fcfg.model_rng_seed = 5;

  // Train and evaluate each model on held-out patterns against fresh
  // simulators.
  auto fidelity = [&](int num_segments) {
    VosDutSim train(bka, lib(), triad);
    const VosAdderModel model = train_vos_model(
        8, triad, sampled_batch_oracle(train), num_segments, cfg);
    VosDutSim eval(bka, lib(), triad);
    const HardwareOracle oracle = [&](std::uint64_t a, std::uint64_t b) {
      return eval.apply(a, b).sampled;
    };
    return evaluate_fidelity(model, oracle, fcfg);
  };
  const FidelityResult base = fidelity(1);
  const FidelityResult seg = fidelity(3);
  // Oracle must actually err for this comparison to mean anything.
  ASSERT_GT(base.oracle_ber, 0.0);
  EXPECT_GT(seg.snr_db, base.snr_db - 0.5);
  EXPECT_LT(seg.normalized_hamming, base.normalized_hamming * 1.05);
}

TEST(SegmentedModel, Validation) {
  EXPECT_THROW(VosAdderModel(8, {1, 1, 0}, DistanceMetric::kMse, {0, 5},
                             {}),  // no tables
               ContractViolation);
  EXPECT_THROW(VosAdderModel(8, {1, 1, 0}, DistanceMetric::kMse, {0, 5},
                             {CarryChainProbTable(8)}),  // bits 5..8 unowned
               ContractViolation);
  EXPECT_THROW(windowed_add(0, 0, 8, std::vector<int>{0, 4, 9},
                            std::vector<int>{1}),
               ContractViolation);
  EXPECT_THROW(windowed_add(0, 0, 8, std::vector<int>{1, 9},
                            std::vector<int>{1}),
               ContractViolation);
  EXPECT_THROW(train_vos_model(8, {1, 1, 0},
                               [](std::uint64_t a, std::uint64_t b) {
                                 return a + b;
                               },
                               10),  // more segments than output bits
               ContractViolation);
}

}  // namespace
}  // namespace vosim
