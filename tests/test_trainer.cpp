// Algorithm 1 trainer tests: recovery of synthetic oracles, tie-breaking
// and metric variants.
#include <gtest/gtest.h>

#include "src/model/carry_chain.hpp"
#include "src/model/trainer.hpp"
#include "src/model/vos_model.hpp"
#include "src/model/windowed_add.hpp"
#include "src/util/bits.hpp"

namespace vosim {
namespace {

/// Algorithm 1's one-segment table for an 8-bit oracle.
CarryChainProbTable train_table(const HardwareOracle& oracle,
                                const TrainerConfig& cfg) {
  return train_vos_model(8, {}, oracle, cfg).table();
}

TEST(BestWindow, ExactOutputPrefersSmallestConsistentWindow) {
  // Observed output equals the exact sum: every window >= Cth fits with
  // distance 0, and Algorithm 1's `<=` keeps the smallest zero-distance
  // window — which is exactly Cth for a pair whose chain affects bits,
  // or smaller when truncation happens not to change the value.
  const std::uint64_t a = 0xFF;
  const std::uint64_t b = 0x01;  // full 8-long chain, truncation visible
  const int c =
      best_window(a, b, 8, a + b, DistanceMetric::kMse, 0, 9);
  EXPECT_EQ(c, theoretical_max_carry_chain(a, b, 8));
}

TEST(BestWindow, TruncatedOutputRecoversWindow) {
  const std::uint64_t a = 0xFF;
  const std::uint64_t b = 0x01;
  for (int target = 0; target <= 8; ++target) {
    const std::uint64_t observed = windowed_add(a, b, 8, target);
    for (const DistanceMetric m :
         {DistanceMetric::kMse, DistanceMetric::kHamming,
          DistanceMetric::kWeightedHamming}) {
      const int c = best_window(a, b, 8, observed, m, 0, 9);
      // The recovered window must regenerate the observation.
      EXPECT_EQ(windowed_add(a, b, 8, c), observed)
          << "target " << target << " metric "
          << distance_metric_name(m);
    }
  }
}

TEST(Trainer, ExactOracleGivesNearIdentityBehaviour) {
  TrainerConfig cfg;
  cfg.num_patterns = 4000;
  const HardwareOracle exact = [](std::uint64_t a, std::uint64_t b) {
    return a + b;
  };
  const CarryChainProbTable t = train_table(exact, cfg);
  // The trained table must reproduce exact addition: for every column,
  // sampled windows always regenerate the exact sum. Sufficient check:
  // expected window may sit below l only where truncation is invisible,
  // so verify via end-to-end behaviour on a fresh stream.
  PatternStream patterns(PatternPolicy::kCarryBalanced, 8, 777);
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    const OperandPair pat = patterns.next();
    const int cth = theoretical_max_carry_chain(pat.a, pat.b, 8);
    const int k = t.sample(cth, rng);
    EXPECT_EQ(windowed_add(pat.a, pat.b, 8, k), pat.a + pat.b)
        << pat.a << "+" << pat.b;
  }
}

TEST(Trainer, WindowedOracleConcentratesAtWindow) {
  // Oracle = windowed adder with a fixed hardware window C*; the trained
  // table should put its mass at min(C*, Cth) in every informative
  // column (chains shorter than C* complete, longer ones truncate).
  const int cstar = 3;
  const HardwareOracle oracle = [cstar](std::uint64_t a, std::uint64_t b) {
    return windowed_add(a, b, 8, cstar);
  };
  TrainerConfig cfg;
  cfg.num_patterns = 8000;
  const CarryChainProbTable t = train_table(oracle, cfg);
  for (int l = cstar + 1; l <= 8; ++l) {
    // Mass at or below cstar (ties can pick smaller equivalent windows).
    double mass_le = 0.0;
    for (int k = 0; k <= cstar; ++k) mass_le += t.prob(k, l);
    EXPECT_GT(mass_le, 0.95) << "column " << l;
    EXPECT_GT(t.prob(cstar, l), 0.3) << "column " << l;
  }
  for (int l = 0; l <= cstar; ++l) {
    double mass_le_l = 0.0;
    for (int k = 0; k <= l; ++k) mass_le_l += t.prob(k, l);
    EXPECT_NEAR(mass_le_l, 1.0, 1e-12);
  }
}

TEST(Trainer, MetricsProduceValidTables) {
  const HardwareOracle noisy_oracle = [](std::uint64_t a, std::uint64_t b) {
    return windowed_add(a, b, 8, 5);
  };
  TrainerConfig cfg;
  cfg.num_patterns = 2000;
  for (const DistanceMetric m :
       {DistanceMetric::kMse, DistanceMetric::kHamming,
        DistanceMetric::kWeightedHamming}) {
    cfg.metric = m;
    const CarryChainProbTable t = train_table(noisy_oracle, cfg);
    for (int l = 0; l <= 8; ++l) {
      double sum = 0.0;
      for (int k = 0; k <= 8; ++k) {
        EXPECT_GE(t.prob(k, l), 0.0);
        sum += t.prob(k, l);
      }
      EXPECT_NEAR(sum, 1.0, 1e-9) << distance_metric_name(m);
    }
  }
}

TEST(Trainer, DeterministicPerSeed) {
  const HardwareOracle oracle = [](std::uint64_t a, std::uint64_t b) {
    return windowed_add(a, b, 8, 4);
  };
  TrainerConfig cfg;
  cfg.num_patterns = 1500;
  const CarryChainProbTable t1 = train_table(oracle, cfg);
  const CarryChainProbTable t2 = train_table(oracle, cfg);
  EXPECT_EQ(t1, t2);
}

TEST(DistanceMetrics, HandValues) {
  EXPECT_DOUBLE_EQ(distance(10, 6, 8, DistanceMetric::kMse), 16.0);
  EXPECT_DOUBLE_EQ(distance(0b1100, 0b1010, 8, DistanceMetric::kHamming),
                   2.0);
  // Weighted Hamming: flipped bits at positions 1 and 2 -> 2 + 4.
  EXPECT_DOUBLE_EQ(
      distance(0b1100, 0b1010, 8, DistanceMetric::kWeightedHamming), 6.0);
  // Width masking.
  EXPECT_DOUBLE_EQ(distance(0x10, 0x00, 4, DistanceMetric::kHamming), 0.0);
}

TEST(DistanceMetrics, NamesDistinct) {
  EXPECT_NE(distance_metric_name(DistanceMetric::kMse),
            distance_metric_name(DistanceMetric::kHamming));
  EXPECT_NE(distance_metric_name(DistanceMetric::kHamming),
            distance_metric_name(DistanceMetric::kWeightedHamming));
}

}  // namespace
}  // namespace vosim
