// End-to-end statistical model tests: training against the timing
// simulator, fidelity, determinism and serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "src/model/evaluation.hpp"
#include "src/model/vos_model.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

double rca8_cp_ns() {
  static const double cp =
      analyze_timing(build_rca(8).netlist, lib(), {1, 1.0, 0.0})
          .critical_path_ps *
      1e-3;
  return cp;
}

/// A mid-VOS triad with a healthy error rate.
OperatingTriad stressed_triad() { return {rca8_cp_ns(), 0.7, 0.0}; }

TEST(VosModel, TrainedModelTracksSimulatorClosely) {
  const DutNetlist rca = to_dut(build_rca(8));
  VosDutSim train_sim(rca, lib(), stressed_triad());
  const HardwareOracle train_oracle = [&](std::uint64_t a, std::uint64_t b) {
    return train_sim.apply(a, b).sampled;
  };
  TrainerConfig cfg;
  cfg.num_patterns = 6000;
  const VosAdderModel model =
      train_vos_model(8, stressed_triad(), train_oracle, cfg);
  EXPECT_FALSE(model.is_exact());

  VosDutSim eval_sim(rca, lib(), stressed_triad());
  const HardwareOracle eval_oracle = [&](std::uint64_t a, std::uint64_t b) {
    return eval_sim.apply(a, b).sampled;
  };
  FidelityConfig fcfg;
  fcfg.num_patterns = 6000;
  const FidelityResult fr = evaluate_fidelity(model, eval_oracle, fcfg);
  EXPECT_GT(fr.oracle_ber, 0.0);
  EXPECT_GT(fr.snr_db, 8.0);
  EXPECT_LT(fr.normalized_hamming, 0.25);
  // The model's own error rate should be in the ballpark of the
  // hardware's (same order of magnitude).
  EXPECT_GT(fr.model_ber, 0.2 * fr.oracle_ber);
  EXPECT_LT(fr.model_ber, 5.0 * fr.oracle_ber);
}

// The batched oracle (VosDutSim::apply_batch in kTrainBatch chunks)
// trains the very table the one-pair oracle does: the training stream
// never depends on the observations, and apply_batch is bit-identical
// to consecutive apply calls. A deep corner, so the table is far from
// identity; 1000 patterns leave a partial last chunk.
TEST(VosModel, BatchedOracleTrainsTheScalarTable) {
  const DutNetlist rca = to_dut(build_rca(16));
  const double cp =
      analyze_timing(rca.netlist, lib(), {1, 1.0, 0.0}).critical_path_ps *
      1e-3;
  const OperatingTriad deep{0.5 * cp, 0.5, 0.0};
  TrainerConfig cfg;
  cfg.num_patterns = 1000;
  for (const EngineKind engine : {EngineKind::kLevelized, EngineKind::kEvent}) {
    TimingSimConfig sim_cfg;
    sim_cfg.engine = engine;
    VosDutSim scalar_sim(rca, lib(), deep, sim_cfg);
    const HardwareOracle scalar = [&](std::uint64_t a, std::uint64_t b) {
      return scalar_sim.apply(a, b).sampled;
    };
    VosDutSim batch_sim(rca, lib(), deep, sim_cfg);
    const CarryChainProbTable want = train_carry_table(16, scalar, cfg);
    const CarryChainProbTable got =
        train_carry_table(16, sampled_batch_oracle(batch_sim), cfg);
    EXPECT_FALSE(want.is_identity()) << engine_kind_name(engine);
    EXPECT_TRUE(got == want) << engine_kind_name(engine);
  }
}

TEST(VosModel, RelaxedTriadYieldsExactModel) {
  const DutNetlist rca = to_dut(build_rca(8));
  const OperatingTriad relaxed{rca8_cp_ns() * 2.0, 1.0, 0.0};
  VosDutSim sim(rca, lib(), relaxed);
  const HardwareOracle oracle = [&](std::uint64_t a, std::uint64_t b) {
    return sim.apply(a, b).sampled;
  };
  TrainerConfig cfg;
  cfg.num_patterns = 3000;
  const VosAdderModel model = train_vos_model(8, relaxed, oracle, cfg);
  Rng rng(1);
  for (int t = 0; t < 2000; ++t) {
    const std::uint64_t a = rng.bits(8);
    const std::uint64_t b = rng.bits(8);
    ASSERT_EQ(model.add(a, b, rng), a + b);
  }
}

TEST(VosModel, DeterministicGivenRngSeed) {
  CarryChainProbTable table(8);
  std::vector<std::vector<std::uint64_t>> counts(
      9, std::vector<std::uint64_t>(9, 0));
  for (int l = 0; l <= 8; ++l) {
    counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(l)] = 1;
    if (l >= 2) counts[static_cast<std::size_t>(l)][2] = 1;
  }
  const VosAdderModel model(
      8, stressed_triad(), DistanceMetric::kMse,
      CarryChainProbTable::from_counts(8, counts));
  Rng r1(123);
  Rng r2(123);
  for (int t = 0; t < 500; ++t) {
    const std::uint64_t a = r1.bits(8);
    const std::uint64_t b = r1.bits(8);
    const std::uint64_t a2 = r2.bits(8);
    const std::uint64_t b2 = r2.bits(8);
    ASSERT_EQ(model.add(a, b, r1), model.add(a2, b2, r2));
  }
}

TEST(VosModel, SaveLoadRoundTrip) {
  std::vector<std::vector<std::uint64_t>> counts(
      9, std::vector<std::uint64_t>(9, 0));
  counts[8][8] = 3;
  counts[8][5] = 1;
  counts[4][4] = 1;
  const VosAdderModel model(8, {0.28, 0.5, 2.0},
                            DistanceMetric::kWeightedHamming,
                            CarryChainProbTable::from_counts(8, counts));
  std::stringstream ss;
  model.save(ss);
  const VosAdderModel back = VosAdderModel::load(ss);
  EXPECT_EQ(back.width(), 8);
  EXPECT_EQ(back.triad(), model.triad());
  EXPECT_EQ(back.metric(), DistanceMetric::kWeightedHamming);
  EXPECT_EQ(back.table(), model.table());
}

TEST(ModelLibraryTest, TrainFindSaveLoad) {
  const AdderNetlist rca = build_rca(8);
  const std::vector<OperatingTriad> triads{
      {rca8_cp_ns() * 2.0, 1.0, 0.0},
      stressed_triad(),
  };
  TrainerConfig cfg;
  cfg.num_patterns = 1500;
  const ModelLibrary ml = train_model_library(rca, lib(), triads, cfg);
  EXPECT_EQ(ml.size(), 2u);
  ASSERT_NE(ml.find(stressed_triad()), nullptr);
  EXPECT_EQ(ml.find({9.9, 9.9, 9.9}), nullptr);
  EXPECT_TRUE(ml.find(triads[0])->is_exact());
  EXPECT_FALSE(ml.find(triads[1])->is_exact());

  std::stringstream ss;
  ml.save(ss);
  const ModelLibrary back = ModelLibrary::load(ss);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(back.find(stressed_triad())->table(),
            ml.find(stressed_triad())->table());
}

TEST(ModelLibraryTest, TrainingIsDeterministicAcrossThreadCounts) {
  const AdderNetlist rca = build_rca(8);
  const std::vector<OperatingTriad> triads{
      stressed_triad(), {rca8_cp_ns(), 0.6, 0.0}};
  TrainerConfig cfg;
  cfg.num_patterns = 1000;
  const ModelLibrary serial =
      train_model_library(rca, lib(), triads, cfg, {}, 1);
  const ModelLibrary parallel =
      train_model_library(rca, lib(), triads, cfg, {}, 0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < triads.size(); ++i)
    EXPECT_EQ(serial.find(triads[i])->table(),
              parallel.find(triads[i])->table());
}

TEST(FidelitySummaryTest, ExcludesErrorFreeTriads) {
  std::vector<FidelityResult> runs(3);
  runs[0].oracle_ber = 0.0;
  runs[0].exact_match = true;  // excluded
  runs[1].oracle_ber = 0.05;
  runs[1].snr_db = 20.0;
  runs[1].normalized_hamming = 0.1;
  runs[2].oracle_ber = 0.10;
  runs[2].snr_db = 10.0;
  runs[2].normalized_hamming = 0.2;
  const FidelitySummary s = summarize_fidelity(runs);
  EXPECT_EQ(s.error_free_triads, 1);
  EXPECT_EQ(s.evaluated_triads, 2);
  EXPECT_NEAR(s.mean_snr_db, 15.0, 1e-12);
  EXPECT_NEAR(s.mean_normalized_hamming, 0.15, 1e-12);
}

}  // namespace
}  // namespace vosim
