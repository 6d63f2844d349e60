// End-to-end statistical model tests: training against the timing
// simulator, fidelity, determinism and serialization.
#include <gtest/gtest.h>

#include <bit>
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
    const VosAdderModel want = train_vos_model(16, deep, scalar, cfg);
    const VosAdderModel got =
        train_vos_model(16, deep, sampled_batch_oracle(batch_sim), cfg);
    EXPECT_FALSE(want.is_exact()) << engine_kind_name(engine);
    EXPECT_TRUE(got.table() == want.table()) << engine_kind_name(engine);
  }
}

/// FNV-1a over 64-bit words, doubles by their bit patterns.
struct ModelDigest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  void add(const CarryChainProbTable& t) {
    for (int l = 0; l <= t.width(); ++l)
      for (int k = 0; k <= t.width(); ++k)
        add(std::bit_cast<std::uint64_t>(t.prob(k, l)));
  }
  /// 10,000 adds of a fixed operand stream with a fixed model Rng.
  void add_outputs(const VosAdderModel& model) {
    Rng operands(11);
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t a = operands.bits(model.width());
      const std::uint64_t b = operands.bits(model.width());
      add(model.add(a, b, rng));
    }
  }
};

// Golden digests of trained models: every probability of every table,
// then 10,000 add outputs. Each 16-bit adder sits at one deep triad
// where 15-40% of its operations err (the prefix adders fail every
// operation at the ripple adder's 0.7 CP / 0.7 V); 4,000 training
// patterns from the event engine, trained with one carry window and
// with three equal segments. A change to the trainer, the table or
// windowed addition must leave every bit unchanged; a deliberate
// behaviour change re-records the constants.
TEST(VosModel, TrainedModelsMatchGoldenDigests) {
  struct Case {
    const char* name;
    AdderNetlist (*build)(int);
    double tclk_cp;  ///< clock period as a fraction of the critical path
    double vdd_v;
    std::uint64_t one_segment;
    std::uint64_t three_segments;
  };
  const Case cases[] = {
      {"rca16", [](int w) { return build_rca(w); }, 0.7, 0.7,
       0x9c6565c9748f6c5bULL, 0xc7e19da45ba5db05ULL},
      {"bka16", build_brent_kung, 0.8, 0.9, 0xc0ea9e2bf952ac6cULL,
       0xdf02ae0f744368b0ULL},
      {"ksa16", build_kogge_stone, 0.9, 1.0, 0x99907fb39d000dadULL,
       0x2a36234ea2d87ddcULL},
  };
  for (const Case& c : cases) {
    const DutNetlist dut = to_dut(c.build(16));
    const double cp =
        analyze_timing(dut.netlist, lib(), {1, 1.0, 0.0}).critical_path_ps *
        1e-3;
    const OperatingTriad deep{c.tclk_cp * cp, c.vdd_v, 0.0};
    TrainerConfig cfg;
    cfg.num_patterns = 4000;

    VosDutSim one_sim(dut, lib(), deep);
    const HardwareOracle one_oracle = [&](std::uint64_t a, std::uint64_t b) {
      return one_sim.apply(a, b).sampled;
    };
    const VosAdderModel one = train_vos_model(16, deep, one_oracle, cfg);
    ASSERT_FALSE(one.is_exact()) << c.name;
    ModelDigest d1;
    d1.add(one.table());
    d1.add_outputs(one);
    EXPECT_EQ(d1.h, c.one_segment) << c.name << " 1 segment";

    VosDutSim three_sim(dut, lib(), deep);
    const HardwareOracle three_oracle = [&](std::uint64_t a,
                                            std::uint64_t b) {
      return three_sim.apply(a, b).sampled;
    };
    const VosAdderModel three =
        train_vos_model(16, deep, three_oracle, 3, cfg);
    ModelDigest d3;
    for (int s = 0; s < three.num_segments(); ++s) d3.add(three.table(s));
    d3.add_outputs(three);
    EXPECT_EQ(d3.h, c.three_segments) << c.name << " 3 segments";
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

// The one-segment save format, byte for byte: model files written
// before segments existed must keep loading, and new ones must keep
// reading the same.
TEST(VosModel, OneSegmentSaveBytes) {
  std::vector<std::vector<std::uint64_t>> counts(
      4, std::vector<std::uint64_t>(4, 0));
  counts[3][3] = 2;
  counts[3][1] = 1;
  counts[2][0] = 1;
  const VosAdderModel model(3, {0.16419752386414999, 0.7, -0.5},
                            DistanceMetric::kHamming,
                            CarryChainProbTable::from_counts(3, counts));
  std::stringstream ss;
  model.save(ss);
  EXPECT_EQ(ss.str(),
            "vos_adder_model v1 3 0.16419752386414999 0.69999999999999996 "
            "-0.5 1\n"
            "carry_chain_prob_table v1 3\n"
            "1 0 0 0\n"
            "0 1 0 0\n"
            "1 0 0 0\n"
            "0 0.33333333333333331 0 0.66666666666666663\n");
  EXPECT_EQ(VosAdderModel::load(ss).triad(), model.triad());
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
