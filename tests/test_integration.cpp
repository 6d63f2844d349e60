// End-to-end pipeline tests on a small adder: characterize → report →
// ladder → model → fidelity, plus report-shaping invariants.
#include <gtest/gtest.h>

#include "src/characterize/report.hpp"
#include "src/characterize/triads.hpp"
#include "src/model/evaluation.hpp"
#include "src/model/vos_model.hpp"
#include "src/runtime/triad_ladder.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/library.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

struct Pipeline {
  AdderNetlist adder = build_rca(8);
  DutNetlist dut = to_dut(build_rca(8));
  SynthesisReport report;
  std::vector<OperatingTriad> triads;
  std::vector<TriadResult> results;
};

const Pipeline& pipeline() {
  static const Pipeline p = [] {
    Pipeline q;
    q.report = synthesize_report(q.adder.netlist, lib());
    q.triads = make_paper_triads(AdderArch::kRipple, 8,
                                 q.report.critical_path_ns);
    CharacterizeConfig cfg;
    cfg.num_patterns = 2500;  // reduced for test runtime
    q.results = characterize_dut(q.dut, lib(), q.triads, cfg);
    return q;
  }();
  return p;
}

TEST(Integration, TriadSetHas43Entries) {
  EXPECT_EQ(pipeline().triads.size(), 43u);
  // First entry is the relaxed nominal baseline.
  EXPECT_DOUBLE_EQ(pipeline().triads[0].vdd_v, 1.0);
  EXPECT_DOUBLE_EQ(pipeline().triads[0].vbb_v, 0.0);
  EXPECT_GT(pipeline().triads[0].tclk_ns,
            pipeline().report.critical_path_ns);
}

TEST(Integration, BaselineTriadIsErrorFree) {
  const TriadResult& base = pipeline().results[0];
  EXPECT_EQ(base.ber, 0.0);
  EXPECT_GT(base.energy_per_op_fj, 0.0);
}

TEST(Integration, SweepContainsBothRegimes) {
  int error_free = 0;
  int erroneous = 0;
  for (const TriadResult& r : pipeline().results)
    (r.ber == 0.0 ? error_free : erroneous)++;
  // The paper's Table IV: a healthy mix of both (16 vs 27 for 8-RCA).
  EXPECT_GE(error_free, 8);
  EXPECT_GE(erroneous, 15);
}

TEST(Integration, Fig8SortIsMonotone) {
  const auto sorted = sort_for_fig8(pipeline().results);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    ASSERT_GE(sorted[i].ber, sorted[i - 1].ber);
    if (sorted[i].ber == sorted[i - 1].ber) {
      ASSERT_GE(sorted[i].energy_per_op_fj,
                sorted[i - 1].energy_per_op_fj);
    }
  }
}

TEST(Integration, Table4BandsPartitionTriads) {
  const double base_fj = pipeline().results[0].energy_per_op_fj;
  const auto bands = table4_bands(pipeline().results, base_fj);
  ASSERT_EQ(bands.size(), 4u);
  int covered = 0;
  for (const auto& b : bands) covered += b.triad_count;
  // Triads above 25% BER fall outside all bands, like the paper's table.
  EXPECT_LE(covered, static_cast<int>(pipeline().results.size()));
  EXPECT_GT(covered, 20);
  // The zero band's best triad has zero BER and positive saving.
  EXPECT_TRUE(bands[0].has_best);
  EXPECT_DOUBLE_EQ(bands[0].ber_at_max_pct, 0.0);
  EXPECT_GT(bands[0].max_efficiency_pct, 0.0);
}

TEST(Integration, EfficiencyGrowsAcrossBands) {
  // More tolerated error buys more energy saving (the paper's core
  // trade-off): the best saving in the >0 bands exceeds the 0% band's.
  const double base_fj = pipeline().results[0].energy_per_op_fj;
  const auto bands = table4_bands(pipeline().results, base_fj);
  double best_err_band = 0.0;
  for (std::size_t i = 1; i < bands.size(); ++i)
    if (bands[i].has_best)
      best_err_band = std::max(best_err_band, bands[i].max_efficiency_pct);
  EXPECT_GT(best_err_band, bands[0].max_efficiency_pct);
}

TEST(Integration, LadderFromResultsIsUsable) {
  const auto ladder = build_triad_ladder(pipeline().results);
  ASSERT_GE(ladder.size(), 3u);
  EXPECT_DOUBLE_EQ(ladder.front().expected_ber, 0.0);
  EXPECT_LT(ladder.back().energy_per_op_fj,
            ladder.front().energy_per_op_fj);
}

TEST(Integration, ModelsTrackSimulatorAcrossTriads) {
  // Train on three representative triads and check fidelity on held-out
  // patterns for each.
  const Pipeline& p = pipeline();
  std::vector<OperatingTriad> picks;
  for (const TriadResult& r : p.results) {
    if (picks.size() < 3 && r.ber > 0.005 && r.ber < 0.3)
      picks.push_back(r.triad);
  }
  ASSERT_GE(picks.size(), 2u);
  TrainerConfig tcfg;
  tcfg.num_patterns = 2500;
  const ModelLibrary ml = train_model_library(p.adder, lib(), picks, tcfg);
  for (const OperatingTriad& t : picks) {
    const VosAdderModel* m = ml.find(t);
    ASSERT_NE(m, nullptr);
    VosDutSim sim(p.dut, lib(), t);
    const HardwareOracle oracle = [&](std::uint64_t a, std::uint64_t b) {
      return sim.apply(a, b).sampled;
    };
    FidelityConfig fcfg;
    fcfg.num_patterns = 2500;
    const FidelityResult fr = evaluate_fidelity(*m, oracle, fcfg);
    EXPECT_GT(fr.snr_db, 5.0) << triad_label(t);
    EXPECT_LT(fr.normalized_hamming, 0.3) << triad_label(t);
  }
}

TEST(Integration, Table3RowDescribesSweep) {
  const TextTable t = table3_rows("8-bit RCA", pipeline().triads);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Integration, CharacterizationIsThreadCountInvariant) {
  const Pipeline& p = pipeline();
  CharacterizeConfig cfg;
  cfg.num_patterns = 600;
  std::vector<OperatingTriad> few(p.triads.begin(), p.triads.begin() + 6);
  const auto serial = [&] {
    CharacterizeConfig c = cfg;
    c.threads = 1;
    return characterize_dut(p.dut, lib(), few, c);
  }();
  const auto parallel = characterize_dut(p.dut, lib(), few, cfg);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].ber, parallel[i].ber);
    EXPECT_DOUBLE_EQ(serial[i].energy_per_op_fj,
                     parallel[i].energy_per_op_fj);
  }
}

TEST(Integration, PaperTclkRatiosMatchTableIII) {
  const auto r8 = paper_tclk_ratios(AdderArch::kRipple, 8);
  ASSERT_EQ(r8.size(), 4u);
  EXPECT_NEAR(r8[0], 0.5 / 0.28, 0.01);
  EXPECT_NEAR(r8[2], 0.19 / 0.28, 0.01);
  const auto b16 = paper_tclk_ratios(AdderArch::kBrentKung, 16);
  EXPECT_NEAR(b16[0], 0.7 / 0.25, 0.01);
  EXPECT_NEAR(b16[3], 0.15 / 0.25, 0.01);
}

}  // namespace
}  // namespace vosim
