// Error-provenance acceptance pin (DESIGN.md §13): the per-bit BER
// derived from ErrorProvenance culprit attribution must reproduce the
// output-diff bitwise BER bit-exactly on both SimEngine backends — the
// primary-output net sits in its own fan-in cone and fails whenever
// its bit is erroneous, so attribution never loses a bit. Plus the
// accounting invariants (culprit totals, slack ordering, empty
// summaries when provenance is off) and the sequential per-stage
// labeling.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/characterize/characterizer.hpp"
#include "src/characterize/triads.hpp"
#include "src/netlist/dut.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/library.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

double critical_path_ns(const Netlist& nl, const OperatingTriad& op) {
  return analyze_timing(nl, lib(), op).critical_path_ps * 1e-3;
}

CharacterizeConfig provenance_config(EngineKind engine) {
  CharacterizeConfig cfg;
  cfg.num_patterns = 1500;
  cfg.engine = engine;
  cfg.provenance = true;
  cfg.top_culprits = 1024;  // keep every culprit: totals must balance
  return cfg;
}

class ProvenanceEquivalence : public ::testing::TestWithParam<const char*> {
};

// The satellite acceptance pin: over the error-onset band the
// attribution-derived per-bit error probabilities equal the
// output-diff ones bit for bit, on both engines, for adder and
// multiplier topologies alike.
TEST_P(ProvenanceEquivalence, BitwiseBerMatchesOutputDiffBitExactly) {
  const DutNetlist dut = build_circuit(GetParam());
  const double cp = critical_path_ns(dut.netlist, {1.0, 0.8, 0.0});
  std::vector<OperatingTriad> triads;
  for (const double ratio : {1.0, 0.75, 0.55})
    triads.push_back({ratio * cp, 0.8, 0.0});

  for (const EngineKind engine :
       {EngineKind::kEvent, EngineKind::kLevelized}) {
    const CharacterizeConfig cfg = provenance_config(engine);
    const auto results = characterize_dut(dut, lib(), triads, cfg);
    ASSERT_EQ(results.size(), triads.size());

    bool saw_errors = false;
    for (const TriadResult& r : results) {
      const ProvenanceSummary& p = r.provenance;
      SCOPED_TRACE(std::string(GetParam()) + " " +
                   triad_label(r.triad) + " engine " +
                   (engine == EngineKind::kEvent ? "event" : "lev"));
      EXPECT_EQ(p.ops, static_cast<std::uint64_t>(r.patterns));
      ASSERT_EQ(p.bitwise_ber.size(), r.bitwise_ber.size());
      for (std::size_t b = 0; b < r.bitwise_ber.size(); ++b)
        EXPECT_DOUBLE_EQ(p.bitwise_ber[b], r.bitwise_ber[b])
            << "bit " << b;
      EXPECT_NEAR(p.ber(), r.ber, 1e-12);

      // Accounting: every attributed bit lives in exactly one culprit
      // bucket (top_culprits is large enough to keep them all), the
      // histogram is sorted descending, and slack quantiles are
      // ordered.
      std::uint64_t culprit_total = 0;
      for (std::size_t c = 0; c < p.culprits.size(); ++c) {
        culprit_total += p.culprits[c].bits;
        EXPECT_FALSE(p.culprits[c].name.empty());
        EXPECT_GE(p.culprits[c].level, 0);
        if (c > 0) {
          EXPECT_GE(p.culprits[c - 1].bits, p.culprits[c].bits);
        }
      }
      EXPECT_EQ(culprit_total, p.attributed_bits);
      EXPECT_LE(p.erroneous_ops, p.ops);
      // Quantiles are bucket-interpolated (they can overshoot the true
      // max within one bucket width) but stay monotone.
      EXPECT_LE(p.slack_p50_ps, p.slack_p95_ps);
      EXPECT_GE(p.slack_max_ps, 0.0);
      if (engine == EngineKind::kEvent) {
        EXPECT_EQ(p.lane_words, 0u);
      }

      if (p.attributed_bits > 0) {
        saw_errors = true;
        EXPECT_GT(p.erroneous_ops, 0u);
        EXPECT_GT(p.slack_max_ps, 0.0);
        // "net=count,net=count" — the JSONL-safe culprit digest.
        const std::string top = p.top_culprits_string(2);
        EXPECT_NE(top.find('='), std::string::npos);
      }
    }
    // The onset band actually exercised the error regime.
    EXPECT_TRUE(saw_errors) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, ProvenanceEquivalence,
                         ::testing::Values("rca8", "mul8-array"));

// A relaxed triad has no late arrivals: the summary stays all-zero
// (and proves clean sweeps don't fabricate culprits).
TEST(Provenance, RelaxedTriadAccumulatesNothing) {
  const DutNetlist dut = build_circuit("rca8");
  const double cp = critical_path_ns(dut.netlist, {1.0, 1.0, 0.0});
  const std::vector<OperatingTriad> relaxed{{2.0 * cp, 1.0, 0.0}};
  CharacterizeConfig cfg = provenance_config(EngineKind::kLevelized);
  cfg.num_patterns = 400;
  const auto res = characterize_dut(dut, lib(), relaxed, cfg);
  ASSERT_EQ(res.size(), 1u);
  const ProvenanceSummary& p = res[0].provenance;
  EXPECT_EQ(p.ops, 400u);
  EXPECT_EQ(p.erroneous_ops, 0u);
  EXPECT_EQ(p.attributed_bits, 0u);
  EXPECT_TRUE(p.culprits.empty());
  EXPECT_GT(p.lane_words, 0u);  // levelized passes were observed
  for (const double b : p.bitwise_ber) EXPECT_DOUBLE_EQ(b, 0.0);
  EXPECT_DOUBLE_EQ(p.slack_max_ps, 0.0);
  EXPECT_EQ(p.top_culprits_string(4), "");
}

// Provenance is strictly opt-in: the default sweep leaves the summary
// empty (and keeps the grid fast paths eligible).
TEST(Provenance, OffByDefaultLeavesSummaryEmpty) {
  const DutNetlist dut = build_circuit("rca8");
  const double cp = critical_path_ns(dut.netlist, {1.0, 0.8, 0.0});
  CharacterizeConfig cfg;
  cfg.num_patterns = 300;
  cfg.engine = EngineKind::kLevelized;
  const auto res =
      characterize_dut(dut, lib(), {{0.55 * cp, 0.8, 0.0}}, cfg);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].provenance.ops, 0u);
  EXPECT_TRUE(res[0].provenance.bitwise_ber.empty());
  EXPECT_TRUE(res[0].provenance.culprits.empty());
}

// Sequential sweeps attribute per stage: culprit names carry the
// "s<k>:" stage prefix, totals still balance, and the per-op error
// accounting covers every cycle observed.
TEST(Provenance, SeqSweepLabelsCulpritsPerStage) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const double cp = seq_critical_path_ns(seq, lib());
  CharacterizeConfig cfg = provenance_config(EngineKind::kLevelized);
  cfg.num_patterns = 600;
  const std::vector<OperatingTriad> triads{{0.55 * cp, 0.8, 0.0}};
  const auto res = characterize_seq_dut(seq, lib(), triads, cfg);
  ASSERT_EQ(res.size(), 1u);
  const ProvenanceSummary& p = res[0].provenance;
  EXPECT_GT(p.ops, 0u);
  EXPECT_GT(p.attributed_bits, 0u);
  ASSERT_FALSE(p.culprits.empty());
  std::uint64_t culprit_total = 0;
  for (const CulpritCount& c : p.culprits) {
    culprit_total += c.bits;
    EXPECT_EQ(c.name.rfind("s", 0), 0u) << c.name;
    EXPECT_NE(c.name.find(':'), std::string::npos) << c.name;
  }
  EXPECT_EQ(culprit_total, p.attributed_bits);
  // The output stage's local per-bit profile is present and sized to
  // the output register.
  EXPECT_FALSE(p.bitwise_ber.empty());
}

}  // namespace
}  // namespace vosim
