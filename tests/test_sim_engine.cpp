// SimEngine abstraction + cross-backend equivalence suite: the
// bit-parallel levelized engine must agree with the event-driven
// reference bit-exactly when timing is relaxed, and within a documented
// BER tolerance when over-scaled (DESIGN.md §7).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/characterize/characterizer.hpp"
#include "src/characterize/patterns.hpp"
#include "src/fleet/fleet.hpp"
#include "src/netlist/adders.hpp"
#include "src/netlist/approx_adders.hpp"
#include "src/netlist/eval.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/probe.hpp"
#include "src/sim/event_sim.hpp"
#include "src/sim/levelized_sim.hpp"
#include "src/sim/sim_engine.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/sta/sta.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

double critical_path_ns(const Netlist& nl, const OperatingTriad& op) {
  return analyze_timing(nl, lib(), op).critical_path_ps * 1e-3;
}

TEST(SimEngine, KindNamesRoundTrip) {
  EXPECT_EQ(engine_kind_name(EngineKind::kEvent), "event");
  EXPECT_EQ(engine_kind_name(EngineKind::kLevelized), "levelized");
  EXPECT_EQ(parse_engine_kind("event"), EngineKind::kEvent);
  EXPECT_EQ(parse_engine_kind("levelized"), EngineKind::kLevelized);
  EXPECT_THROW(parse_engine_kind("spice"), std::invalid_argument);
}

TEST(SimEngine, FactoryBuildsSelectedBackend) {
  const AdderNetlist rca = build_rca(4);
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  const auto lev = make_engine(rca.netlist, lib(), {1.0, 1.0, 0.0}, cfg);
  EXPECT_EQ(lev->kind(), EngineKind::kLevelized);
  EXPECT_NE(dynamic_cast<LevelizedSimulator*>(lev.get()), nullptr);
  cfg.engine = EngineKind::kEvent;
  const auto ev = make_engine(rca.netlist, lib(), {1.0, 1.0, 0.0}, cfg);
  EXPECT_EQ(ev->kind(), EngineKind::kEvent);
  EXPECT_NE(dynamic_cast<TimingSimulator*>(ev.get()), nullptr);
}

// The packed 64-lane cell evaluator must agree with cell_truth() for
// every cell kind on every minterm.
TEST(SimEngine, PackedEvalMatchesTruthTables) {
  const CellKind kinds[] = {
      CellKind::kInv,   CellKind::kBuf,   CellKind::kNand2,
      CellKind::kNor2,  CellKind::kAnd2,  CellKind::kOr2,
      CellKind::kXor2,  CellKind::kXnor2, CellKind::kAoi21,
      CellKind::kOai21, CellKind::kAo21,  CellKind::kMaj3};
  for (const CellKind kind : kinds) {
    const int n = cell_num_inputs(kind);
    Netlist nl("cell_" + cell_kind_name(kind));
    std::vector<NetId> pis;
    for (int i = 0; i < n; ++i) pis.push_back(nl.add_input("i" + std::to_string(i)));
    NetId out = invalid_net;
    switch (n) {
      case 1: out = nl.add_gate(kind, {pis[0]}); break;
      case 2: out = nl.add_gate(kind, {pis[0], pis[1]}); break;
      default: out = nl.add_gate(kind, {pis[0], pis[1], pis[2]}); break;
    }
    nl.mark_output(out);
    nl.finalize();

    TimingSimConfig cfg;
    cfg.engine = EngineKind::kLevelized;
    // Generous clock: the evaluation is purely functional.
    LevelizedSimulator sim(nl, lib(), {100.0, 1.0, 0.0}, cfg);
    for (unsigned minterm = 0; minterm < (1u << n); ++minterm) {
      std::vector<std::uint8_t> in(static_cast<std::size_t>(n), 0);
      for (int i = 0; i < n; ++i)
        in[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>((minterm >> i) & 1u);
      const StepResult r = sim.step(in);
      const auto expected =
          static_cast<std::uint64_t>((cell_truth(kind) >> minterm) & 1u);
      EXPECT_EQ(r.settled_outputs, expected)
          << cell_kind_name(kind) << " minterm " << minterm;
      EXPECT_EQ(r.sampled_outputs, expected)
          << cell_kind_name(kind) << " minterm " << minterm;
    }
  }
}

// At generous Tclk both engines must agree bit-exactly with the golden
// zero-delay evaluation on every adder architecture — same stimuli,
// same per-gate variation die.
TEST(SimEngine, GenerousTclkBitExactAcrossArchitectures) {
  const AdderArch archs[] = {
      AdderArch::kRipple,      AdderArch::kBrentKung, AdderArch::kKoggeStone,
      AdderArch::kSklansky,    AdderArch::kCarrySelect,
      AdderArch::kCarrySkip,   AdderArch::kHanCarlson};
  for (const AdderArch arch : archs) {
    const DutNetlist adder = to_dut(build_adder(arch, 8));
    const double cp = critical_path_ns(adder.netlist, {1.0, 1.0, 0.0});
    const OperatingTriad relaxed{2.0 * cp, 1.0, 0.0};

    TimingSimConfig cfg;
    cfg.variation_sigma = 0.03;
    cfg.variation_seed = 7;
    cfg.engine = EngineKind::kEvent;
    VosDutSim event_sim(adder, lib(), relaxed, cfg);
    cfg.engine = EngineKind::kLevelized;
    VosDutSim lev_sim(adder, lib(), relaxed, cfg);
    EXPECT_EQ(event_sim.engine_kind(), EngineKind::kEvent);
    EXPECT_EQ(lev_sim.engine_kind(), EngineKind::kLevelized);

    PatternStream patterns(PatternPolicy::kCarryBalanced, 8, 42);
    for (int i = 0; i < 200; ++i) {
      const OperandPair p = patterns.next();
      const VosOpResult re = event_sim.apply(p.a, p.b);
      const VosOpResult rl = lev_sim.apply(p.a, p.b);
      const std::uint64_t golden = exact_add(p.a, p.b, 8);
      EXPECT_EQ(re.sampled, golden) << adder_arch_name(arch);
      EXPECT_EQ(rl.sampled, golden) << adder_arch_name(arch);
      EXPECT_EQ(re.settled, golden) << adder_arch_name(arch);
      EXPECT_EQ(rl.settled, golden) << adder_arch_name(arch);
    }
  }
}

// Approximate architectures: the engines must agree with each other and
// with the netlist's own functional (settled) behavior.
TEST(SimEngine, GenerousTclkApproxAdderAgreesAcrossEngines) {
  const DutNetlist loa = to_dut(build_lower_or(8, 3));
  const double cp = critical_path_ns(loa.netlist, {1.0, 1.0, 0.0});
  const OperatingTriad relaxed{2.0 * cp, 1.0, 0.0};
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kEvent;
  VosDutSim event_sim(loa, lib(), relaxed, cfg);
  cfg.engine = EngineKind::kLevelized;
  VosDutSim lev_sim(loa, lib(), relaxed, cfg);
  PatternStream patterns(PatternPolicy::kUniform, 8, 9);
  for (int i = 0; i < 200; ++i) {
    const OperandPair p = patterns.next();
    const VosOpResult re = event_sim.apply(p.a, p.b);
    const VosOpResult rl = lev_sim.apply(p.a, p.b);
    EXPECT_EQ(re.sampled, rl.sampled);
    EXPECT_EQ(re.settled, rl.settled);
  }
}

// Batched evaluation must reproduce the per-step streaming semantics of
// the levelized engine exactly (values, energy and settle times).
/// Bit-identity of two operation results: every field, doubles
/// compared exactly (the scalar one-lane pass and the packed pass must
/// agree bit for bit, not within ULPs).
void expect_same_op(const VosOpResult& want, const VosOpResult& got,
                    const std::string& where) {
  EXPECT_EQ(got.sampled, want.sampled) << where;
  EXPECT_EQ(got.settled, want.settled) << where;
  EXPECT_EQ(got.energy_fj, want.energy_fj) << where;
  EXPECT_EQ(got.settle_time_ps, want.settle_time_ps) << where;
}

void expect_same_step(const StepResult& want, const StepResult& got,
                      const std::string& where) {
  EXPECT_EQ(got.sampled_outputs, want.sampled_outputs) << where;
  EXPECT_EQ(got.settled_outputs, want.settled_outputs) << where;
  EXPECT_EQ(got.settle_time_ps, want.settle_time_ps) << where;
  EXPECT_EQ(got.window_energy_fj, want.window_energy_fj) << where;
  EXPECT_EQ(got.total_energy_fj, want.total_energy_fj) << where;
  EXPECT_EQ(got.toggles_in_window, want.toggles_in_window) << where;
  EXPECT_EQ(got.toggles_total, want.toggles_total) << where;
}

/// Scalar apply() (the one-lane pass) against apply_batch (packed
/// passes) from the same state: `n` patterns per call, two calls, so
/// the lane-0 carry across calls is pinned too.
void expect_batch_matches_step(const DutNetlist& dut,
                               const OperatingTriad& op,
                               const TimingSimConfig& cfg, std::size_t n,
                               const std::string& tag) {
  VosDutSim stepper(dut, lib(), op, cfg);
  VosDutSim batcher(dut, lib(), op, cfg);
  stepper.reset(1, 2);
  batcher.reset(1, 2);
  const int width = dut.operand_width(0);
  PatternStream patterns(PatternPolicy::kCarryBalanced, width, 5 + n);
  for (int call = 0; call < 2; ++call) {
    std::vector<std::uint64_t> a(n);
    std::vector<std::uint64_t> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      const OperandPair p = patterns.next();
      a[i] = p.a;
      b[i] = p.b;
    }
    std::vector<VosOpResult> batched(n);
    batcher.apply_batch(a, b, batched);
    for (std::size_t i = 0; i < n; ++i)
      expect_same_op(stepper.apply(a[i], b[i]), batched[i],
                     tag + " count " + std::to_string(n) + " call " +
                         std::to_string(call) + " pattern " +
                         std::to_string(i));
  }
}

TEST(SimEngine, LevelizedBatchMatchesStep) {
  const DutNetlist rca = to_dut(build_rca(8));
  const double cp = critical_path_ns(rca.netlist, {1.0, 0.7, 0.0});
  const OperatingTriad stressed{0.6 * cp, 0.7, 0.0};
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;

  // Ragged counts around the 64-lane word: a single lane, one short of
  // a word, exactly one, one over (a one-lane tail), and several passes
  // with a partial tail.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u, 200u})
    expect_batch_matches_step(rca, stressed, cfg, n, "rca8");

  // The campaign ladder's deepest corners (0.5·CP at 0.5 V and 0.7 V)
  // on a fleet chip with within-die variation: many commits land past
  // the capture edge, and pulse-fed gates (about 4–7% of gates per add
  // on these adders) take the generic walk in the scalar pass but the
  // packed pulse classes in the batch, which must commit the same.
  const FleetConfig fleet{.num_chips = 3, .seed = 11};
  const TimingSimConfig chip_cfg =
      apply_chip(cfg, draw_chip_instance(fleet, 2), fleet.within_die_sigma);
  ASSERT_GT(chip_cfg.variation_sigma, 0.0);
  for (const DutNetlist& dut :
       {to_dut(build_rca(16)), to_dut(build_kogge_stone(16)),
        to_dut(build_brent_kung(16))}) {
    const double dcp =
        synthesize_report(dut.netlist, lib()).critical_path_ns;
    for (const double vdd : {0.5, 0.7})
      expect_batch_matches_step(dut, {0.5 * dcp, vdd, 0.0}, chip_cfg, 200,
                                dut.display_name + " vdd " +
                                    std::to_string(vdd));
  }
}

// A step_cycle stream leaves every net at its truncated (sampled)
// value, so the first step() after it launches from a state that is not
// the settled function of its inputs: changed-but-uncommitted outputs
// take the catch-up commit. The scalar steps must match step_batch
// from the same state, and an attached ErrorProvenance must see the
// same per-operation stream on both sides.
TEST(SimEngine, LevelizedStepAfterStepCycleMatchesBatch) {
  const DutNetlist dut = to_dut(build_kogge_stone(16));
  const double cp = synthesize_report(dut.netlist, lib()).critical_path_ns;
  const FleetConfig fleet{.num_chips = 3, .seed = 11};
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  cfg = apply_chip(cfg, draw_chip_instance(fleet, 1),
                   fleet.within_die_sigma);
  const std::size_t npis = dut.netlist.primary_inputs().size();
  constexpr std::size_t kCycles = 40;
  constexpr std::size_t kSteps = 100;
  Rng rng(23);
  std::vector<std::uint8_t> cycles(kCycles * npis);
  std::vector<std::uint8_t> steps(kSteps * npis);
  for (auto& v : cycles) v = static_cast<std::uint8_t>(rng.bits(1));
  for (auto& v : steps) v = static_cast<std::uint8_t>(rng.bits(1));

  for (const bool observed : {false, true}) {
    for (const double vdd : {0.5, 0.7}) {
      const OperatingTriad op{0.5 * cp, vdd, 0.0};
      const std::string tag = "vdd " + std::to_string(vdd) +
                              (observed ? " observed" : "");
      LevelizedSimulator scalar(dut.netlist, lib(), op, cfg);
      LevelizedSimulator packed(dut.netlist, lib(), op, cfg);
      ErrorProvenance scalar_prov(dut);
      ErrorProvenance packed_prov(dut);
      if (observed) {
        scalar.attach_observer(&scalar_prov);
        packed.attach_observer(&packed_prov);
      }
      // Same cycle stream, scalar and packed: cycle-mode lanes too.
      std::vector<StepResult> want(kCycles);
      std::vector<StepResult> got(kCycles);
      for (std::size_t c = 0; c < kCycles; ++c)
        want[c] = scalar.step_cycle(
            std::span(cycles).subspan(c * npis, npis));
      packed.step_cycle_batch(cycles, kCycles, got);
      for (std::size_t c = 0; c < kCycles; ++c)
        expect_same_step(want[c], got[c], tag + " cycle " +
                                              std::to_string(c));
      ASSERT_TRUE(std::ranges::equal(scalar.settled_values(),
                                     packed.settled_values()));
      ASSERT_TRUE(std::ranges::equal(scalar.sampled_values(),
                                     packed.sampled_values()));
      // The carried (truncated) state must differ from the logic
      // function of the last inputs somewhere at the deep corner, or
      // the catch-up path is not reached.
      if (vdd == 0.5) {
        const auto last =
            std::span(cycles).subspan((kCycles - 1) * npis, npis);
        EXPECT_FALSE(std::ranges::equal(scalar.settled_values(),
                                        evaluate_logic(dut.netlist, last)))
            << tag << ": the cycle stream left no truncated net";
      }

      want.resize(kSteps);
      got.resize(kSteps);
      for (std::size_t i = 0; i < kSteps; ++i)
        want[i] = scalar.step(std::span(steps).subspan(i * npis, npis));
      packed.step_batch(steps, kSteps, got);
      for (std::size_t i = 0; i < kSteps; ++i)
        expect_same_step(want[i], got[i], tag + " step " +
                                              std::to_string(i));
      EXPECT_TRUE(std::ranges::equal(scalar.settled_values(),
                                     packed.settled_values()));
      EXPECT_TRUE(std::ranges::equal(scalar.sampled_values(),
                                     packed.sampled_values()));

      if (!observed) continue;
      const ProvenanceSummary ws = scalar_prov.summary();
      const ProvenanceSummary gs = packed_prov.summary();
      EXPECT_EQ(gs.ops, kCycles + kSteps) << tag;
      EXPECT_GT(ws.erroneous_ops, 0u) << tag;
      EXPECT_EQ(gs.erroneous_ops, ws.erroneous_ops) << tag;
      EXPECT_EQ(gs.attributed_bits, ws.attributed_bits) << tag;
      EXPECT_EQ(gs.bitwise_ber, ws.bitwise_ber) << tag;
      ASSERT_EQ(gs.culprits.size(), ws.culprits.size()) << tag;
      for (std::size_t c = 0; c < ws.culprits.size(); ++c) {
        EXPECT_EQ(gs.culprits[c].net, ws.culprits[c].net) << tag;
        EXPECT_EQ(gs.culprits[c].bits, ws.culprits[c].bits) << tag;
      }
      EXPECT_EQ(gs.slack_p50_ps, ws.slack_p50_ps) << tag;
      EXPECT_EQ(gs.slack_p95_ps, ws.slack_p95_ps) << tag;
      EXPECT_EQ(gs.slack_max_ps, ws.slack_max_ps) << tag;
      // One pass per scalar call; ceil(count / 64) per packed call.
      EXPECT_EQ(ws.lane_words, kCycles + kSteps) << tag;
      EXPECT_EQ(gs.lane_words, 1u + 2u) << tag;
    }
  }
}

// Every levelized entry point reports its work to the metrics
// registry: scalar steps count as one-lane passes, so the pattern and
// cycle counters cover scalar, batched and sweep traffic alike.
TEST(SimEngine, LevelizedCountersCoverEveryPath) {
  const DutNetlist rca = to_dut(build_rca(8));
  const double cp = critical_path_ns(rca.netlist, {1.0, 0.7, 0.0});
  const OperatingTriad stressed{0.6 * cp, 0.7, 0.0};
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  obs::Counter& patterns = obs::metrics().counter("sim.levelized.patterns");
  obs::Counter& cycles = obs::metrics().counter("sim.levelized.cycles");
  obs::Counter& words = obs::metrics().counter("sim.levelized.lane_words");
  const std::uint64_t patterns0 = patterns.value();
  const std::uint64_t cycles0 = cycles.value();
  const std::uint64_t words0 = words.value();

  VosDutSim sim(rca, lib(), stressed, cfg);
  sim.reset(0, 0);
  constexpr std::size_t kScalar = 37;
  for (std::size_t i = 0; i < kScalar; ++i) sim.apply(i, 3 * i);
  constexpr std::size_t kBatch = 100;  // two words, the second partial
  std::vector<std::uint64_t> a(kBatch, 5);
  std::vector<std::uint64_t> b(kBatch, 9);
  std::vector<VosOpResult> res(kBatch);
  sim.apply_batch(a, b, res);
  // One lane word per scalar call, ceil(count / 64) per batch.
  EXPECT_EQ(words.value() - words0, kScalar + 2);

  CharacterizeConfig ccfg;
  ccfg.num_patterns = 300;
  ccfg.engine = EngineKind::kLevelized;
  ccfg.threads = 2;
  const std::vector<OperatingTriad> triads{stressed, {cp, 1.0, 0.0}};
  characterize_dut(rca, lib(), triads, ccfg);
  EXPECT_EQ(patterns.value() - patterns0,
            kScalar + kBatch + ccfg.num_patterns);

  const std::vector<std::uint8_t> zeros(
      rca.netlist.primary_inputs().size(), 0);
  const auto eng = make_engine(rca.netlist, lib(), stressed, cfg);
  eng->reset(zeros);
  constexpr std::size_t kCycles = 70;
  for (std::size_t i = 0; i < 5; ++i) eng->step_cycle(zeros);
  std::vector<std::uint8_t> cycle_in(kCycles * zeros.size(), 1);
  std::vector<StepResult> cycle_res(kCycles);
  const std::uint64_t words1 = words.value();
  eng->step_cycle_batch(cycle_in, kCycles, cycle_res);
  EXPECT_EQ(words.value() - words1, 2u);
  EXPECT_EQ(cycles.value() - cycles0, 5 + kCycles);
  // Clocked traffic counts as cycles, never as patterns.
  EXPECT_EQ(patterns.value() - patterns0,
            kScalar + kBatch + ccfg.num_patterns);
}

// Deep over-scaling: when every path misses the clock, each operation
// samples the previous operation's settled result — in both engines.
TEST(SimEngine, DeepOverscalingLatchesPreviousResult) {
  const DutNetlist rca = to_dut(build_rca(8));
  const OperatingTriad tiny{0.001, 1.0, 0.0};  // 1 ps: everything is late
  for (const EngineKind kind :
       {EngineKind::kEvent, EngineKind::kLevelized}) {
    TimingSimConfig cfg;
    cfg.engine = kind;
    VosDutSim sim(rca, lib(), tiny, cfg);
    sim.reset(0, 0);
    std::uint64_t prev_settled = 0;  // sum of the reset state
    PatternStream patterns(PatternPolicy::kUniform, 8, 3);
    for (int i = 0; i < 100; ++i) {
      const OperandPair p = patterns.next();
      const VosOpResult r = sim.apply(p.a, p.b);
      EXPECT_EQ(r.sampled, prev_settled)
          << engine_kind_name(kind) << " op " << i;
      EXPECT_EQ(r.settled, exact_add(p.a, p.b, 8));
      prev_settled = r.settled;
    }
  }
}

// At over-scaled Tclk the levelized BER must track the event-sim BER
// within the documented tolerance (DESIGN.md §7: ≤ 2 percentage points
// on RCA8) — same patterns, same die.
TEST(SimEngine, OverscaledBerWithinToleranceOnRca8) {
  const DutNetlist rca = to_dut(build_rca(8));
  const double cp = critical_path_ns(rca.netlist, {1.0, 0.8, 0.0});
  std::vector<OperatingTriad> triads;
  for (const double ratio : {1.0, 0.85, 0.7, 0.55, 0.4})
    triads.push_back({ratio * cp, 0.8, 0.0});

  CharacterizeConfig cfg;
  cfg.num_patterns = 4000;
  cfg.engine = EngineKind::kEvent;
  const auto event_res = characterize_dut(rca, lib(), triads, cfg);
  cfg.engine = EngineKind::kLevelized;
  const auto lev_res = characterize_dut(rca, lib(), triads, cfg);

  ASSERT_EQ(event_res.size(), lev_res.size());
  for (std::size_t t = 0; t < triads.size(); ++t) {
    EXPECT_NEAR(lev_res[t].ber, event_res[t].ber, 0.02)
        << "triad " << triad_label(triads[t]);
  }
  // The sweep actually exercises the error regime.
  EXPECT_GT(event_res.back().ber, 0.01);
}

// The characterizer produces identical results through the batched
// streaming path as the seed's per-pattern loop did (event engine is
// the default and the reference).
TEST(SimEngine, CharacterizerDefaultsToEventEngine) {
  CharacterizeConfig cfg;
  EXPECT_EQ(cfg.engine, EngineKind::kEvent);
}

// The characterizer's levelized grid fast path (one normalized timing
// pass, per-triad capture thresholds) must reproduce what a per-triad
// levelized simulator computes: delay scaling is uniform in (Vdd, Vbb)
// and the engine's decisions are scale-invariant, so the two paths may
// differ only by floating-point rounding on knife-edge commits.
TEST(SimEngine, SweepFastPathMatchesPerTriadLevelized) {
  const DutNetlist rca = to_dut(build_rca(8));
  const double cp = critical_path_ns(rca.netlist, {1.0, 0.8, 0.0});
  const std::vector<OperatingTriad> triads{
      {2.0 * cp, 1.0, 0.0}, {0.8 * cp, 0.8, 0.0}, {0.6 * cp, 0.7, 2.0}};
  CharacterizeConfig cfg;
  cfg.num_patterns = 1500;
  cfg.engine = EngineKind::kLevelized;
  const auto fast = characterize_dut(rca, lib(), triads, cfg);

  const std::vector<OperandPair> pats = [&] {
    std::vector<OperandPair> out(cfg.num_patterns + 1);
    PatternStream ps(cfg.policy, 8, cfg.pattern_seed);
    for (OperandPair& p : out) p = ps.next();
    return out;
  }();
  for (std::size_t t = 0; t < triads.size(); ++t) {
    TimingSimConfig sim_cfg;
    sim_cfg.variation_sigma = cfg.variation_sigma;
    sim_cfg.variation_seed = cfg.variation_seed;
    sim_cfg.engine = EngineKind::kLevelized;
    VosDutSim sim(rca, lib(), triads[t], sim_cfg);
    sim.reset(pats[0].a, pats[0].b);
    ErrorAccumulator acc(9);
    double energy = 0.0;
    for (std::size_t i = 1; i <= cfg.num_patterns; ++i) {
      const VosOpResult r = sim.apply(pats[i].a, pats[i].b);
      acc.add(exact_add(pats[i].a, pats[i].b, 8), r.sampled);
      energy += r.energy_fj;
    }
    EXPECT_NEAR(fast[t].ber, acc.ber(), 1e-4)
        << triad_label(triads[t]);
    EXPECT_NEAR(fast[t].energy_per_op_fj,
                energy / static_cast<double>(cfg.num_patterns),
                1e-6 * energy) << triad_label(triads[t]);
  }
}

// Non-streaming (reset-per-op) characterization works on both engines.
TEST(SimEngine, NonStreamingCharacterizeBothEngines) {
  const DutNetlist rca = to_dut(build_rca(8));
  const double cp = critical_path_ns(rca.netlist, {1.0, 1.0, 0.0});
  const std::vector<OperatingTriad> relaxed{{2.0 * cp, 1.0, 0.0}};
  for (const EngineKind kind :
       {EngineKind::kEvent, EngineKind::kLevelized}) {
    CharacterizeConfig cfg;
    cfg.num_patterns = 300;
    cfg.streaming_state = false;
    cfg.engine = kind;
    const auto res = characterize_dut(rca, lib(), relaxed, cfg);
    EXPECT_EQ(res[0].ber, 0.0) << engine_kind_name(kind);
    EXPECT_GT(res[0].energy_per_op_fj, 0.0);
  }
}

// The levelized arrival model must reproduce STA: its per-net arrivals
// at zero variation equal analyze_timing's, and its critical path too.
TEST(SimEngine, LevelizedArrivalsMatchSta) {
  const DutNetlist bk = to_dut(build_brent_kung(8));
  const OperatingTriad op{1.0, 0.6, 0.0};
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  LevelizedSimulator sim(bk.netlist, lib(), op, cfg);
  const TimingAnalysis sta = analyze_timing(bk.netlist, lib(), op);
  for (NetId n = 0; n < static_cast<NetId>(bk.netlist.num_nets()); ++n)
    EXPECT_NEAR(sim.arrival_ps(n), sta.arrival_ps[n], 1e-9);
  EXPECT_NEAR(sim.critical_path_ps(), sta.critical_path_ps, 1e-9);
}

// arrival_times_ps with externally supplied delays (the variation die)
// bounds every per-op settle time the levelized engine reports.
TEST(SimEngine, StaArrivalBoundsSettleTimes) {
  const DutNetlist rca = to_dut(build_rca(8));
  const OperatingTriad op{0.5, 0.7, 0.0};
  TimingSimConfig cfg;
  cfg.variation_sigma = 0.05;
  cfg.variation_seed = 11;
  cfg.engine = EngineKind::kLevelized;
  VosDutSim sim(rca, lib(), op, cfg);
  const LevelizedSimulator& eng =
      dynamic_cast<const LevelizedSimulator&>(sim.engine());
  double cp = 0.0;
  for (NetId n = 0; n < static_cast<NetId>(rca.netlist.num_nets()); ++n)
    cp = std::max(cp, eng.arrival_ps(n));
  PatternStream patterns(PatternPolicy::kCarryBalanced, 8, 21);
  for (int i = 0; i < 200; ++i) {
    const OperandPair p = patterns.next();
    EXPECT_LE(sim.apply(p.a, p.b).settle_time_ps, cp + 1e-9);
  }
}

}  // namespace
}  // namespace vosim
