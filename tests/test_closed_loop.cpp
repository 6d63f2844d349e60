// Closed-loop VOS control tests: ladder-walking policy in isolation,
// the policy over synthetic Razor streams with known per-rung rates,
// then the full loop over clocked pipelines — measured Razor rates must
// drive the unit to cheaper rungs when safe and hold it back when not.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/characterize/characterizer.hpp"
#include "src/netlist/dut.hpp"
#include "src/runtime/closed_loop.hpp"
#include "src/runtime/error_monitor.hpp"
#include "src/runtime/triad_ladder.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/tech/library.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

ClosedLoopConfig fast_config() {
  ClosedLoopConfig cfg;
  cfg.window_cycles = 32;
  cfg.min_dwell_cycles = 32;
  return cfg;
}

// ---------------------------------------------------------- controller
TEST(ClosedLoopPolicy, DescendsWhenClean) {
  ClosedLoopController c(3, fast_config());
  EXPECT_EQ(c.rung(), 0u);
  std::size_t downs = 0;
  for (int i = 0; i < 200; ++i)
    if (c.observe(0.0, true) == SpeculationAction::kStepDown) ++downs;
  EXPECT_EQ(c.rung(), 2u);
  EXPECT_EQ(downs, 2u);
  // At the last rung it holds.
  EXPECT_EQ(c.observe(0.0, true), SpeculationAction::kHold);
}

TEST(ClosedLoopPolicy, BacksOffOnViolation) {
  ClosedLoopConfig cfg = fast_config();
  cfg.op_error_margin = 0.05;
  ClosedLoopController c(3, cfg);
  for (int i = 0; i < 100; ++i) c.observe(0.0, true);
  EXPECT_EQ(c.rung(), 2u);
  // A measured violation steps up exactly once per dwell period.
  SpeculationAction a = SpeculationAction::kHold;
  for (int i = 0; i < 40 && a == SpeculationAction::kHold; ++i)
    a = c.observe(0.5, true);
  EXPECT_EQ(a, SpeculationAction::kStepUp);
  EXPECT_EQ(c.rung(), 1u);
}

TEST(ClosedLoopPolicy, HysteresisBandHolds) {
  ClosedLoopConfig cfg = fast_config();
  cfg.op_error_margin = 0.10;
  cfg.step_down_fraction = 0.5;
  ClosedLoopController c(3, cfg);
  // A rate inside (margin/2, margin] must neither climb nor descend.
  for (int i = 0; i < 300; ++i)
    EXPECT_EQ(c.observe(0.08, true), SpeculationAction::kHold);
  EXPECT_EQ(c.rung(), 0u);
  EXPECT_EQ(c.switches(), 0u);
}

TEST(ClosedLoopPolicy, WaitsForWindowAndDwell) {
  ClosedLoopController c(2, fast_config());
  // No decision before the window fills, however long it waits.
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(c.observe(0.0, false), SpeculationAction::kHold);
  // Dwell restarts after a switch.
  ClosedLoopController d(3, fast_config());
  for (int i = 0; i < 40; ++i) d.observe(0.0, true);
  EXPECT_EQ(d.rung(), 1u);
  EXPECT_LE(d.switches(), 2u);
}

TEST(ClosedLoopPolicy, ReprobeBackoffBarsFailingRung) {
  ClosedLoopConfig cfg = fast_config();
  cfg.op_error_margin = 0.1;
  cfg.reprobe_backoff_windows = 4;
  ClosedLoopController c(2, cfg);
  // Descend, fail, retreat.
  for (int i = 0; i < 40; ++i) c.observe(0.0, true);
  ASSERT_EQ(c.rung(), 1u);
  SpeculationAction a = SpeculationAction::kHold;
  for (int i = 0; i < 40 && a == SpeculationAction::kHold; ++i)
    a = c.observe(0.9, true);
  ASSERT_EQ(a, SpeculationAction::kStepUp);
  EXPECT_EQ(c.barred_rung(), 1u);
  // The failed rung is barred: the next few clean decision windows must
  // NOT re-enter it (without backoff each one would).
  int suppressed_windows = 0;
  while (c.rung() == 0 && suppressed_windows < 4) {
    for (int i = 0; i < 40 && c.rung() == 0; ++i) c.observe(0.0, true);
    if (c.rung() == 0) break;
    // It eventually re-probes once the cooldown drains.
    ++suppressed_windows;
  }
  // Count decisions until the first re-probe: must take > 1 window.
  ClosedLoopController d(2, cfg);
  for (int i = 0; i < 40; ++i) d.observe(0.0, true);
  for (int i = 0; i < 40 && d.rung() == 1; ++i) d.observe(0.9, true);
  ASSERT_EQ(d.rung(), 0u);
  int windows_to_reprobe = 0;
  while (d.rung() == 0 && windows_to_reprobe < 100) {
    for (int i = 0; i < 32; ++i)
      if (d.observe(0.0, true) != SpeculationAction::kHold) break;
    ++windows_to_reprobe;
  }
  EXPECT_GE(windows_to_reprobe, 4);  // cooldown held it back
  EXPECT_LT(windows_to_reprobe, 100);  // but it does re-probe
  // Failing again doubles the penalty.
  for (int i = 0; i < 40 && d.rung() == 1; ++i) d.observe(0.9, true);
  ASSERT_EQ(d.rung(), 0u);
  int second = 0;
  while (d.rung() == 0 && second < 100) {
    for (int i = 0; i < 32; ++i)
      if (d.observe(0.0, true) != SpeculationAction::kHold) break;
    ++second;
  }
  EXPECT_GT(second, windows_to_reprobe);
  // Surviving a window on the once-barred rung clears the bar.
  for (int i = 0; i < 40; ++i) d.observe(0.0, true);
  EXPECT_EQ(d.barred_rung(), d.num_rungs());
}

TEST(ClosedLoopPolicy, Validation) {
  EXPECT_THROW(ClosedLoopController(0), ContractViolation);
  ClosedLoopConfig bad;
  bad.step_down_fraction = 0.0;
  EXPECT_THROW(ClosedLoopController(2, bad), ContractViolation);
}

// ------------------------------------------------ synthetic ladder walk
/// Per-op flag rates of a four-rung synthetic ladder: one clean rung,
/// then 1 %, 4 % and 20 % of operations flagged.
const std::vector<double> kSyntheticRates{0.0, 0.01, 0.04, 0.20};

struct SyntheticWalk {
  std::vector<std::size_t> rung;  // rung each cycle ran on
  std::vector<bool> flagged;      // whether that cycle was flagged
  std::uint64_t switches = 0;
  std::size_t deepest = 0;

  std::size_t steady_begin() const { return rung.size() / 4; }
  /// Flagged-cycle rate over the last three quarters of the walk.
  double steady_rate() const {
    return static_cast<double>(std::count(
               flagged.begin() + steady_begin(), flagged.end(), true)) /
           static_cast<double>(flagged.size() - steady_begin());
  }
  /// Share of the last three quarters of the walk spent on rung `r`.
  double steady_share(std::size_t r) const {
    return static_cast<double>(
               std::count(rung.begin() + steady_begin(), rung.end(), r)) /
           static_cast<double>(rung.size() - steady_begin());
  }
};

/// Drives a controller from one Razor monitor (9-bit words) whose
/// operations flag at the active rung's rate, resetting the window on
/// every switch as ClosedLoopSeqUnit does.
SyntheticWalk walk_synthetic(const std::vector<double>& rates,
                             const ClosedLoopConfig& cfg,
                             std::uint64_t seed, std::size_t cycles) {
  ClosedLoopController ctl(rates.size(), cfg);
  DoubleSamplingMonitor mon(9, cfg.window_cycles);
  Rng rng(seed);
  SyntheticWalk w;
  for (std::size_t c = 0; c < cycles; ++c) {
    const bool flagged = rng.flip(rates[ctl.rung()]);
    w.rung.push_back(ctl.rung());
    w.flagged.push_back(flagged);
    w.deepest = std::max(w.deepest, ctl.rung());
    mon.record_word(flagged);
    if (ctl.observe(mon.window_op_error_rate(), mon.window_full()) !=
        SpeculationAction::kHold)
      mon.reset_window();
  }
  w.switches = ctl.switches();
  return w;
}

ClosedLoopConfig synthetic_config(double margin, std::size_t window,
                                  std::size_t dwell) {
  ClosedLoopConfig cfg;
  cfg.op_error_margin = margin;
  cfg.window_cycles = window;
  cfg.min_dwell_cycles = dwell;
  return cfg;
}

// Rung 2 (4 % flagged) fits a 5 % floor and rung 3 (20 %) does not:
// the loop settles between rungs 1 and 2, probing rung 3 only under
// backoff, and never falls back to the guard-banded rung.
TEST(ClosedLoopLadder, ConvergesToCheapestFeasibleRung) {
  const ClosedLoopConfig cfg = synthetic_config(0.05, 256, 256);
  for (std::uint64_t seed = 42; seed <= 51; ++seed) {
    const SyntheticWalk w = walk_synthetic(kSyntheticRates, cfg, seed, 20000);
    EXPECT_LE(w.steady_rate(), cfg.op_error_margin) << seed;
    EXPECT_EQ(w.steady_share(0), 0.0) << seed;
  }
}

TEST(ClosedLoopLadder, TightMarginStaysSafe) {
  // Only the clean rung fits a 0.4 % floor: probes of rung 1 are rare
  // and short, so the steady rate stays under the floor.
  const ClosedLoopConfig cfg = synthetic_config(0.004, 256, 256);
  for (std::uint64_t seed = 42; seed <= 51; ++seed) {
    const SyntheticWalk w = walk_synthetic(kSyntheticRates, cfg, seed, 20000);
    EXPECT_LE(w.steady_rate(), cfg.op_error_margin) << seed;
    EXPECT_GT(w.steady_share(0), 0.5) << seed;
  }
}

TEST(ClosedLoopLadder, LooseMarginGoesAggressive) {
  const ClosedLoopConfig cfg = synthetic_config(0.5, 128, 128);
  for (std::uint64_t seed = 42; seed <= 51; ++seed) {
    const SyntheticWalk w = walk_synthetic(kSyntheticRates, cfg, seed, 20000);
    EXPECT_EQ(w.rung.back(), kSyntheticRates.size() - 1) << seed;
  }
}

TEST(ClosedLoopLadder, HysteresisLimitsFlapping) {
  // The loop decides every cycle once its dwell is served, so a switch
  // can follow every dwell; hysteresis and backoff keep it to at most
  // half of that.
  const ClosedLoopConfig cfg = synthetic_config(0.05, 256, 512);
  const std::size_t cycles = 30000;
  for (std::uint64_t seed = 42; seed <= 51; ++seed) {
    const SyntheticWalk w = walk_synthetic(kSyntheticRates, cfg, seed, cycles);
    EXPECT_LE(w.switches, cycles / cfg.min_dwell_cycles / 2) << seed;
  }
}

TEST(ClosedLoopLadder, BacksOffWhenErrorsSpike) {
  // The cheap rung flags 30 % of operations against a 5 % floor: each
  // probe fails within one window, and every re-probe waits longer.
  const ClosedLoopConfig cfg = synthetic_config(0.05, 128, 128);
  for (std::uint64_t seed = 42; seed <= 51; ++seed) {
    const SyntheticWalk w = walk_synthetic({0.0, 0.30}, cfg, seed, 20000);
    EXPECT_EQ(w.deepest, 1u) << seed;
    EXPECT_EQ(w.rung.back(), 0u) << seed;
    EXPECT_EQ(w.switches, 12u) << seed;  // six probes, six retreats
    std::vector<std::size_t> gaps;  // clean cycles before each probe
    std::size_t run = 0;
    for (std::size_t c = 0; c < w.rung.size(); ++c) {
      if (w.rung[c] == 0) {
        ++run;
      } else if (run > 0) {
        gaps.push_back(run);
        run = 0;
      }
    }
    ASSERT_EQ(gaps.size(), 6u) << seed;
    for (std::size_t i = 1; i < gaps.size(); ++i)
      EXPECT_GT(gaps[i], gaps[i - 1]) << seed << " probe " << i;
  }
}

// ---------------------------------------------------------------- unit
/// A guard-band-shaped ladder: one expensive clean rung (the signoff
/// operating point) and increasingly over-scaled, increasingly
/// erroneous cheap rungs. Only the clean rung may have zero BER —
/// otherwise build_triad_ladder's Pareto filter (correctly) collapses
/// the clean rungs onto the cheapest of them.
std::vector<TriadRung> pipeline_ladder(const SeqDut& seq) {
  const double cp = seq_critical_path_ns(seq, lib());
  CharacterizeConfig cfg;
  cfg.num_patterns = 200;
  cfg.engine = EngineKind::kLevelized;
  const std::vector<OperatingTriad> triads = {
      {1.2 * cp, 1.0, 0.0},
      {0.8 * cp, 0.7, 0.0},
      {0.6 * cp, 0.7, 0.0},
      {0.45 * cp, 0.5, 0.0}};
  return build_triad_ladder(
      characterize_seq_dut(seq, lib(), triads, cfg));
}

TEST(ClosedLoopUnit, DescendsLadderAndSavesEnergy) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const std::vector<TriadRung> ladder = pipeline_ladder(seq);
  ASSERT_GE(ladder.size(), 2u);
  EXPECT_DOUBLE_EQ(ladder.front().expected_ber, 0.0);
  ClosedLoopConfig cfg = fast_config();
  cfg.op_error_margin = 0.6;  // generous floor for an 8x8 multiplier
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;
  ClosedLoopSeqUnit unit(seq, lib(), ladder, cfg, sim_cfg);
  Rng rng(17);
  std::size_t deepest = 0;
  for (int c = 0; c < 2000; ++c) {
    const ClosedLoopCycleResult r =
        unit.step_cycle(rng() & 0xFF, rng() & 0xFF);
    deepest = std::max(deepest, r.rung);
  }
  EXPECT_GE(deepest, 1u);  // left the guard-banded rung
  EXPECT_GT(unit.controller().switches(), 0u);
  // Mean energy must beat pinning the safest (guard-banded) rung.
  EXPECT_LT(unit.mean_energy_fj(), ladder.front().energy_per_op_fj);
  EXPECT_EQ(unit.cycles(), 2000u);
}

TEST(ClosedLoopUnit, ZeroMarginPinsSafestRung) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const std::vector<TriadRung> ladder = pipeline_ladder(seq);
  ClosedLoopConfig cfg = fast_config();
  cfg.op_error_margin = 0.0;  // nothing tolerated, nothing gained
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;
  ClosedLoopSeqUnit unit(seq, lib(), ladder, cfg, sim_cfg);
  Rng rng(29);
  for (int c = 0; c < 500; ++c)
    unit.step_cycle(rng() & 0xFF, rng() & 0xFF);
  EXPECT_EQ(unit.controller().rung(), 0u);
  EXPECT_EQ(unit.controller().switches(), 0u);
}

TEST(ClosedLoopUnit, MeasuredRatesComeFromRazor) {
  // The controller's sensor is the active rung's own monitors: when a
  // violating rung is reached, the unit must retreat from it — the
  // measured rate, not the characterized BER, drives the loop.
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const double cp = seq_critical_path_ns(seq, lib());
  // Hand-built ladder whose cheap rung is badly broken.
  std::vector<TriadRung> ladder = {
      {{1.2 * cp, 1.0, 0.0}, 0.0, 500.0},
      {{0.3 * cp, 0.6, 0.0}, 0.0, 100.0},  // lies: claims error-free
  };
  ClosedLoopConfig cfg = fast_config();
  cfg.op_error_margin = 0.05;
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;
  ClosedLoopSeqUnit unit(seq, lib(), ladder, cfg, sim_cfg);
  Rng rng(31);
  bool reached_cheap = false;
  bool retreated = false;
  for (int c = 0; c < 1500; ++c) {
    const ClosedLoopCycleResult r =
        unit.step_cycle(rng() & 0xFF, rng() & 0xFF);
    if (r.rung == 1) reached_cheap = true;
    if (reached_cheap && r.action == SpeculationAction::kStepUp)
      retreated = true;
  }
  EXPECT_TRUE(reached_cheap);
  EXPECT_TRUE(retreated);  // Razor truth exposed the lying rung
}

// A combinational DUT runs under the loop as a one-stage pipeline. A
// forward body bias (FBB) rung at 0.8 V keeps a 1.6×CP clock
// error-free, so the loop steps down once and stays there without a
// single Razor flag, on both engines, below the energy of pinning the
// nominal rung.
TEST(ClosedLoopUnit, WrappedDutStepsToFbbRung) {
  for (const std::string spec : {"rca8", "mul4-array"}) {
    const SeqDut seq = wrap_as_pipeline(build_circuit(spec));
    const double cp = seq_critical_path_ns(seq, lib());
    const std::vector<TriadRung> ladder{
        {{cp * 1.6, 1.0, 0.0}, 0.0, 0.0},
        {{cp * 1.6, 0.8, 2.0}, 0.0, 0.0},
    };
    ClosedLoopConfig cfg;
    cfg.op_error_margin = 0.05;
    cfg.window_cycles = 64;
    cfg.min_dwell_cycles = 64;
    for (const EngineKind engine :
         {EngineKind::kEvent, EngineKind::kLevelized}) {
      SCOPED_TRACE(spec + (engine == EngineKind::kEvent ? " event"
                                                        : " levelized"));
      TimingSimConfig sim_cfg;
      sim_cfg.engine = engine;
      ClosedLoopSeqUnit unit(seq, lib(), ladder, cfg, sim_cfg);
      ClosedLoopSeqUnit nominal(seq, lib(), {ladder.front()}, cfg, sim_cfg);
      const int width = seq.operand_widths().front();
      Rng rng(48);
      std::uint64_t flags = 0;
      for (int c = 0; c < 600; ++c) {
        const std::uint64_t a = rng.bits(width);
        const std::uint64_t b = rng.bits(width);
        flags += unit.step_cycle(a, b).cycle.razor_flags;
        nominal.step_cycle(a, b);
      }
      EXPECT_EQ(unit.controller().rung(), 1u);
      EXPECT_EQ(unit.controller().switches(), 1u);
      EXPECT_EQ(flags, 0u);
      EXPECT_LT(unit.mean_energy_fj(), nominal.mean_energy_fj());
    }
  }
}

}  // namespace
}  // namespace vosim
