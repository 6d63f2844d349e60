// Clocked-simulation tests: engine step_cycle semantics, pipeline
// correctness at relaxed Tclk, cross-engine equivalence (bit-exact
// relaxed, bounded divergence over-scaled), Razor detection from
// simulator truth, energy accounting and characterize_seq_dut.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/characterize/characterizer.hpp"
#include "src/characterize/metrics.hpp"
#include "src/characterize/triads.hpp"
#include "src/netlist/dut.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/sim/sim_engine.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

/// A relaxed triad for a pipeline: every stage settles well inside the
/// cycle, so clocked operation must be functionally exact.
OperatingTriad relaxed_triad(const SeqDut& seq) {
  return {1.5 * seq_critical_path_ns(seq, lib()), 1.0, 0.0};
}

// ------------------------------------------------- engine step_cycle
TEST(StepCycle, MatchesStepWhenRelaxed) {
  // On a quiet circuit with a generous clock, step_cycle and step see
  // identical sampled/settled words on both engines.
  const DutNetlist dut = build_circuit("rca8");
  const double cp =
      1.5 * synthesize_report(dut.netlist, lib()).critical_path_ns;
  for (const EngineKind kind :
       {EngineKind::kEvent, EngineKind::kLevelized}) {
    TimingSimConfig cfg;
    cfg.engine = kind;
    const auto cycle_eng =
        make_engine(dut.netlist, lib(), {cp, 1.0, 0.0}, cfg);
    const auto step_eng =
        make_engine(dut.netlist, lib(), {cp, 1.0, 0.0}, cfg);
    const DutPinMap pins(dut);
    Rng rng(3);
    std::vector<std::uint8_t> in(dut.netlist.primary_inputs().size(), 0);
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t ops[2] = {rng() & 0xFF, rng() & 0xFF};
      std::fill(in.begin(), in.end(), 0);
      pins.fill_inputs(ops, in.data());
      const StepResult c = cycle_eng->step_cycle(in);
      const StepResult s = step_eng->step(in);
      EXPECT_EQ(c.sampled_outputs, s.sampled_outputs);
      EXPECT_EQ(c.settled_outputs, s.settled_outputs);
      EXPECT_EQ(pins.gather_output(c.sampled_outputs), ops[0] + ops[1]);
    }
  }
}

TEST(StepCycle, TruncatesAtTightClock) {
  // With the clock far below the carry chain's settle time the sampled
  // word must diverge from the settled word, on both engines, and the
  // error must persist as launch state instead of being settled away.
  const DutNetlist dut = build_circuit("rca8");
  const DutPinMap pins(dut);
  for (const EngineKind kind :
       {EngineKind::kEvent, EngineKind::kLevelized}) {
    TimingSimConfig cfg;
    cfg.engine = kind;
    const auto eng =
        make_engine(dut.netlist, lib(), {0.02, 1.0, 0.0}, cfg);
    std::vector<std::uint8_t> in(dut.netlist.primary_inputs().size(), 0);
    const std::uint64_t ops[2] = {0xFF, 0x01};  // full carry ripple
    pins.fill_inputs(ops, in.data());
    const StepResult st = eng->step_cycle(in);
    EXPECT_EQ(pins.gather_output(st.settled_outputs), 0x100u)
        << engine_kind_name(kind);
    EXPECT_NE(st.sampled_outputs, st.settled_outputs)
        << engine_kind_name(kind);
  }
}

TEST(StepCycle, EventInFlightEventsLandNextCycle) {
  // Event engine: transitions cut off by the edge stay in flight and
  // commit early in the next cycle — holding the same inputs for a few
  // cycles converges the sampled word to the settled sum.
  const DutNetlist dut = build_circuit("rca8");
  const DutPinMap pins(dut);
  TimingSimConfig cfg;  // event engine
  const auto eng = make_engine(dut.netlist, lib(), {0.06, 1.0, 0.0}, cfg);
  std::vector<std::uint8_t> in(dut.netlist.primary_inputs().size(), 0);
  const std::uint64_t ops[2] = {0xFF, 0x01};
  pins.fill_inputs(ops, in.data());
  StepResult st = eng->step_cycle(in);
  EXPECT_NE(st.sampled_outputs, st.settled_outputs);
  for (int c = 0; c < 20; ++c) st = eng->step_cycle(in);
  EXPECT_EQ(pins.gather_output(st.sampled_outputs), 0x100u);
}

// ------------------------------------------------------ pipeline sim
TEST(SeqSimTest, RelaxedPipelineIsExactAndRazorClean) {
  for (const char* spec : {"pipe2-mul8", "pipe3-mac4x8", "fir4-pipe"}) {
    const SeqDut seq = build_seq_circuit(spec);
    SeqSim sim(seq, lib(), relaxed_triad(seq));
    Rng rng(11);
    std::vector<std::uint64_t> ops(seq.num_operands());
    for (int c = 0; c < 80; ++c) {
      for (auto& o : ops) o = rng() & 0xFF;
      const SeqCycleResult r = sim.step_cycle(ops);
      EXPECT_EQ(r.razor_flags, 0u) << spec;
      EXPECT_EQ(r.output_valid, c + 1 >= (int)seq.latency_cycles());
      if (r.output_valid) {
        EXPECT_EQ(r.captured, r.expected) << spec;
      }
      EXPECT_GT(r.energy_fj, 0.0);
    }
    for (std::size_t k = 0; k < seq.num_stages(); ++k)
      EXPECT_EQ(sim.stage_monitor(k).total_flagged_ops(), 0u);
  }
}

TEST(SeqSimTest, CrossEngineBitExactAtRelaxedTclk) {
  for (const char* spec : {"pipe2-mul8", "pipe3-mac4x8"}) {
    const SeqDut seq = build_seq_circuit(spec);
    TimingSimConfig ev_cfg;
    ev_cfg.engine = EngineKind::kEvent;
    TimingSimConfig lev_cfg;
    lev_cfg.engine = EngineKind::kLevelized;
    SeqSim ev(seq, lib(), relaxed_triad(seq), ev_cfg);
    SeqSim lev(seq, lib(), relaxed_triad(seq), lev_cfg);
    Rng rng(23);
    std::vector<std::uint64_t> ops(seq.num_operands());
    for (int c = 0; c < 60; ++c) {
      for (auto& o : ops) o = rng() & 0xFF;
      const SeqCycleResult a = ev.step_cycle(ops);
      const SeqCycleResult b = lev.step_cycle(ops);
      EXPECT_EQ(a.captured, b.captured) << spec << " cycle " << c;
      EXPECT_EQ(a.razor_flags, b.razor_flags) << spec;
      EXPECT_EQ(a.expected, b.expected) << spec;
    }
  }
}

TEST(SeqSimTest, OverscaledRazorFlagsFire) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const double cp = seq_critical_path_ns(seq, lib());
  SeqSim sim(seq, lib(), {0.45 * cp, 0.7, 0.0});
  Rng rng(5);
  std::uint64_t flagged = 0;
  int mismatches = 0;
  for (int c = 0; c < 200; ++c) {
    const SeqCycleResult r =
        sim.step_cycle(rng() & 0xFF, rng() & 0xFF);
    flagged |= r.razor_flags;
    if (r.output_valid && r.captured != r.expected) ++mismatches;
  }
  EXPECT_NE(flagged, 0u);
  EXPECT_GT(mismatches, 0);
  EXPECT_GT(sim.worst_stage_op_error_rate(), 0.0);
  // Razor truth drives the monitors: some stage saw flagged ops.
  std::uint64_t monitor_flags = 0;
  for (std::size_t k = 0; k < seq.num_stages(); ++k)
    monitor_flags += sim.stage_monitor(k).total_flagged_ops();
  EXPECT_GT(monitor_flags, 0u);
  // And reset_monitor_windows clears the windowed view only.
  sim.reset_monitor_windows();
  EXPECT_DOUBLE_EQ(sim.worst_stage_op_error_rate(), 0.0);
}

TEST(SeqSimTest, WarmStartMatchesSerialRunWhenCycleSafe) {
  // At a cycle-safe capture every stage's carried state is the settled
  // function of its bank, so a run started latency_cycles() early from
  // reset() must reproduce the serial run's cycles bit for bit.
  const SeqDut seq = build_seq_circuit("pipe3-mac4x8");
  TimingSimConfig cfg;
  cfg.engine = EngineKind::kLevelized;
  cfg.variation_sigma = 0.03;
  cfg.variation_seed = 7;
  SeqSim serial(seq, lib(), relaxed_triad(seq), cfg);
  SeqSim warm(seq, lib(), relaxed_triad(seq), cfg);
  ASSERT_TRUE(serial.cycle_safe());

  const std::size_t nops = seq.num_operands();
  const std::vector<int> widths = seq.operand_widths();
  const std::size_t lat = seq.latency_cycles();
  const std::size_t b = 301;  // off the 64-cycle chunk grid
  const std::size_t e = 437;
  Rng rng(31);
  std::vector<std::uint64_t> ops(e * nops);
  for (std::size_t c = 0; c < e; ++c)
    for (std::size_t k = 0; k < nops; ++k)
      ops[c * nops + k] = rng() & mask_n(widths[k]);

  std::vector<SeqCycleResult> rs(e);
  serial.step_cycle_batch(ops, e, rs);
  const std::size_t w0 = b - lat;
  std::vector<SeqCycleResult> ws(e - w0);
  warm.step_cycle_batch({ops.data() + w0 * nops, (e - w0) * nops}, e - w0,
                        ws);
  for (std::size_t c = b; c < e; ++c) {
    const SeqCycleResult& x = rs[c];
    const SeqCycleResult& y = ws[c - w0];
    EXPECT_EQ(x.captured, y.captured) << "cycle " << c;
    EXPECT_EQ(x.expected, y.expected) << "cycle " << c;
    EXPECT_EQ(x.output_valid, y.output_valid) << "cycle " << c;
    EXPECT_EQ(x.energy_fj, y.energy_fj) << "cycle " << c;
    EXPECT_EQ(x.max_settle_ps, y.max_settle_ps) << "cycle " << c;
    EXPECT_EQ(x.razor_flags, y.razor_flags) << "cycle " << c;
  }

  // The query holds only where it is provable: never on the event
  // engine, and not once the capture drops below a stage's CP (the
  // typical-corner STA path, without the signoff margin).
  TimingSimConfig ev_cfg = cfg;
  ev_cfg.engine = EngineKind::kEvent;
  EXPECT_FALSE(SeqSim(seq, lib(), relaxed_triad(seq), ev_cfg).cycle_safe());
  double stage_cp_ps = 0.0;
  for (const SynthesisReport& r : seq_stage_reports(seq, lib()))
    stage_cp_ps = std::max(stage_cp_ps, r.tt_critical_path_ns * 1e3);
  ASSERT_TRUE(warm.retarget_capture_ps(0.8 * stage_cp_ps));
  EXPECT_FALSE(warm.cycle_safe());
  ASSERT_TRUE(warm.retarget_capture_ps(1.2 * stage_cp_ps));
  EXPECT_TRUE(warm.cycle_safe());
}

TEST(SeqSimTest, EnergyIncludesRegisterClock) {
  const SeqDut seq = build_seq_circuit("fir4-pipe");
  SeqSim sim(seq, lib(), relaxed_triad(seq));
  const double clock = sim.clock_energy_fj_per_cycle();
  EXPECT_DOUBLE_EQ(clock, seq_clock_energy_fj(seq, lib(), 1.0));
  // A cycle with zero switching still pays clock + leakage.
  const std::vector<std::uint64_t> zeros(seq.num_operands(), 0);
  sim.step_cycle(zeros);
  const SeqCycleResult r = sim.step_cycle(zeros);
  EXPECT_NEAR(r.energy_fj,
              clock + sim.leakage_energy_fj_per_cycle(), 1e-9);
}

// ------------------------------------------------- characterize_seq
TEST(CharacterizeSeq, RelaxedGridErrorFreeAndDeterministic) {
  const SeqDut seq = build_seq_circuit("fir4-pipe");
  const double cp = seq_critical_path_ns(seq, lib());
  CharacterizeConfig cfg;
  cfg.num_patterns = 300;
  cfg.engine = EngineKind::kLevelized;
  const std::vector<OperatingTriad> triads = {
      {1.5 * cp, 1.0, 0.0}, {1.0 * cp, 1.0, 0.0}, {0.5 * cp, 0.6, 0.0}};
  const auto a = characterize_seq_dut(seq, lib(), triads, cfg);
  const auto b = characterize_seq_dut(seq, lib(), triads, cfg);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].ber, 0.0);
  EXPECT_GT(a[2].ber, 0.0);  // deep over-scale must fail
  EXPECT_GT(a[0].energy_per_op_fj,
            a[0].leakage_energy_fj);  // clock energy is in there
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].ber, b[t].ber);
    EXPECT_EQ(a[t].energy_per_op_fj, b[t].energy_per_op_fj);
  }
}

/// Each triad's capture threshold on characterize_seq_dut's normalized
/// pipeline: (Tclk − t_setup) in the nominal (Vdd 1.0, Vbb 0) time base.
std::vector<double> normalized_captures(
    const std::vector<OperatingTriad>& triads) {
  const TransistorModel& tm = lib().transistor_model();
  const double setup_ns = lib().dff_setup_ps() * 1e-3;
  std::vector<double> taus;
  for (const OperatingTriad& op : triads)
    taus.push_back((op.tclk_ns - setup_ns) * 1e3 *
                   tm.delay_scale(1.0, 0.0) /
                   tm.delay_scale(op.vdd_v, op.vbb_v));
  return taus;
}

/// The normalized pipeline at capture `tau` on the sweep's die.
SeqSim normalized_sim(const SeqDut& seq, double tau,
                      const CharacterizeConfig& cfg) {
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;
  sim_cfg.variation_sigma = cfg.variation_sigma;
  sim_cfg.variation_seed = cfg.variation_seed;
  SeqSim sim(seq, lib(),
             {tau * 1e-3 + lib().dff_setup_ps() * 1e-3, 1.0, 0.0}, sim_cfg);
  EXPECT_TRUE(sim.retarget_capture_ps(tau));
  return sim;
}

/// Whether characterize_seq_dut's normalized reference run — the
/// grid's largest capture threshold on the sweep's die — is
/// cycle-safe, i.e. takes the segmented path.
bool reference_cycle_safe(const SeqDut& seq,
                          const std::vector<OperatingTriad>& triads,
                          const CharacterizeConfig& cfg) {
  const std::vector<double> taus = normalized_captures(triads);
  return normalized_sim(seq, *std::max_element(taus.begin(), taus.end()),
                        cfg)
      .cycle_safe();
}

void expect_bit_identical(const std::vector<TriadResult>& a,
                          const std::vector<TriadResult>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t t = 0; t < a.size(); ++t) {
    const std::string at = what + " @ " + triad_label(a[t].triad);
    EXPECT_EQ(a[t].triad, b[t].triad) << at;
    EXPECT_EQ(a[t].ber, b[t].ber) << at;
    EXPECT_EQ(a[t].bitwise_ber, b[t].bitwise_ber) << at;
    EXPECT_EQ(a[t].op_error_rate, b[t].op_error_rate) << at;
    EXPECT_EQ(a[t].mse, b[t].mse) << at;
    EXPECT_EQ(a[t].mred, b[t].mred) << at;
    EXPECT_EQ(a[t].energy_per_op_fj, b[t].energy_per_op_fj) << at;
    EXPECT_EQ(a[t].dynamic_energy_fj, b[t].dynamic_energy_fj) << at;
    EXPECT_EQ(a[t].leakage_energy_fj, b[t].leakage_energy_fj) << at;
    EXPECT_EQ(a[t].mean_settle_ps, b[t].mean_settle_ps) << at;
    EXPECT_EQ(a[t].patterns, b[t].patterns) << at;
  }
}

TEST(CharacterizeSeq, NormalizedSweepBitIdenticalAcrossThreadCounts) {
  // The segmented reference run and the longest-first sparse replays
  // must not let the thread count into any result: the full grid's
  // reference is cycle-safe and splits into segments, the deep grid's
  // is not and runs serially — both bit-identical at 1, 2 and 4
  // threads. The deep grid runs once more with the saturation probe
  // off, so every replay takes the full-budget fallback.
  for (const char* spec : {"pipe2-mul8", "pipe3-mac4x8", "fir4-pipe"}) {
    const SeqDut seq = build_seq_circuit(spec);
    const double cp = seq_critical_path_ns(seq, lib());
    CharacterizeConfig cfg;
    cfg.num_patterns = 2000;
    cfg.engine = EngineKind::kLevelized;
    const std::vector<OperatingTriad> full = make_dut_triads(cp);
    // Deep enough that the reference run itself latches errors, so a
    // warm-started segment would not reach the serial state.
    const std::vector<OperatingTriad> deep = {
        {0.6 * cp, 0.7, 0.0}, {0.55 * cp, 0.7, 0.0},
        {0.5 * cp, 0.6, 0.0}, {0.45 * cp, 0.6, 0.0},
        {0.4 * cp, 0.5, 2.0}};
    EXPECT_TRUE(reference_cycle_safe(seq, full, cfg)) << spec;
    EXPECT_FALSE(reference_cycle_safe(seq, deep, cfg)) << spec;
    for (const auto& [grid, name, saturation] :
         {std::tuple{&full, " full", 0.25}, std::tuple{&deep, " deep", 0.25},
          std::tuple{&deep, " deep probe-off", 2.0}}) {
      cfg.seq_saturation_threshold = saturation;
      cfg.threads = 1;
      const auto one = characterize_seq_dut(seq, lib(), *grid, cfg);
      for (const unsigned threads : {2u, 4u}) {
        cfg.threads = threads;
        expect_bit_identical(
            one, characterize_seq_dut(seq, lib(), *grid, cfg),
            std::string(spec) + name + " threads=" + std::to_string(threads));
      }
    }
  }
}

void expect_same_cycle(const SeqCycleResult& x, const SeqCycleResult& y,
                       const std::string& at) {
  EXPECT_EQ(x.captured, y.captured) << at;
  EXPECT_EQ(x.expected, y.expected) << at;
  EXPECT_EQ(x.output_valid, y.output_valid) << at;
  EXPECT_EQ(x.energy_fj, y.energy_fj) << at;
  EXPECT_EQ(x.max_settle_ps, y.max_settle_ps) << at;
  EXPECT_EQ(x.razor_flags, y.razor_flags) << at;
  EXPECT_EQ(x.settled, y.settled) << at;
}

/// `cycles` cycles of random operands, cycle-major.
std::vector<std::uint64_t> random_stream(const SeqDut& seq,
                                         std::size_t cycles,
                                         std::uint64_t seed) {
  const std::size_t nops = seq.num_operands();
  const std::vector<int> widths = seq.operand_widths();
  Rng rng(seed);
  std::vector<std::uint64_t> ops(cycles * nops);
  for (std::size_t c = 0; c < cycles; ++c)
    for (std::size_t k = 0; k < nops; ++k)
      ops[c * nops + k] = rng() & mask_n(widths[k]);
  return ops;
}

/// Sparse replays against a reference run at `ref_tau` must equal a
/// serial step_cycle_batch over every cycle, field for field, at every
/// capture in `taus` below the reference — from reset and resumed
/// after a stepped prefix. Returns {cycles stepped,
/// full budget} summed over the captures whose serial op-error rate
/// stays under the sweep's saturation threshold (the onset band).
std::pair<std::size_t, std::size_t> expect_sparse_matches_serial(
    const SeqDut& seq, std::span<const std::uint64_t> ops,
    std::size_t cycles, double ref_tau, std::vector<double> taus,
    const std::string& what) {
  const CharacterizeConfig cfg;
  SeqSim ref_sim = normalized_sim(seq, ref_tau, cfg);
  std::vector<SeqCycleResult> ref_rs(cycles);
  std::vector<double> ref_win(cycles * seq.num_stages());
  ref_sim.step_cycle_batch(ops, cycles, ref_rs, ref_win);
  const SeqReference ref{ref_tau, ref_rs, ref_win};

  SeqSim serial = normalized_sim(seq, ref_tau, cfg);
  SeqSim sparse = normalized_sim(seq, ref_tau, cfg);
  std::sort(taus.begin(), taus.end());
  taus.erase(std::unique(taus.begin(), taus.end()), taus.end());
  std::vector<SeqCycleResult> want(cycles);
  std::vector<SeqCycleResult> got(cycles);
  std::size_t onset_stepped = 0;
  std::size_t onset_budget = 0;
  for (const double tau : taus) {
    if (tau >= ref_tau) continue;
    const std::string at = what + " @ " + std::to_string(tau) + " ps";
    serial.reset();
    EXPECT_TRUE(serial.retarget_capture_ps(tau));
    serial.step_cycle_batch(ops, cycles, want);
    const SparseReplayStats stats =
        sparse.replay_sparse(ops, cycles, ref, tau, got);
    for (std::size_t c = 0; c < cycles; ++c)
      expect_same_cycle(want[c], got[c], at + " cycle " + std::to_string(c));
    ErrorAccumulator acc(seq.output_width());
    for (const SeqCycleResult& r : want)
      if (r.output_valid) acc.add(r.expected, r.captured);
    if (acc.op_error_rate() >= cfg.seq_saturation_threshold) continue;
    onset_stepped += stats.simulated;
    onset_budget += cycles;
    // In the onset band the characterizer resumes after its 64-cycle
    // saturation probe.
    sparse.reset();
    EXPECT_TRUE(sparse.retarget_capture_ps(tau));
    sparse.step_cycle_batch(ops.first(64 * seq.num_operands()), 64, got);
    sparse.replay_sparse(ops, cycles, ref, tau, got, 64);
    for (std::size_t c = 0; c < cycles; ++c)
      expect_same_cycle(want[c], got[c],
                        at + " resumed, cycle " + std::to_string(c));
  }
  return {onset_stepped, onset_budget};
}

TEST(SeqSimTest, SparseReplayMatchesSerialReplay) {
  // replay_sparse copies every cycle the reference run shares with the
  // replay and steps only the rest; the result must not show which.
  // Every grid capture below the full grid's (cycle-safe) reference is
  // covered, and on pipe3-mac4x8 the onset captures must step fewer
  // cycles than the full budget.
  const CharacterizeConfig cfg;
  for (const char* spec : {"pipe2-mul8", "pipe3-mac4x8", "fir4-pipe"}) {
    const SeqDut seq = build_seq_circuit(spec);
    const std::vector<double> taus = normalized_captures(
        make_dut_triads(seq_critical_path_ns(seq, lib())));
    const double ref_tau = *std::max_element(taus.begin(), taus.end());
    ASSERT_TRUE(normalized_sim(seq, ref_tau, cfg).cycle_safe()) << spec;
    const std::size_t cycles = 2000 + seq.latency_cycles() - 1;
    const auto [stepped, budget] = expect_sparse_matches_serial(
        seq, random_stream(seq, cycles, 41), cycles, ref_tau, taus, spec);
    if (std::string(spec) == "pipe3-mac4x8") {
      EXPECT_GT(budget, 0u);
      EXPECT_LT(stepped, budget);
    }
  }

  // Below a reference that is not cycle-safe nothing may be copied: its
  // state need not be the stream's settled function, so neither a warm
  // start nor a settled stretch is sure to reach it. The reference here
  // is fir4-pipe's largest grid capture that is not cycle-safe, where
  // copying regardless gets cycles wrong.
  const SeqDut seq = build_seq_circuit("fir4-pipe");
  std::vector<double> taus = normalized_captures(
      make_dut_triads(seq_critical_path_ns(seq, lib())));
  std::sort(taus.rbegin(), taus.rend());
  std::size_t r = 0;
  while (r < taus.size() && normalized_sim(seq, taus[r], cfg).cycle_safe())
    ++r;
  ASSERT_LT(r, taus.size());
  const std::size_t cycles = 2000;
  expect_sparse_matches_serial(seq, random_stream(seq, cycles, 43), cycles,
                               taus[r], taus, "fir4-pipe unsafe reference");
}

TEST(CharacterizeSeq, CrossEngineWithinTwoPointsOnOverscaledGrid) {
  // The acceptance gate: event vs levelized step_cycle BER within 2pp
  // over the over-scaled grid, judged in the error-onset band (event
  // BER <= 2% — the regime an application quality floor can accept).
  // Past the knee the pipeline is saturated-broken, cross-cycle error
  // feedback is chaotic, and the levelized backend over-predicts
  // (conservative for the controller); DESIGN.md §10.
  for (const char* spec : {"pipe2-mul8", "pipe3-mac4x8"}) {
    const SeqDut seq = build_seq_circuit(spec);
    const double cp = seq_critical_path_ns(seq, lib());
    CharacterizeConfig ev;
    ev.num_patterns = 250;
    ev.engine = EngineKind::kEvent;
    CharacterizeConfig lev = ev;
    lev.engine = EngineKind::kLevelized;
    const std::vector<OperatingTriad> triads = {
        {1.0 * cp, 1.0, 0.0}, {0.8 * cp, 1.0, 0.0},
        {0.6 * cp, 1.0, 0.0}, {0.8 * cp, 0.9, 2.0},
        {0.6 * cp, 0.8, 2.0}, {0.5 * cp, 0.7, 0.0},
        {0.4 * cp, 0.6, 0.0}};
    const auto re = characterize_seq_dut(seq, lib(), triads, ev);
    const auto rl = characterize_seq_dut(seq, lib(), triads, lev);
    int onset_points = 0;
    for (std::size_t t = 0; t < triads.size(); ++t) {
      if (re[t].ber > 0.02) continue;  // saturated-broken regime
      ++onset_points;
      EXPECT_NEAR(re[t].ber, rl[t].ber, 0.02)
          << spec << " @ " << triad_label(triads[t]);
    }
    // The band must actually cover most of the grid, including at
    // least the mild over-scaled points.
    EXPECT_GE(onset_points, 5) << spec;
    // Relaxed rung: bit-exact zero on both engines.
    EXPECT_DOUBLE_EQ(re[0].ber, 0.0);
    EXPECT_DOUBLE_EQ(rl[0].ber, 0.0);
  }
}

}  // namespace
}  // namespace vosim
