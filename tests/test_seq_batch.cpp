// Chunking invariance of the clocked path: step_cycle is a
// step_cycle_batch of one cycle, and one step_cycle_batch over a stream
// must be bit-exact against a step_cycle loop — sampled and expected
// output words, per-cycle energy (same floating-point accumulation
// order), Razor flag words and the stage monitors' lifetime/window
// statistics — on every registry pipeline, on both engines, across the
// error-onset band, including operation counts that do not fill a whole
// 64-cycle lane word. The expected words are checked against the
// independent pipeline reference seq_settled_output, and on the event
// engine a tracing simulator must step the same cycles and record the
// same traces whichever way the stream is split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/runtime/closed_loop.hpp"
#include "src/runtime/error_monitor.hpp"
#include "src/runtime/triad_ladder.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_report.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/tech/library.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() {
  static const CellLibrary& l = make_fdsoi28_lvt();
  return l;
}

std::vector<std::uint64_t> random_operands(const SeqDut& seq,
                                           std::size_t cycles,
                                           std::uint64_t seed) {
  const std::size_t nops = seq.num_operands();
  std::vector<std::uint64_t> ops(cycles * nops);
  Rng rng(seed);
  for (std::size_t c = 0; c < cycles; ++c)
    for (std::size_t o = 0; o < nops; ++o)
      ops[c * nops + o] = rng.bits(seq.operand_width(o));
  return ops;
}

void expect_same_cycles(std::span<const SeqCycleResult> want,
                        std::span<const SeqCycleResult> got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(want[c].output_valid, got[c].output_valid) << c;
    ASSERT_EQ(want[c].captured, got[c].captured) << c;
    ASSERT_EQ(want[c].expected, got[c].expected) << c;
    ASSERT_EQ(want[c].razor_flags, got[c].razor_flags) << c;
    ASSERT_EQ(want[c].settled, got[c].settled) << c;
    ASSERT_DOUBLE_EQ(want[c].energy_fj, got[c].energy_fj) << c;
    ASSERT_DOUBLE_EQ(want[c].max_settle_ps, got[c].max_settle_ps) << c;
  }
}

void expect_same_traces(std::span<const SeqCycleTrace> want,
                        std::span<const SeqCycleTrace> got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(want[c].bank_words, got[c].bank_words) << c;
    ASSERT_EQ(want[c].stage_initial, got[c].stage_initial) << c;
    ASSERT_EQ(want[c].stage_events.size(), got[c].stage_events.size());
    for (std::size_t k = 0; k < want[c].stage_events.size(); ++k) {
      const auto& we = want[c].stage_events[k];
      const auto& ge = got[c].stage_events[k];
      ASSERT_EQ(we.size(), ge.size()) << c << " stage " << k;
      for (std::size_t i = 0; i < we.size(); ++i) {
        ASSERT_EQ(we[i].time_ps, ge[i].time_ps) << c << " " << k;
        ASSERT_EQ(we[i].net, ge[i].net) << c << " " << k;
        ASSERT_EQ(we[i].value, ge[i].value) << c << " " << k;
      }
    }
  }
}

/// Runs `cycles` step_cycle calls and one step_cycle_batch over the
/// same operand stream on two identically-configured simulators and
/// asserts every per-cycle field and every stage monitor statistic
/// matches exactly, and every expected word is the pipeline's settled
/// function of the operands latency_cycles()-1 cycles back. On the
/// event engine, two tracing simulators repeat both runs: their cycles
/// must equal the untraced ones and their traces each other.
void expect_batch_matches_scalar(const SeqDut& seq,
                                 const OperatingTriad& op,
                                 EngineKind engine, std::size_t cycles,
                                 std::uint64_t seed) {
  TimingSimConfig cfg;
  cfg.engine = engine;
  SeqSim scalar(seq, lib(), op, cfg);
  SeqSim batched(seq, lib(), op, cfg);
  const std::size_t nops = seq.num_operands();
  const std::vector<std::uint64_t> ops =
      random_operands(seq, cycles, seed);

  std::vector<SeqCycleResult> want(cycles);
  for (std::size_t c = 0; c < cycles; ++c)
    want[c] = scalar.step_cycle(
        std::span<const std::uint64_t>(ops.data() + c * nops, nops));

  std::vector<SeqCycleResult> got(cycles);
  batched.step_cycle_batch(ops, cycles, got);

  expect_same_cycles(want, got);
  const std::size_t lat = seq.latency_cycles();
  for (std::size_t c = 0; c < cycles; ++c) {
    ASSERT_EQ(got[c].output_valid, c + 1 >= lat) << c;
    if (!got[c].output_valid) continue;
    const std::size_t launched = c + 1 - lat;
    ASSERT_EQ(got[c].expected,
              seq_settled_output(seq, std::span<const std::uint64_t>(
                                          ops.data() + launched * nops,
                                          nops)))
        << c;
  }
  for (std::size_t k = 0; k < seq.num_stages(); ++k) {
    const DoubleSamplingMonitor& ms = scalar.stage_monitor(k);
    const DoubleSamplingMonitor& mb = batched.stage_monitor(k);
    EXPECT_EQ(ms.total_ops(), mb.total_ops()) << k;
    EXPECT_EQ(ms.total_flagged_ops(), mb.total_flagged_ops()) << k;
    EXPECT_EQ(ms.window_fill(), mb.window_fill()) << k;
    EXPECT_DOUBLE_EQ(ms.window_op_error_rate(),
                     mb.window_op_error_rate())
        << k;
  }

  if (engine != EngineKind::kEvent) return;
  cfg.record_trace = true;
  SeqSim traced_scalar(seq, lib(), op, cfg);
  SeqSim traced_batched(seq, lib(), op, cfg);
  std::vector<SeqCycleResult> traced(cycles);
  for (std::size_t c = 0; c < cycles; ++c)
    traced[c] = traced_scalar.step_cycle(
        std::span<const std::uint64_t>(ops.data() + c * nops, nops));
  expect_same_cycles(got, traced);
  traced_batched.step_cycle_batch(ops, cycles, traced);
  expect_same_cycles(got, traced);
  ASSERT_EQ(traced_batched.cycle_traces().size(), cycles);
  expect_same_traces(traced_scalar.cycle_traces(),
                     traced_batched.cycle_traces());

  // Bank words, input first: the external operands packed LSB-first;
  // bank k, stage k-1's capture one cycle back, which on a Razor-clean
  // run is the settled output of the first k stages on the operands
  // launched k cycles back; last, the captured word.
  const bool clean =
      std::all_of(got.begin(), got.end(),
                  [](const SeqCycleResult& r) { return r.razor_flags == 0; });
  const std::vector<int> widths = seq.operand_widths();
  std::vector<SeqDut> prefix(seq.num_stages(), seq);  // first k stages
  for (std::size_t k = 0; k < prefix.size(); ++k) prefix[k].stages.resize(k);
  for (std::size_t c = 0; c < cycles; ++c) {
    const auto& banks = traced_batched.cycle_traces()[c].bank_words;
    ASSERT_EQ(banks.size(), seq.num_stages() + 1) << c;
    EXPECT_EQ(banks.back(), got[c].captured) << c;
    std::uint64_t in = 0;
    int shift = 0;
    for (std::size_t o = 0; o < nops; ++o) {
      in |= ops[c * nops + o] << shift;
      shift += widths[o];
    }
    EXPECT_EQ(banks[0], in) << c;
    for (std::size_t k = 1; clean && k < seq.num_stages() && k <= c; ++k)
      EXPECT_EQ(banks[k], seq_settled_output(
                              prefix[k], std::span<const std::uint64_t>(
                                             ops.data() + (c - k) * nops,
                                             nops)))
          << c << " bank " << k;
  }
}

// Every registry pipeline, both engines, over the error-onset band
// (relaxed, at the knee, and past it) with a 130-cycle stream — two
// full lane words plus a ragged 2-lane tail.
TEST(SeqBatch, MatchesScalarAcrossRegistryEnginesAndOnsetBand) {
  for (const std::string& spec : seq_circuit_registry()) {
    const SeqDut seq = build_seq_circuit(spec);
    const double cp = seq_critical_path_ns(seq, lib());
    const std::vector<OperatingTriad> band = {
        {1.1 * cp, 1.0, 0.0},   // error-free
        {0.85 * cp, 1.0, 0.0},  // onset knee
        {0.6 * cp, 0.9, 0.0},   // saturated over-scale
    };
    for (const EngineKind engine :
         {EngineKind::kEvent, EngineKind::kLevelized}) {
      for (const OperatingTriad& op : band) {
        SCOPED_TRACE(spec);
        expect_batch_matches_scalar(seq, op, engine, 130, 99);
      }
    }
  }
}

// Ragged lane-word boundaries: a single cycle, one lane short of a
// word, exactly one word, one lane over, and a two-word ragged tail
// must all agree with one-cycle steps.
TEST(SeqBatch, RaggedCountsMatchScalar) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const double cp = seq_critical_path_ns(seq, lib());
  const OperatingTriad op{0.8 * cp, 1.0, 0.0};
  for (const std::size_t cycles : {std::size_t{1}, std::size_t{63},
                                   std::size_t{64}, std::size_t{65},
                                   std::size_t{130}})
    expect_batch_matches_scalar(seq, op, EngineKind::kLevelized, cycles,
                                7 + cycles);
}

// The monitor's word ingest is the batched path's contract:
// record_word(sampled ^ settled) flags an operation exactly when a bit
// of the compared width differs, with sliding-window semantics.
TEST(SeqBatch, RecordWordCountsFlaggedOps) {
  const std::size_t window = 8;
  DoubleSamplingMonitor mon(16, window);
  std::deque<bool> want_window;
  std::uint64_t want_flagged = 0;
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t sampled = rng.bits(16);
    // Bias towards agreement so flagged and clean ops both occur.
    const std::uint64_t settled =
        (i % 3 == 0) ? sampled ^ rng.bits(4) : sampled;
    // Bits above the compared width never flag.
    mon.record_word((sampled ^ settled) | (rng.bits(8) << 16));
    const bool flagged = sampled != settled;
    want_flagged += flagged;
    want_window.push_back(flagged);
    if (want_window.size() > window) want_window.pop_front();
    const auto in_window =
        std::count(want_window.begin(), want_window.end(), true);
    ASSERT_EQ(mon.total_ops(), static_cast<std::uint64_t>(i + 1));
    ASSERT_EQ(mon.total_flagged_ops(), want_flagged);
    ASSERT_DOUBLE_EQ(mon.window_op_error_rate(),
                     static_cast<double>(in_window) /
                         static_cast<double>(want_window.size()));
    ASSERT_EQ(mon.window_fill(), want_window.size());
  }
}

// The closed-loop unit's run_batch must replay the one-cycle-step
// (step_cycle) control trajectory exactly: same rung at every cycle,
// same captured words, same switch count, same accumulated energy.
TEST(SeqBatch, ClosedLoopRunBatchMatchesScalar) {
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const double cp = seq_critical_path_ns(seq, lib());
  // Hand-built ladder — no characterization needed for equivalence.
  const std::vector<TriadRung> ladder = {
      {{1.1 * cp, 1.0, 0.0}, 0.0, 100.0},
      {{0.85 * cp, 1.0, 0.0}, 0.005, 70.0},
      {{0.7 * cp, 0.95, 0.0}, 0.05, 50.0},
  };
  ClosedLoopConfig cfg;
  cfg.window_cycles = 48;
  cfg.min_dwell_cycles = 48;
  cfg.op_error_margin = 0.1;
  TimingSimConfig sim_cfg;
  sim_cfg.engine = EngineKind::kLevelized;

  const std::size_t cycles = 700;  // several windows, ragged tail
  const std::vector<std::uint64_t> ops =
      random_operands(seq, cycles, 2024);

  ClosedLoopSeqUnit scalar(seq, lib(), ladder, cfg, sim_cfg);
  std::vector<ClosedLoopCycleResult> want(cycles);
  const std::size_t nops = seq.num_operands();
  for (std::size_t c = 0; c < cycles; ++c)
    want[c] = scalar.step_cycle(
        std::span<const std::uint64_t>(ops.data() + c * nops, nops));

  ClosedLoopSeqUnit batched(seq, lib(), ladder, cfg, sim_cfg);
  std::vector<ClosedLoopCycleResult> got(cycles);
  batched.run_batch(ops, cycles, got);

  for (std::size_t c = 0; c < cycles; ++c) {
    ASSERT_EQ(want[c].rung, got[c].rung) << c;
    ASSERT_EQ(want[c].cycle.captured, got[c].cycle.captured) << c;
    ASSERT_EQ(want[c].cycle.razor_flags, got[c].cycle.razor_flags) << c;
    ASSERT_DOUBLE_EQ(want[c].cycle.energy_fj, got[c].cycle.energy_fj)
        << c;
  }
  EXPECT_EQ(scalar.controller().switches(), batched.controller().switches());
  EXPECT_DOUBLE_EQ(scalar.mean_energy_fj(), batched.mean_energy_fj());
}

}  // namespace
}  // namespace vosim
