// Clocked simulation of a SeqDut: one SimEngine per stage, explicit
// register banks, per-flop setup margin, per-cycle clock/latch energy
// and in-simulator Razor detection.
//
// Every clock cycle (step_cycle is step_cycle_batch over one cycle):
//   1. Launch edge — the register banks latch simultaneously: the input
//      bank takes the new external operands, bank k takes stage k-1's
//      output as sampled at the previous capture edge (errors included).
//   2. Each stage propagates its newly latched operands for one clock
//      period on its engine's step_cycle path, so transitions that miss
//      the capture edge latch wrong values and carry into later cycles.
//   3. Capture edge — each stage is sampled at Tclk − t_setup (per-flop
//      setup check); the shadow sample is the stage's functional settled
//      value, and every (main, shadow) pair feeds that stage's
//      DoubleSamplingMonitor — Razor flags from simulator truth, not
//      synthetic injection (paper [17], Kaul et al.).
//
// Per-cycle energy = Σ stage window dynamic energy + Σ stage leakage +
// register clock/latch energy (num_flops × dff_clock_energy × Vdd²).
#ifndef VOSIM_SEQ_SEQ_SIM_HPP
#define VOSIM_SEQ_SEQ_SIM_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "src/obs/probe.hpp"
#include "src/runtime/error_monitor.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/sim/sim_engine.hpp"

namespace vosim {

/// Outcome of one pipeline clock cycle.
struct SeqCycleResult {
  /// Output-register value latched at this cycle's capture edge.
  std::uint64_t captured = 0;
  /// Golden (zero-delay) pipeline output aligned with `captured` —
  /// the result the operands applied latency_cycles()-1 calls ago
  /// should have produced. Only meaningful once `output_valid`.
  std::uint64_t expected = 0;
  /// False during pipeline fill (the first latency_cycles()-1 cycles).
  bool output_valid = false;
  /// Window dynamic + leakage + register clock/latch energy (fJ).
  double energy_fj = 0.0;
  /// Worst stage settle estimate this cycle (ps).
  double max_settle_ps = 0.0;
  /// Bit k set: stage k's Razor shadow disagreed with its main sample
  /// this cycle (a local timing error, not an inherited one).
  std::uint32_t razor_flags = 0;
  /// Every net of every stage ended this cycle at its settled value
  /// (SimEngine::settled_lanes; always false on the event engine): the
  /// carried state is then the settled function of this cycle's banks.
  bool settled = false;
};

/// An error-free run a sparse replay copies from: every cycle of one
/// stream stepped from reset() at a capture threshold, with each
/// stage's per-cycle window energy. Copying is sound only when that
/// threshold is cycle-safe; SeqSim::replay_piece checks it.
struct SeqReference {
  double capture_ps = 0.0;                ///< the run's capture threshold
  std::span<const SeqCycleResult> cycles;  ///< one per stream cycle
  /// cycles × num_stages() window energies (fJ), cycle-major.
  std::span<const double> stage_window_fj;
};

/// What one sparse replay stepped.
struct SparseReplayStats {
  std::size_t simulated = 0;  ///< cycles stepped, warm starts included
  std::size_t stretches = 0;  ///< dirty stretches entered from sync
};

/// Per-cycle event traces for multi-cycle VCD export (event engine with
/// record_trace only).
struct SeqCycleTrace {
  std::vector<std::vector<TraceEvent>> stage_events;        ///< per stage
  std::vector<std::vector<std::uint8_t>> stage_initial;     ///< per stage
  std::vector<std::uint64_t> bank_words;  ///< latched banks, input first
};

/// Streams clocked operations through a pipelined DUT at one operating
/// triad. All register banks start at the all-zero settled state.
class SeqSim {
 public:
  /// The SeqDut must outlive the simulator. `config.engine` selects the
  /// backend for every stage; `config.record_trace` (event engine only)
  /// accumulates per-cycle traces for write_seq_vcd.
  /// `monitor_window` sizes each stage's Razor monitor window.
  SeqSim(const SeqDut& seq, const CellLibrary& lib,
         const OperatingTriad& op, const TimingSimConfig& config = {},
         std::size_t monitor_window = 256);

  /// Re-settles every stage and bank to the all-zero state; clears the
  /// golden queue and trace accumulator (monitors keep lifetime counts,
  /// windows are reset).
  void reset();

  /// One clock cycle: operands.size() must equal num_operands() and
  /// operand k must fit operand_width(k) bits. A step_cycle_batch of
  /// one cycle.
  SeqCycleResult step_cycle(std::span<const std::uint64_t> operands);
  /// Two-operand convenience.
  SeqCycleResult step_cycle(std::uint64_t a, std::uint64_t b);

  /// Batched clocked stepping, the one composition of a cycle: cycle
  /// c's operands occupy operands[c*num_operands(), (c+1)*num_operands())
  /// and its outcome lands in results[c]. Bit-exact with `count`
  /// sequential step_cycle() calls — captured/expected words, per-cycle
  /// energy (same floating-point accumulation order) and Razor monitor
  /// statistics are all identical, whatever the split into calls. Each
  /// stage engine runs its native step_cycle_batch (64 cycles per
  /// levelized pass; the register banks between stages become packed
  /// lane words shifted by one cycle) and the golden pipeline is
  /// evaluated lane-parallel. Tracing simulators step chunks of one
  /// cycle and take each stage's trace after its engine call. A non-empty
  /// `stage_window_fj` (count × num_stages(), cycle-major) receives
  /// each stage's window energy per cycle — the terms cycle_energy_fj
  /// composed into results[c].energy_fj.
  void step_cycle_batch(std::span<const std::uint64_t> operands,
                        std::size_t count,
                        std::span<SeqCycleResult> results,
                        std::span<double> stage_window_fj = {});

  /// One cycle's energy from its per-stage window energies (fJ):
  /// clock + Σ_k (window_k + stage k's leakage at the current capture),
  /// in stage order — the one expression step_cycle and
  /// step_cycle_batch use, so a recomposed cycle is bit-identical.
  double cycle_energy_fj(std::span<const double> stage_window_fj) const;

  /// reset(), then steps the min(b, latency_cycles()) cycles of the
  /// stream `operands` that precede cycle b (results discarded). At a
  /// cycle-safe capture this reaches exactly the state — carried
  /// values and golden queue — a run from cycle 0 has at cycle b (see
  /// cycle_safe), so stepping on from cycle b is bit-identical to it.
  void warm_start(std::span<const std::uint64_t> operands, std::size_t b);

  /// Replays cycles [first, first + results.size()) of the stream
  /// `operands` at `capture_ps` into results (results[i] is cycle
  /// first + i), started in sync with `ref`, a run of the same stream
  /// at a larger threshold, at cycle `first`. From first = 0 this is
  /// bit-identical to reset(), retarget_capture_ps(capture_ps) and
  /// step_cycle_batch over the same cycles, but steps only the cycles
  /// it cannot copy from `ref`:
  ///   - Copy: while the replay is in the reference state, cycle c is
  ///     the reference's cycle exactly when its max_settle_ps is below
  ///     capture_ps (commit times do not depend on the threshold, so
  ///     every commit lands in the window). Its result is copied and
  ///     its energy recomposed with cycle_energy_fj at capture_ps.
  ///   - Dirty stretch: any other cycle c is stepped, after a
  ///     warm_start at the reference threshold and a mid-stream
  ///     retarget to capture_ps, in chunks of latency_cycles() + 1
  ///     cycles doubling up to 64.
  ///   - Resync: after latency_cycles() consecutive `settled` stepped
  ///     cycles every stage's state and bank is the reference's again.
  ///     Commit times alone do not suffice: a truncated net can stay
  ///     wrong with no commit left to fix it. The stretch ends there
  ///     when a run of at least 16 copyable cycles follows; a shorter
  ///     gap is cheaper to step through than to re-enter.
  /// Copying needs the reference state to be a function of the
  /// stream alone, so it happens only when ref.capture_ps is
  /// cycle-safe; otherwise every cycle is stepped, and the piece must
  /// start at cycle 0. A piece from a later cycle — the state a replay
  /// is in at cycle 0 and at every resync point — is the serial
  /// replay's wherever that replay is in the reference state at
  /// `first`; SparseReplayStitch mends it where it is not. Levelized
  /// stages only. Monitors and cycles() see the stepped cycles only.
  SparseReplayStats replay_piece(std::span<const std::uint64_t> operands,
                                 const SeqReference& ref, double capture_ps,
                                 std::size_t first,
                                 std::span<SeqCycleResult> results);

  const SeqDut& seq() const noexcept { return seq_; }
  std::size_t num_stages() const noexcept { return engines_.size(); }
  std::size_t num_operands() const noexcept { return seq_.num_operands(); }
  int output_width() const noexcept { return seq_.output_width(); }
  std::size_t latency_cycles() const noexcept {
    return seq_.latency_cycles();
  }
  const OperatingTriad& triad() const noexcept { return op_; }
  EngineKind engine_kind() const noexcept { return engines_[0]->kind(); }
  std::uint64_t cycles() const noexcept { return cycles_; }

  /// Stage k's engine — for attaching per-stage SimObservers (e.g. an
  /// ErrorProvenance per stage). Observers attached here see every
  /// cycle: the stage engines step only through their own
  /// step_cycle_batch dispatch sites.
  SimEngine& stage_engine(std::size_t k) { return *engines_.at(k); }
  const SimEngine& stage_engine(std::size_t k) const {
    return *engines_.at(k);
  }

  /// Register clock/latch energy charged every cycle (fJ).
  double clock_energy_fj_per_cycle() const noexcept {
    return clock_energy_fj_;
  }
  /// Σ stage leakage per cycle (fJ), integrated over the full Tclk —
  /// the stage engines run on the capture period (Tclk − setup), so
  /// their per-op leakage is rescaled by Tclk / (Tclk − setup).
  double leakage_energy_fj_per_cycle() const noexcept;
  /// The period the stage engines actually propagate and rebase on:
  /// Tclk − t_setup (ps). Launch and capture edges coincide there —
  /// the setup window is borrowed from the next cycle's propagation,
  /// a deliberate simplification (DESIGN.md §10); the multi-cycle VCD
  /// spaces cycles by this period so event times stay aligned.
  double capture_period_ps() const noexcept { return capture_tclk_ps_; }

  /// Moves every stage engine's capture threshold to `capture_ps` on
  /// the same die (SimEngine::retarget_tclk_ps) and refreshes the
  /// hoisted per-stage leakage. Returns false — and changes nothing —
  /// unless every stage runs the levelized backend. This is the
  /// characterizer's normalized-grid tool: Vdd/Vbb move as one common
  /// delay-scale factor, so a whole triad ladder replays on one
  /// normalized pipeline by sliding the threshold (energies rescaled
  /// by the caller); triad() keeps reporting the constructed triad.
  /// Carried state is kept, so a retarget may fall between two cycles
  /// of one stream (replay_piece warm-starts that way); the next
  /// cycle launches from the current state at the new threshold.
  bool retarget_capture_ps(double capture_ps);

  /// True when every stage engine is cycle_safe() at the current
  /// capture threshold. Each stage's carried state after a cycle is
  /// then the settled function of that cycle's bank, and stage k's
  /// bank at cycle c depends only on cycle c − k's operands — so a run
  /// that starts latency_cycles() cycles before cycle b from reset()
  /// reaches the state (and golden queue) a run from cycle 0 has at b,
  /// and every cycle from b on is bit-identical to that run's. The
  /// characterizer's reference pieces rest on this.
  bool cycle_safe() const;

  /// Stage k's Razor monitor (shadow-vs-main statistics from the
  /// simulator, the closed-loop controller's sensor).
  const DoubleSamplingMonitor& stage_monitor(std::size_t k) const {
    return monitors_.at(k);
  }
  /// Stage k's flagged-operation rate over the monitor window.
  double stage_op_error_rate(std::size_t k) const {
    return monitors_.at(k).window_op_error_rate();
  }
  /// Highest windowed flagged-op rate across stages — the signal the
  /// closed-loop controller regulates.
  double worst_stage_op_error_rate() const;
  /// Clears every stage monitor's window (after a triad switch).
  void reset_monitor_windows();

  /// Per-cycle traces accumulated since the last reset/clear (event
  /// engine with record_trace; empty otherwise).
  std::span<const SeqCycleTrace> cycle_traces() const noexcept {
    return traces_;
  }
  void clear_traces() { traces_.clear(); }

 private:
  /// Lane-parallel golden: out[c] = seq_settled_output(cycle c's
  /// operands) for up to lanes::kWordLanes cycles, one packed
  /// evaluate_logic pass per stage on the cached pin maps.
  void golden_output_batch(std::span<const std::uint64_t> operands,
                           std::size_t count, std::uint64_t* out);

  const SeqDut& seq_;
  OperatingTriad op_;
  double capture_tclk_ps_ = 0.0;
  double leakage_scale_ = 1.0;  ///< Tclk / (Tclk − setup)
  bool tracing_ = false;
  double clock_energy_fj_ = 0.0;
  std::vector<DutPinMap> pins_;
  /// Stage k's PI slot for every bit of its packed register-bank word
  /// (operand buses concatenated in split_bank_word order): the cycle
  /// composition scatters bank bits straight into engine input buffers
  /// with no per-cycle split_bank_word/fill_inputs round-trip (k >= 1;
  /// stage 0 is fed from the separate external operand words).
  std::vector<std::vector<std::size_t>> bank_slot_;
  /// Net feeding output-bus bit i of stage k (primary-output order
  /// resolved through the pin map), for lane-word golden gathers.
  std::vector<std::vector<NetId>> stage_po_net_;
  /// Per-stage leakage × Tclk/(Tclk−setup), hoisted out of the cycle
  /// loop; retarget_capture_ps refreshes it.
  std::vector<double> stage_leak_fj_;
  std::vector<std::unique_ptr<SimEngine>> engines_;
  /// Last capture, per stage: stage k+1's bank at the next launch edge.
  std::vector<std::uint64_t> stage_sampled_;
  std::vector<DoubleSamplingMonitor> monitors_;
  std::deque<std::uint64_t> golden_;  ///< expected outputs in flight
  /// Per-stage bundled TraceRecorders, attached to the stage engines
  /// when tracing — the observer-based replacement for the old
  /// in-engine take_trace plumbing. Sized once in the constructor; the
  /// engines hold borrowed pointers into it.
  std::vector<TraceRecorder> recorders_;
  std::vector<SeqCycleTrace> traces_;
  std::uint64_t cycles_ = 0;
  // Cycle-composition scratch (avoids per-chunk allocation).
  std::vector<std::uint8_t> batch_inputs_;     ///< chunk × stage PIs
  std::vector<StepResult> batch_results_;      ///< stages × chunk
  std::vector<std::uint64_t> batch_sampled_w_;  ///< stages × chunk
  std::vector<std::uint64_t> batch_shadow_w_;   ///< stages × chunk
  std::vector<std::uint64_t> batch_golden_;     ///< per-cycle golden
  std::vector<std::uint64_t> golden_pi_words_;  ///< per-PI lane words
  std::vector<std::uint64_t> golden_values_;    ///< per-net lane words
  std::vector<double> stage_window_;  ///< per-cycle windows, cycle-major
  std::vector<SeqCycleResult> warm_results_;  ///< warm_start scratch
};

/// Joins the pieces of a split sparse replay (SeqSim::replay_piece), in
/// cycle order, into the serial replay's cycles — bit-identical to one
/// replay_piece over the whole stream. A trajectory is at a resync
/// point at cycle c when the latency_cycles() cycles before c were all
/// settled (or c is 0): it is then in the reference state, the state
/// every piece starts from. A piece is therefore exact when the stitched
/// trajectory is at a resync point at its first cycle. Otherwise the
/// stitch re-steps the serial trajectory from its last resync point
/// until, at one cycle, it and the piece are both at a resync point —
/// from there they run from one state — and overwrites the piece's
/// cycles before that; a re-step that outlasts the piece carries into
/// the next one. A trajectory that never resyncs (a saturated capture)
/// is re-stepped whole, which is correct but serial.
class SparseReplayStitch {
 public:
  /// `operands` (the whole stream) and the reference's buffers must
  /// outlive the stitch; `latency` is the pipeline's latency_cycles().
  SparseReplayStitch(std::span<const std::uint64_t> operands,
                     const SeqReference& ref, double capture_ps,
                     std::size_t latency);

  /// Takes the piece that starts at cycle stitched() (replay_piece's
  /// results for it), rewrites it in place into the serial replay's
  /// cycles and returns the cycles re-stepped for it, warm starts
  /// included. Re-steps run on `sim`: a pipeline on the pieces' die
  /// (ref.capture_ps cycle-safe on it), in any state unless stepping().
  std::size_t stitch(std::span<SeqCycleResult> piece, SeqSim& sim);

  /// A re-step outlasted the last piece: the next stitch() must get the
  /// same pipeline, untouched since.
  bool stepping() const noexcept { return stepping_; }

  /// Cycles joined so far: the next piece's first cycle.
  std::size_t stitched() const noexcept { return next_; }

 private:
  std::span<const std::uint64_t> operands_;
  SeqReference ref_;
  double capture_ps_;
  std::size_t lat_;
  std::size_t next_ = 0;
  /// Trailing settled cycles of the stitched trajectory (cycle 0 is a
  /// resync point), and its last resync point.
  std::size_t clean_;
  std::size_t resync_ = 0;
  /// The last stitch()'s pipeline holds the serial trajectory at cycle
  /// next_ (a re-step that has not met its piece yet).
  bool stepping_ = false;
  /// The re-step's next chunk: latency + 1 cycles doubling to a lane
  /// word, like a dirty stretch's, and kept across pieces.
  std::size_t chunk_ = 0;
  std::vector<SeqCycleResult> scratch_;  ///< re-stepped cycles
};

}  // namespace vosim

#endif  // VOSIM_SEQ_SEQ_SIM_HPP
