// Closed-loop VOS control — the paper's run-time switching between
// accurate and approximate triads under an error margin (Section V,
// dynamic speculation of reference [17]): climbs the TriadRung ladder
// from *measured* per-stage Razor error rates. The sensors are the
// DoubleSamplingMonitors inside the clocked pipeline simulator
// (src/seq/seq_sim.hpp) — shadow-vs-main samples produced by the
// simulator itself, the in-silicon feedback loop of
// timing-error-correction DVS (Kaul et al.) closed over our gate-level
// truth. Combinational DUTs run under it via wrap_as_pipeline.
#ifndef VOSIM_RUNTIME_CLOSED_LOOP_HPP
#define VOSIM_RUNTIME_CLOSED_LOOP_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "src/runtime/triad_ladder.hpp"
#include "src/seq/seq_sim.hpp"

namespace vosim {

/// Decision issued after an observation.
enum class SpeculationAction : std::uint8_t {
  kHold,
  kStepDown,  ///< move to a cheaper, riskier rung
  kStepUp,    ///< back off to a safer rung
};

/// Controller tuning. The regulated signal is the worst per-stage
/// flagged-operation rate over the Razor monitor window — a rate the
/// hardware actually observes, unlike output BER.
struct ClosedLoopConfig {
  /// Tolerable flagged-op rate per stage (the quality floor).
  double op_error_margin = 0.05;
  /// Razor monitor window (cycles) per stage.
  std::size_t window_cycles = 256;
  /// Step down (cheaper) only when the measured rate is below
  /// margin × step_down_fraction — hysteresis against flapping.
  double step_down_fraction = 0.5;
  /// Minimum cycles on a rung before another decision.
  std::size_t min_dwell_cycles = 256;
  /// Re-probe backoff: after retreating from a rung that violated the
  /// floor, that rung is barred for this many decision windows, and the
  /// bar doubles on every failed re-probe (capped at ×64). Without it
  /// the controller would re-enter the bad rung after every dwell and
  /// the steady-state error rate would exceed the floor it promises.
  std::size_t reprobe_backoff_windows = 4;
};

/// The ladder-walking policy: feed it the measured worst-stage rate
/// every cycle; it answers hold / step-up / step-down. Pure decision
/// logic, so it is unit-testable without a simulator.
class ClosedLoopController {
 public:
  ClosedLoopController(std::size_t num_rungs,
                       const ClosedLoopConfig& config = {});

  /// One cycle's measurement: the worst windowed per-stage flagged-op
  /// rate and whether the window has filled since the last switch.
  /// Returns the action taken (the caller switches rungs and resets
  /// the monitors on anything but kHold).
  SpeculationAction observe(double worst_stage_rate, bool window_full);

  /// Number of upcoming observe() calls guaranteed to return kHold
  /// without evaluating the measured rate, because the minimum dwell or
  /// the sensor window cannot be satisfied earlier. Always >= 1: the
  /// n-th call is the first that may actually decide.
  /// `window_fill`/`window_capacity` describe the monitor window
  /// feeding observe() (one observation lands per cycle).
  std::size_t cycles_until_decision(std::size_t window_fill,
                                    std::size_t window_capacity) const;

  /// Accounts `n` guaranteed-hold observations at once — equivalent to
  /// n observe() calls that return early with kHold (they only bump the
  /// dwell counter). Precondition: n < cycles_until_decision(...).
  void advance_dwell(std::size_t n) noexcept { dwell_ += n; }

  std::size_t rung() const noexcept { return rung_; }
  std::size_t num_rungs() const noexcept { return num_rungs_; }
  std::uint64_t switches() const noexcept { return switches_; }
  const ClosedLoopConfig& config() const noexcept { return config_; }

  /// Rung currently barred by the re-probe backoff (num_rungs() when
  /// none).
  std::size_t barred_rung() const noexcept { return barred_rung_; }

 private:
  std::size_t num_rungs_;
  ClosedLoopConfig config_;
  std::size_t rung_ = 0;  // safest first
  std::size_t dwell_ = 0;
  std::uint64_t switches_ = 0;
  std::size_t barred_rung_;       // failed rung under backoff
  std::size_t barred_cooldown_ = 0;  // suppressed probes remaining
  std::size_t barred_penalty_ = 1;   // doubles per failed re-probe
};

/// Outcome of one closed-loop pipeline cycle.
struct ClosedLoopCycleResult {
  SeqCycleResult cycle;
  SpeculationAction action = SpeculationAction::kHold;
  std::size_t rung = 0;
};

/// A pipelined operator under closed-loop VOS control: one clocked
/// simulator per ladder rung (created lazily), every cycle routed
/// through the current rung, the controller fed from that rung's own
/// Razor monitors. A rung switch resets the new rung's pipeline (the
/// refill penalty a real DVS transition pays; refill outputs report
/// output_valid = false).
class ClosedLoopSeqUnit {
 public:
  /// `ladder` follows the build_triad_ladder convention: safest (most
  /// expensive) rung first.
  ClosedLoopSeqUnit(const SeqDut& seq, const CellLibrary& lib,
                    std::vector<TriadRung> ladder,
                    const ClosedLoopConfig& config = {},
                    const TimingSimConfig& sim_config = {});

  /// One cycle: a run_batch of one.
  ClosedLoopCycleResult step_cycle(std::span<const std::uint64_t> operands);
  ClosedLoopCycleResult step_cycle(std::uint64_t a, std::uint64_t b);

  /// Runs `count` cycles (cycle c's operands at
  /// operands[c*num_operands(), ...), outcome in results[c]); the
  /// trajectory does not depend on how a stream is split into calls.
  /// Cycles that the controller is guaranteed to hold through — the
  /// minimum dwell and the window refill after every rung switch — are
  /// streamed through the active rung's SeqSim::step_cycle_batch in one
  /// call; the controller then observes once with the dwell advanced
  /// in bulk, and a switch resets the new rung's pipeline. Once a
  /// rung's window is full and its dwell is served, decisions are due
  /// every cycle and the steps are one cycle long.
  void run_batch(std::span<const std::uint64_t> operands, std::size_t count,
                 std::span<ClosedLoopCycleResult> results);

  const ClosedLoopController& controller() const noexcept {
    return controller_;
  }
  const std::vector<TriadRung>& ladder() const noexcept { return ladder_; }
  const OperatingTriad& current_triad() const {
    return ladder_.at(controller_.rung()).triad;
  }
  const SeqDut& seq() const noexcept { return seq_; }
  /// Mean energy per cycle so far, register clock energy included (fJ).
  double mean_energy_fj() const noexcept;
  std::uint64_t cycles() const noexcept { return cycles_; }
  /// The active rung's simulator (e.g. to read its stage monitors).
  const SeqSim& current_sim() const;

 private:
  SeqSim& sim_for_rung(std::size_t rung);

  const SeqDut& seq_;
  const CellLibrary& lib_;
  std::vector<TriadRung> ladder_;
  ClosedLoopConfig config_;
  TimingSimConfig sim_config_;
  ClosedLoopController controller_;
  std::vector<std::unique_ptr<SeqSim>> sims_;  // one per rung, lazy
  std::vector<SeqCycleResult> batch_cycles_;   // run_batch scratch
  double energy_total_fj_ = 0.0;
  std::uint64_t cycles_ = 0;
};

}  // namespace vosim

#endif  // VOSIM_RUNTIME_CLOSED_LOOP_HPP
