// SimEngine: the common interface of the gate-level VOS simulators.
//
// The characterization flow (Fig. 4) runs ~20k patterns per operating
// triad over a large Tclk/Vdd/Vbb grid; every consumer — characterizer,
// apps, runtime controllers, benches — talks to the simulator through
// this interface so the backend can be chosen per sweep:
//
//   kEvent      event-driven simulation with inertial delays — the
//               accuracy reference (src/sim/event_sim.hpp).
//   kLevelized  bit-parallel levelized simulation — one topological
//               pass evaluates 64 packed patterns (one uint64_t lane
//               word per net), with per-lane transition times bounded
//               by the STA arrival model (src/sim/levelized_sim.hpp).
//               An order of magnitude faster on full-grid sweeps.
//
// DESIGN.md §7 documents the levelized error model and when the two
// backends diverge (glitches, inertial pulse filtering).
#ifndef VOSIM_SIM_SIM_ENGINE_HPP
#define VOSIM_SIM_SIM_ENGINE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

class SimObserver;  // src/obs/probe.hpp

/// Available simulation backends.
enum class EngineKind : std::uint8_t {
  kEvent,      ///< event queue + inertial delays (accuracy reference)
  kLevelized,  ///< bit-parallel levelized arrival-time model (fast)
};

/// Display/CLI name: "event" or "levelized".
std::string engine_kind_name(EngineKind kind);

/// Parses "event" / "levelized"; throws std::invalid_argument otherwise.
EngineKind parse_engine_kind(const std::string& name);

/// Simulator knobs, shared by both backends.
struct TimingSimConfig {
  /// Per-gate log-normal delay variation sigma (0 = deterministic).
  /// Models within-die process variation; one sample is drawn per gate
  /// at construction ("one die") and reused across operations. Both
  /// backends draw the identical sample sequence, so a given
  /// (sigma, seed) names the same die under either engine.
  double variation_sigma = 0.0;
  /// Seed for the per-gate variation sample.
  std::uint64_t variation_seed = 1;
  /// Die-wide gate-delay multiplier (die-to-die process corner): every
  /// gate's delay is scaled by this on top of the triad's voltage scale
  /// and the per-gate variation sample. 1.0 = the nominal die. The
  /// fleet subsystem (src/fleet) draws one value per chip instance so a
  /// slow die is slow under every triad and both engines.
  double delay_scale = 1.0;
  /// Die-wide leakage multiplier (die-to-die corner), applied on top of
  /// the triad's voltage-dependent leakage scale. 1.0 = nominal die.
  double leakage_scale = 1.0;
  /// Asks trace-capable wrappers (SeqSim) to attach bundled
  /// TraceRecorder observers for waveform export (src/sim/vcd.hpp,
  /// src/seq/seq_vcd.hpp). Off by default: tracing allocates per
  /// event. Event engine only. For a bare engine, attach a
  /// TraceRecorder (src/obs/probe.hpp) yourself — the engines
  /// themselves no longer record ad-hoc traces.
  bool record_trace = false;
  /// Backend built by make_engine() and the engine-generic wrappers
  /// (VosDutSim, characterize_dut, SeqSim, ClosedLoopSeqUnit).
  EngineKind engine = EngineKind::kEvent;
};

/// One committed transition (for waveform dumps).
struct TraceEvent {
  double time_ps = 0.0;
  NetId net = invalid_net;
  std::uint8_t value = 0;
};

/// Result of simulating one clocked operation (two-vector transition).
struct StepResult {
  /// Values sampled at t = Tclk (what the capture registers see).
  std::uint64_t sampled_outputs = 0;  // packed in primary-output order
  /// Fully settled values (t → ∞), i.e. the functionally correct result.
  std::uint64_t settled_outputs = 0;
  /// Time of the last committed transition (ps).
  double settle_time_ps = 0.0;
  /// Dynamic energy of transitions inside the clock window [0, Tclk) —
  /// in a pipeline, switching after the clock edge belongs to the next
  /// operation, and deep VOS truncates carry activity (DESIGN.md §6.3).
  double window_energy_fj = 0.0;
  /// Dynamic energy of *all* transitions until quiescence (what a
  /// non-pipelined accounting would charge; see the energy-window
  /// ablation bench).
  double total_energy_fj = 0.0;
  /// Transition counts (inside the window / total until settled).
  std::uint32_t toggles_in_window = 0;
  std::uint32_t toggles_total = 0;
};

/// Abstract gate-level simulator bound to one netlist, library and triad.
///
/// Usage: reset() to establish the initial state, then step() per
/// operation (state persists between steps like a real datapath between
/// clock edges, DESIGN.md §6.5) or step_batch() to stream many
/// operations with the same semantics.
class SimEngine {
 public:
  virtual ~SimEngine() = default;

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  virtual EngineKind kind() const noexcept = 0;
  virtual const Netlist& netlist() const noexcept = 0;
  virtual const OperatingTriad& triad() const noexcept = 0;

  /// Applies input values and lets the circuit settle completely
  /// (no sampling, no energy accounting).
  virtual void reset(std::span<const std::uint8_t> inputs) = 0;

  /// Applies a new input vector at t = 0, propagates it, samples at
  /// Tclk and settles. Returns packed outputs and energy.
  virtual StepResult step(std::span<const std::uint8_t> inputs) = 0;

  /// Clocked variant for sequential (pipelined) operation: propagates
  /// only until the capture edge at Tclk. The at-edge net values —
  /// including nets whose final transition has not arrived — become the
  /// persistent launch state of the next cycle, so timing errors latch
  /// and propagate across cycles instead of being settled away.
  ///
  ///   - sampled_outputs: values at the Tclk edge (what the capture
  ///     registers latch).
  ///   - settled_outputs: the functional (zero-delay) result for these
  ///     inputs — the Razor shadow-register reference.
  ///   - window_energy_fj / toggles_in_window: every commit inside this
  ///     cycle, which on the event backend includes transitions launched
  ///     in earlier cycles that land in this one (still-in-flight events
  ///     carry across the edge with their remaining delay). The
  ///     levelized backend truncates in-flight transitions at the edge
  ///     instead; the next cycle relaunches from the truncated state.
  ///   - total_energy_fj == window_energy_fj here (nothing is simulated
  ///     past the edge).
  ///
  /// Do not interleave step() and step_cycle() on one engine without a
  /// reset() in between: step() assumes a quiescent circuit.
  virtual StepResult step_cycle(std::span<const std::uint8_t> inputs) = 0;

  /// Streams `count` operations: pattern k occupies
  /// inputs[k*P, (k+1)*P) where P = netlist().primary_inputs().size(),
  /// and its outcome lands in results[k]. Equivalent to `count` calls
  /// to step(); the levelized backend overrides this to evaluate one
  /// lane word of patterns per pass in packed lanes.
  virtual void step_batch(std::span<const std::uint8_t> inputs,
                          std::size_t count, std::span<StepResult> results);

  /// Streams `count` consecutive clock cycles of ONE clocked stream:
  /// cycle k's inputs occupy inputs[k*P, (k+1)*P) and its outcome lands
  /// in results[k]. Semantically identical to `count` calls to
  /// step_cycle() — cycle k launches from cycle k-1's truncated at-edge
  /// state — and the default implementation is exactly that scalar
  /// loop (the event engine keeps its cross-edge event queue that way).
  /// The levelized backend overrides this to run one lane word of
  /// cycles per packed pass, bit-exact against the scalar loop.
  virtual void step_cycle_batch(std::span<const std::uint8_t> inputs,
                                std::size_t count,
                                std::span<StepResult> results);

  /// Rebinds the capture threshold (ps) without rebuilding the engine:
  /// the die (delay assignment, variation draw, energies) is untouched,
  /// only the clock-edge comparison and its derived quantities (leakage
  /// per period, cycle-safety) move. The levelized backend supports
  /// this — it is how the characterizer's normalized grid sweep walks
  /// a whole Tclk ladder on one die — and returns true; backends that
  /// bake the period into their structure return false and are left
  /// unchanged. The carried state is untouched: the next step or
  /// step_cycle launches from it at the new threshold, so a clocked
  /// stream may change threshold between two cycles.
  virtual bool retarget_tclk_ps(double) { return false; }

  /// True when every commit of every gate provably lands inside the
  /// capture window at the current threshold, in every cycle of any
  /// clocked stream: the at-edge state a step_cycle carries forward is
  /// then the settled function of that cycle's inputs, whatever state
  /// it launched from. The levelized backend proves this from its STA
  /// arrivals (every gate's arrival < Tclk); backends that cannot
  /// prove it return false.
  virtual bool cycle_safe() const noexcept { return false; }

  /// Lane word of the last step/step_cycle pass: bit k is set when
  /// every net ended lane k at its settled (functional) value, i.e.
  /// its at-edge sample equals its settled value. After a step_cycle
  /// the carried launch state is then exactly the settled function of
  /// that cycle's inputs, as after reset() — whatever state the cycle
  /// launched from. A scalar call reports lane 0; a batch reports its
  /// last pass of up to 64 cycles (lane k = cycle 64·⌊(count−1)/64⌋+k);
  /// after LevelizedSimulator::step_batch_sweep (one lane word, many
  /// thresholds, no single sampled value per net) the word is
  /// meaningless. Backends that do not track it return 0: no lane is
  /// known to be settled.
  virtual std::uint64_t settled_lanes() const noexcept { return 0; }

  /// Per-operation leakage energy at this triad (fJ): leakage power
  /// integrated over one clock period.
  virtual double leakage_energy_fj_per_op() const noexcept = 0;

  /// Values sampled at the last step's clock edge, one per net. After
  /// step_batch(), the last pattern's sample.
  virtual std::span<const std::uint8_t> sampled_values() const noexcept = 0;

  /// Fully settled values after the last reset/step (one per net).
  virtual std::span<const std::uint8_t> settled_values() const noexcept = 0;

  /// Registers an observer for simulation callbacks (src/obs/probe.hpp;
  /// DESIGN.md §13). Observers are borrowed, never owned — they must
  /// outlive the engine or be detached first — and are invoked
  /// synchronously on the simulating thread in attach order. Default
  /// off: with no observers attached every hot-path dispatch site pays
  /// exactly one !observers_.empty() branch. Attaching twice is a
  /// no-op. Note: the levelized multi-threshold sweep
  /// (LevelizedSimulator::step_batch_sweep) does not dispatch — it
  /// hands back lane words, never per-pattern StepResults — so
  /// observer consumers must route through step/step_batch/
  /// step_cycle_batch.
  void attach_observer(SimObserver* obs);
  /// Unregisters a previously attached observer (no-op when absent).
  void detach_observer(SimObserver* obs);
  /// True when at least one observer is attached.
  bool has_observers() const noexcept { return !observers_.empty(); }

 protected:
  SimEngine() = default;

  std::vector<SimObserver*> observers_;
};

/// Builds the backend selected by `config.engine`.
std::unique_ptr<SimEngine> make_engine(const Netlist& netlist,
                                       const CellLibrary& lib,
                                       const OperatingTriad& op,
                                       const TimingSimConfig& config = {});

}  // namespace vosim

#endif  // VOSIM_SIM_SIM_ENGINE_HPP
