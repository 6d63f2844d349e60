// Campaign runner: executes the workload × circuit × triad × backend
// grid — the application-level quality-vs-energy sweep the paper's
// Section IV / Fig. 8 story calls for, at production scale.
//
// Per circuit the runner synthesizes once, characterizes every triad
// once (gate-level energy + BER on the levelized engine's grid fast
// path) and, when the model backend is requested, trains one
// statistical VOS model per triad. The cells of the grid then run in
// parallel on the shared persistent ThreadPool; each finished cell is
// appended to the CampaignStore, so interrupted or re-run campaigns
// recompute only the missing cells. Results are bit-deterministic for
// a fixed config across runs: every cell derives its own Rng from the
// campaign seed and the cell's content key, never from scheduling
// order. Across thread counts (--jobs) they are not yet: the per-circuit
// characterization splits its combinational sweep into one segment per
// worker and merges segment energy sums in that order (see
// characterize_dut), so energy_per_op_fj and baseline_fj can differ in
// their last bits between --jobs 1 and --jobs 4 until ROADMAP item 1
// fixes the split.
#ifndef VOSIM_CAMPAIGN_RUNNER_HPP
#define VOSIM_CAMPAIGN_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/campaign/store.hpp"
#include "src/campaign/workload.hpp"
#include "src/fleet/fleet.hpp"
#include "src/tech/library.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

/// Arithmetic backend axis of the grid: how the routed adder is
/// realized for a cell. Exact is the reference (quality ceiling), the
/// statistical model is the fast path for millions of ops, and the two
/// gate-level backends replay the workload through a timing simulation
/// — so model-vs-sim quality deviation is a first-class campaign
/// output rather than a side experiment.
enum class ArithBackend {
  kExact,         ///< exact addition (quality ceiling, nominal energy)
  kModel,         ///< trained statistical VOS model (prob-table injection)
  kSimEvent,      ///< gate-level, event-driven engine
  kSimLevelized,  ///< gate-level, bit-parallel levelized engine
  kSimSeq,        ///< gate-level, clocked single-stage pipeline: the
                  ///< adder between registers with truncating cycle
                  ///< semantics, per-flop setup margin and register
                  ///< clock energy in the joined energy/op (src/seq)
};

const char* arith_backend_name(ArithBackend backend);
/// Parses "exact" | "model" | "sim-event" | "sim-levelized" (alias
/// "sim") | "sim-seq"; throws std::invalid_argument otherwise.
ArithBackend parse_arith_backend(const std::string& name);

/// Relative operating point: Tclk as a multiple of the circuit's own
/// synthesis critical path. Lets one campaign spec stress every
/// circuit equally (the Table-III philosophy).
struct TriadSpec {
  double tclk_scale = 1.0;
  double vdd_v = 1.0;
  double vbb_v = 0.0;
};

/// The grid. Triads per circuit resolve in priority order: explicit
/// `triads` > `triad_specs` (scaled by each circuit's critical path) >
/// the full Table-III 43-triad set; `max_triads` then truncates.
struct CampaignConfig {
  std::vector<std::string> workloads{"fir", "blur", "sobel", "kmeans",
                                     "dot"};
  std::vector<std::string> circuits{"rca16"};
  std::vector<ArithBackend> backends{ArithBackend::kModel};
  std::vector<OperatingTriad> triads;    ///< absolute override
  std::vector<TriadSpec> triad_specs;    ///< relative override
  std::size_t max_triads = 0;            ///< 0 = no truncation
  std::uint64_t seed = 1;                ///< campaign seed (cache key)
  std::size_t characterize_patterns = 2000;  ///< energy/BER join budget
  std::size_t train_patterns = 4000;     ///< model training budget
  unsigned jobs = 0;                     ///< worker threads (0 = default)
  std::ostream* progress = nullptr;      ///< optional narration stream
  /// Chip axis: fleet.num_chips == 0 runs the single nominal die
  /// (chip 0 — bit-compatible with pre-fleet campaigns); otherwise the
  /// grid gains a chip dimension 1..num_chips. Synthesis,
  /// characterization, the levelized normalized timing pass and model
  /// training stay per-(circuit, triad) — computed once and shared
  /// across every chip — while the gate-level backends replay each
  /// cell on the chip's own die (delay/leakage corner + within-die
  /// draw) and the energy join rescales the characterized leakage by
  /// the chip's corner analytically.
  FleetConfig fleet;
  /// Grid sharding for multi-process runs (`vosim_cli campaign --shard
  /// i/N`): cell keys are content-hashed onto shards, so every process
  /// enumerates the identical grid and executes a disjoint,
  /// enumeration-order-independent subset. Each shard writes its own
  /// store; merge_stores() unions them into the single-process store.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Opt-in error provenance for the gate-level sim backends
  /// (sim-event / sim-levelized / sim-seq): every computed sim cell
  /// attaches ErrorProvenance observers to its engines and records the
  /// top-K culprit nets into CampaignCell::culprits; the accumulation
  /// also folds into the metrics registry under "provenance.campaign".
  /// Non-sim backends leave culprits empty.
  bool provenance = false;
  std::size_t top_culprits = 4;  ///< culprit nets kept per cell
  /// Live-progress hook: invoked once per *computed* cell, right after
  /// the store append (reused cells never fire it). Runs on pool
  /// worker threads — the callback must be thread-safe. The serve
  /// daemon's `watch` verb streams from this.
  std::function<void(const CampaignCell&)> on_cell;
};

/// Outcome: the full grid in deterministic (workload-major) order plus
/// the resume accounting.
struct CampaignOutcome {
  std::vector<CampaignCell> cells;
  std::size_t reused = 0;    ///< cells answered from the store
  std::size_t computed = 0;  ///< cells executed this run
};

/// Runs the campaign; throws std::invalid_argument on unknown
/// workloads/backends, malformed circuit specs, or a circuit that
/// cannot back a requested backend (model/sim need an adder of the
/// workload's width).
CampaignOutcome run_campaign(const CellLibrary& lib,
                             const CampaignConfig& config,
                             CampaignStore& store);

}  // namespace vosim

#endif  // VOSIM_CAMPAIGN_RUNNER_HPP
