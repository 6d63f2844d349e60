#include "src/characterize/characterizer.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "src/obs/trace.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/sim/levelized_sim.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/parallel.hpp"

namespace vosim {

namespace {

/// The shared stimulus sequence: the first `count` patterns of the
/// config's stream over operand buses of `widths`, flattened
/// pattern-major (pattern p's operands at [p*nops, (p+1)*nops)) —
/// identical at every triad (paper testbench), generated once per sweep
/// instead of per triad.
std::vector<std::uint64_t> generate_patterns(const CharacterizeConfig& config,
                                             std::vector<int> widths,
                                             std::size_t count) {
  obs::ScopedSpan span("characterize.patterns", "characterize");
  const std::size_t nops = widths.size();
  std::vector<std::uint64_t> pats(count * nops);
  DutPatternStream stream(config.policy, std::move(widths),
                          config.pattern_seed);
  for (std::size_t p = 0; p < count; ++p)
    stream.next({pats.data() + p * nops, nops});
  span.arg("patterns", static_cast<std::uint64_t>(count))
      .arg("operands", static_cast<std::uint64_t>(nops));
  return pats;
}

/// Fills res's error metrics from acc.
void set_error_metrics(TriadResult& res, const ErrorAccumulator& acc) {
  res.ber = acc.ber();
  res.bitwise_ber = acc.bitwise_error_probability();
  res.op_error_rate = acc.op_error_rate();
  res.mse = acc.mse();
  res.mred = acc.mred();
}

/// Patterns streamed per apply_batch call in the per-triad sweep loop.
constexpr std::size_t kBatch = 256;

/// Shortest stream a segmented combinational pass hands one pool task:
/// long enough to amortize the segment's simulator construction.
constexpr std::size_t kMinSegment = 256;

/// Segments for a stream of `n` patterns: one per worker, none shorter
/// than kMinSegment, at most 64.
std::size_t segment_count(const CharacterizeConfig& config, std::size_t n) {
  const unsigned workers =
      config.threads == 0 ? hardware_parallelism() : config.threads;
  return std::clamp<std::size_t>(
      std::min<std::size_t>(workers, n / kMinSegment), 1, 64);
}

/// Grid fast path for the levelized engine: supply and body bias scale
/// every gate delay by one common factor (delay_scale), and the
/// levelized engine's inertial/glitch decisions are invariant under
/// that scaling — so the whole Tclk/Vdd/Vbb grid shares one normalized
/// timing structure per die. One step_batch_sweep pass evaluates every
/// pattern against all triads at once: triad t becomes capture
/// threshold tclk·scale_ref/scale_t, with window energy scaled by
/// (Vdd/Vdd_ref)² and leakage computed per triad. The pattern stream
/// is split into segments with exact warm starts (the streaming state
/// is purely functional: the previous pattern's settled values), so
/// segment-parallel results are bit-identical to the sequential chain.
/// Results stay in lane words from the pass to the accumulators: each
/// 64-pattern word's references are transposed once, and every triad
/// adds its sampled output words for the whole word at once
/// (ErrorAccumulator::add_lanes) — bit-identical to per-pattern adds.
/// Nothing in the pass depends on the DUT being an adder — the same
/// code serves multipliers and MAC trees.
std::vector<TriadResult> characterize_levelized_sweep(
    const DutNetlist& dut, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const CharacterizeConfig& config,
    std::span<const std::uint64_t> pats) {
  const std::size_t nthr = triads.size();
  const std::size_t num_patterns = config.num_patterns;
  const TransistorModel& tm = lib.transistor_model();

  const OperatingTriad ref{1.0, 1.0, 0.0};
  const double scale_ref = tm.delay_scale(ref.vdd_v, ref.vbb_v);
  const double leak_nw_base = dut.netlist.cell_leakage_nw(lib);

  std::vector<double> tau(nthr);     // threshold in the ref time base
  std::vector<double> escale(nthr);  // dynamic-energy scale vs ref
  std::vector<double> sscale(nthr);  // settle-time scale vs ref
  std::vector<double> leak_fj(nthr);
  for (std::size_t t = 0; t < nthr; ++t) {
    const OperatingTriad& op = triads[t];
    const double s_t = tm.delay_scale(op.vdd_v, op.vbb_v);
    tau[t] = op.tclk_ns * 1e3 * scale_ref / s_t;
    escale[t] = (op.vdd_v / ref.vdd_v) * (op.vdd_v / ref.vdd_v);
    sscale[t] = s_t / scale_ref;
    leak_fj[t] = leak_nw_base * tm.leakage_scale(op.vdd_v, op.vbb_v) *
                 1e-3 * op.tclk_ns * 1e3 * 1e-3;
  }
  std::vector<std::size_t> order(nthr);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return tau[x] < tau[y]; });
  std::vector<double> sorted_tau(nthr);
  std::vector<std::size_t> pos(nthr);  // triad -> sorted position
  for (std::size_t j = 0; j < nthr; ++j) {
    sorted_tau[j] = tau[order[j]];
    pos[order[j]] = j;
  }

  // The same operand-scatter / output-gather mapping VosDutSim uses, so
  // the fast path cannot diverge from the per-triad path.
  const DutPinMap pins(dut);
  const std::size_t nops = pins.num_operands();
  const int out_bits = pins.output_width();
  const std::span<const std::size_t> out_slots = pins.output_slots();
  const std::size_t npis = dut.netlist.primary_inputs().size();

  // Segment the stream across the pool. The segment count fixes the
  // order in which per-segment energy sums merge, so kMinSegment and
  // the thread count are part of every result bit.
  constexpr std::size_t kChunk = LevelizedSimulator::kLanes;
  const std::size_t nseg = segment_count(config, num_patterns);

  struct Partial {
    ErrorAccumulator acc;
    double energy = 0.0;
    double dyn = 0.0;
    double settle = 0.0;
  };
  std::vector<std::vector<Partial>> parts(nseg);
  for (auto& seg : parts) {
    seg.reserve(nthr);
    for (std::size_t t = 0; t < nthr; ++t)
      seg.push_back(Partial{ErrorAccumulator(out_bits), 0.0, 0.0, 0.0});
  }

  shared_thread_pool().parallel(
      nseg,
      [&](std::size_t s) {
        // Stream indices [begin, end) of patterns; begin-1 settles.
        const std::size_t begin = 1 + s * num_patterns / nseg;
        const std::size_t end = 1 + (s + 1) * num_patterns / nseg;

        LevelizedSimulator eng(
            dut.netlist, lib, ref,
            die_sim_config(config.variation_sigma, config.variation_seed,
                           EngineKind::kLevelized));

        std::vector<std::uint8_t> in(npis, 0);
        pins.fill_inputs({pats.data() + (begin - 1) * nops, nops},
                         in.data());
        eng.reset(in);

        std::vector<std::uint8_t> bytes(kChunk * npis, 0);
        std::vector<std::uint64_t> golden(kChunk);
        std::vector<std::uint64_t> bits(static_cast<std::size_t>(out_bits));
        std::vector<Partial>& seg = parts[s];

        for (std::size_t c = begin; c < end; c += kChunk) {
          const std::size_t n = std::min(kChunk, end - c);
          std::fill(bytes.begin(), bytes.begin() + n * npis, 0);
          for (std::size_t i = 0; i < n; ++i)
            pins.fill_inputs({pats.data() + (c + i) * nops, nops},
                             bytes.data() + i * npis);
          const LevelizedSimulator::SweepWord sw = eng.step_batch_sweep(
              {bytes.data(), n * npis}, n, sorted_tau);
          // The references of the word, shared by every triad: the
          // settled outputs (functional, hence the same at every
          // threshold) or the golden function of each pattern.
          LaneReferences ref;
          if (config.golden) {
            for (std::size_t i = 0; i < n; ++i)
              golden[i] =
                  config.golden({pats.data() + (c + i) * nops, nops});
            ref = LaneReferences::from_values({golden.data(), n}, out_bits);
          } else {
            for (std::size_t i = 0; i < bits.size(); ++i)
              bits[i] = sw.settled(out_slots[i]);
            ref = LaneReferences::from_bits(bits, n);
          }
          for (std::size_t t = 0; t < nthr; ++t) {
            const std::size_t j = pos[t];
            for (std::size_t i = 0; i < bits.size(); ++i)
              bits[i] = sw.sampled(out_slots[i], j);
            Partial& acc = seg[t];
            acc.acc.add_lanes(ref, bits);
            const double* win_e = sw.window_energy_fj(j);
            for (std::size_t k = 0; k < n; ++k) {
              const double win = win_e[k] * escale[t];
              acc.energy += win + leak_fj[t];
              acc.dyn += win;
              acc.settle += sw.settle_ps[k] * sscale[t];
            }
          }
        }
      },
      config.threads);

  std::vector<TriadResult> results(nthr);
  for (std::size_t t = 0; t < nthr; ++t) {
    ErrorAccumulator merged(out_bits);
    double energy = 0.0;
    double dyn = 0.0;
    double settle = 0.0;
    for (std::size_t s = 0; s < nseg; ++s) {
      merged.merge(parts[s][t].acc);
      energy += parts[s][t].energy;
      dyn += parts[s][t].dyn;
      settle += parts[s][t].settle;
    }
    TriadResult& res = results[t];
    res.triad = triads[t];
    set_error_metrics(res, merged);
    const auto n = static_cast<double>(num_patterns);
    res.energy_per_op_fj = energy / n;
    res.dynamic_energy_fj = dyn / n;
    res.leakage_energy_fj = leak_fj[t];
    res.mean_settle_ps = settle / n;
    res.patterns = num_patterns;
  }
  return results;
}

/// Cycles per piece when the pipeline sweep splits a stream of
/// `cycles` (its reference run and its replays): about kSeqPieces
/// pieces of whole lane words, a function of the stream length alone.
std::size_t seq_piece_cycles(std::size_t cycles) {
  constexpr std::size_t kSeqPieces = 8;
  constexpr std::size_t kWord = LevelizedSimulator::kLanes;
  return (cycles + kSeqPieces * kWord - 1) / (kSeqPieces * kWord) * kWord;
}

/// Normalized pipelines shared by the tasks of one sweep: a task takes
/// one (built on first demand) and puts it back, so a job of many short
/// tasks builds about one per worker, not one per task. Every task
/// resets or warm-starts what it takes.
class SeqSimShelf {
 public:
  SeqSimShelf(const SeqDut& seq, const CellLibrary& lib,
              const OperatingTriad& op, const TimingSimConfig& config)
      : seq_(seq), lib_(lib), op_(op), config_(config) {}

  std::unique_ptr<SeqSim> take() {
    {
      const std::lock_guard lk(m_);
      if (!free_.empty()) {
        std::unique_ptr<SeqSim> sim = std::move(free_.back());
        free_.pop_back();
        return sim;
      }
    }
    return std::make_unique<SeqSim>(seq_, lib_, op_, config_);
  }

  void put(std::unique_ptr<SeqSim> sim) {
    const std::lock_guard lk(m_);
    free_.push_back(std::move(sim));
  }

 private:
  const SeqDut& seq_;
  const CellLibrary& lib_;
  OperatingTriad op_;
  TimingSimConfig config_;
  std::mutex m_;
  std::vector<std::unique_ptr<SeqSim>> free_;
};

/// Running sums of one triad's scored cycles, added in cycle order
/// (piece after piece adds in the same order as one whole buffer).
struct SeqTally {
  ErrorAccumulator acc;
  double dyn = 0.0;
  double settle = 0.0;
  double worst = 0.0;  ///< worst normalized settle time
  std::size_t cycles = 0;

  explicit SeqTally(int width) : acc(width) {}

  /// const_fj: the normalized pipeline's per-cycle leakage + clock
  /// energy at the triad's threshold.
  void add(std::span<const SeqCycleResult> rs, double const_fj) {
    for (const SeqCycleResult& r : rs) {
      dyn += r.energy_fj - const_fj;
      settle += r.max_settle_ps;
      worst = std::max(worst, r.max_settle_ps);
      if (r.output_valid) acc.add(r.expected, r.captured);
    }
    cycles += rs.size();
  }
};

/// Sequential grid fast path for the levelized engine — the clocked
/// analogue of characterize_levelized_sweep. Supply and body bias scale
/// every gate delay by one common factor, so the whole Tclk/Vdd/Vbb
/// grid maps onto ONE normalized pipeline (the reference die at Vdd
/// 1.0 / Vbb 0.0) whose capture threshold slides to
///   tau[t] = (Tclk_t − t_setup)·1e3 · scale_ref / scale_t.
/// Unlike the combinational sweep, cycle trajectories feed back through
/// the registers, so different thresholds cannot share one timing pass
/// — but the largest threshold's trajectory is the settled (error-free)
/// pipeline, and its worst normalized commit time bounds every commit
/// of every cycle: a triad whose tau exceeds that bound provably never
/// truncates (by induction over cycles its trajectory IS the reference
/// one), so its result is synthesized from the reference aggregates —
/// BER exactly 0, dynamic energy and settle rescaled. The remaining
/// (error-onset and beyond) triads first run their saturation probes,
/// all of them as one pool job. When the reference threshold is
/// cycle-safe (DESIGN.md §10) the reference run and every unsaturated
/// replay are cut into pieces of seq_piece_cycles(): a reference piece
/// warm-starts, a replay piece starts in sync with the reference run
/// (SeqSim::replay_piece, sparse: it copies every cycle the edge at
/// tau[t] does not cut and steps only the dirty stretches), and a
/// triad's pieces are stitched in cycle order into its serial replay
/// (SparseReplayStitch) and scored as they arrive. Otherwise the
/// reference runs serially and an unsaturated replay resumes from its
/// probe in the same task, stepping its full budget. Every sum walks
/// the cycles in order, so results are bit-identical at every thread
/// count. Error counts match the per-triad path up to
/// delay-product rounding at the window boundary and energies to FP
/// rescaling — the same caveats the combinational fast path carries.
std::vector<TriadResult> characterize_seq_levelized_norm(
    const SeqDut& seq, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const CharacterizeConfig& config,
    std::span<const std::uint64_t> pats) {
  const std::size_t nthr = triads.size();
  const std::size_t nops = seq.num_operands();
  const int width = seq.output_width();
  const TransistorModel& tm = lib.transistor_model();
  const double scale_ref = tm.delay_scale(1.0, 0.0);
  const double setup_ns = lib.dff_setup_ps() * 1e-3;

  double leak_nw_base = 0.0;
  for (const DutNetlist& st : seq.stages)
    leak_nw_base += st.netlist.cell_leakage_nw(lib);

  std::vector<double> tau(nthr);      // capture threshold, ref time base
  std::vector<double> escale(nthr);   // dynamic-energy scale vs ref
  std::vector<double> sscale(nthr);   // settle-time scale vs ref
  std::vector<double> leak_fj(nthr);  // per-cycle leakage, full period
  std::vector<double> clock_fj(nthr);
  std::size_t ref_t = 0;
  for (std::size_t t = 0; t < nthr; ++t) {
    const OperatingTriad& op = triads[t];
    VOSIM_EXPECTS(op.tclk_ns > setup_ns);
    const double s_t = tm.delay_scale(op.vdd_v, op.vbb_v);
    tau[t] = (op.tclk_ns - setup_ns) * 1e3 * scale_ref / s_t;
    escale[t] = op.vdd_v * op.vdd_v;
    sscale[t] = s_t / scale_ref;
    leak_fj[t] = leak_nw_base * tm.leakage_scale(op.vdd_v, op.vbb_v) *
                 1e-3 * op.tclk_ns * 1e3 * 1e-3;
    clock_fj[t] = seq_clock_energy_fj(seq, lib, op.vdd_v);
    if (tau[t] > tau[ref_t]) ref_t = t;
  }

  const TimingSimConfig sim_cfg = die_sim_config(
      config.variation_sigma, config.variation_seed, EngineKind::kLevelized);
  // Constructed above the largest threshold, then pinned exactly.
  const OperatingTriad norm{tau[ref_t] * 1e-3 + setup_ns, 1.0, 0.0};
  SeqSimShelf shelf(seq, lib, norm, sim_cfg);

  std::vector<TriadResult> results(nthr);
  const std::size_t latency = seq.latency_cycles();
  const std::size_t cycles = config.num_patterns + latency - 1;
  std::vector<std::uint64_t> ops(cycles * nops, 0);
  std::copy(pats.begin(), pats.end(), ops.begin());
  const std::size_t piece = seq_piece_cycles(cycles);

  // A saturated threshold is recognizable from its first probe word:
  // past the onset cliff the op-error rate is high enough that 62-odd
  // samples pin it, and the full budget adds nothing but wall clock.
  const std::size_t probe_cycles = std::min<std::size_t>(cycles, 64);
  const bool probe_enabled = config.seq_saturation_threshold <= 1.0 &&
                             probe_cycles < cycles &&
                             probe_cycles >= latency;

  // Starts a normalized pipeline from reset at threshold tau[t].
  const auto start_at = [&](SeqSim& sim, std::size_t t) {
    sim.reset();
    sim.retarget_capture_ps(tau[t]);
  };

  // Writes triad t's result from its tally. Aggregates are in the ref
  // time/energy base and rescaled into the triad's own units.
  const auto finish = [&](const SeqTally& tally, std::size_t t) {
    TriadResult& res = results[t];
    res.triad = triads[t];
    set_error_metrics(res, tally.acc);
    const auto n = static_cast<double>(tally.cycles);
    res.energy_per_op_fj =
        tally.dyn * escale[t] / n + leak_fj[t] + clock_fj[t];
    res.dynamic_energy_fj = tally.dyn * escale[t] / n + clock_fj[t];
    res.leakage_energy_fj = leak_fj[t];
    res.mean_settle_ps = tally.settle * sscale[t] / n;
    res.patterns = tally.cycles - latency + 1;
  };
  const auto const_fj_of = [](const SeqSim& sim) {
    return sim.leakage_energy_fj_per_cycle() +
           sim.clock_energy_fj_per_cycle();
  };

  // Phase 1: the reference (largest-threshold) run bounds every commit
  // and always spends the full budget (its trajectory seeds every
  // synthesized triad and every sparse replay, so each stage's
  // per-cycle window energy is kept with it). At a cycle-safe
  // reference (SeqSim::cycle_safe: every commit of every stage lands
  // before the edge) a piece that warm-starts latency cycles early
  // reaches the serial run's exact state, so the run splits into
  // pieces on the pool, each stepping its own cycles into shared
  // buffers; they are scored once, in cycle order. Otherwise one piece
  // runs the whole stream.
  const std::size_t stages = seq.num_stages();
  std::vector<SeqCycleResult> ref_rs(cycles);
  std::vector<double> ref_win(cycles * stages);
  double worst_norm = 0.0;
  bool safe = false;
  {
    obs::ScopedSpan span("characterize.seq.reference", "characterize");
    double const_fj = 0.0;
    {
      std::unique_ptr<SeqSim> sim = shelf.take();
      start_at(*sim, ref_t);
      safe = sim->cycle_safe();
      const_fj = const_fj_of(*sim);
      shelf.put(std::move(sim));
    }
    const std::size_t len = safe ? piece : cycles;
    const std::size_t npieces = (cycles + len - 1) / len;
    shared_thread_pool().parallel(
        npieces,
        [&](std::size_t s) {
          const std::size_t b = s * len;
          const std::size_t n = std::min(len, cycles - b);
          std::unique_ptr<SeqSim> sim = shelf.take();
          sim->retarget_capture_ps(tau[ref_t]);
          sim->warm_start(ops, b);
          sim->step_cycle_batch(
              {ops.data() + b * nops, n * nops}, n,
              std::span(ref_rs).subspan(b, n),
              std::span(ref_win).subspan(b * stages, n * stages));
          shelf.put(std::move(sim));
        },
        config.threads);
    SeqTally tally(width);
    tally.add(ref_rs, const_fj);
    finish(tally, ref_t);
    worst_norm = tally.worst;
    span.arg("pieces", static_cast<std::uint64_t>(npieces))
        .arg("cycles", static_cast<std::uint64_t>(cycles))
        .arg("cycle_safe", std::string(safe ? "true" : "false"));
  }
  const TriadResult& ref_res = results[ref_t];

  // Phase 2: classify. Provably truncation-free triads reuse the
  // reference trajectory's aggregates (their own run would retrace it
  // commit for commit); the rest are active.
  std::vector<std::size_t> active;
  for (std::size_t t = 0; t < nthr; ++t) {
    if (t == ref_t) continue;
    if (tau[t] > worst_norm * (1.0 + 1e-9)) {
      TriadResult& res = results[t];
      res = ref_res;
      res.triad = triads[t];
      const auto n = static_cast<double>(cycles);
      const double dyn =
          (ref_res.dynamic_energy_fj - clock_fj[ref_t]) * n /
          escale[ref_t];
      res.energy_per_op_fj =
          dyn * escale[t] / n + leak_fj[t] + clock_fj[t];
      res.dynamic_energy_fj = dyn * escale[t] / n + clock_fj[t];
      res.leakage_energy_fj = leak_fj[t];
      res.mean_settle_ps =
          ref_res.mean_settle_ps / sscale[ref_t] * sscale[t];
    } else {
      active.push_back(t);
    }
  }

  // Phase 3: every active triad's saturation probe, as one pool job.
  // A saturated probe is the triad's sample. An unsaturated triad
  // replays in pieces (phase 4) at a cycle-safe reference; otherwise it
  // resumes from its probe in the same task, stepping every cycle.
  const SeqReference reference{tau[ref_t], ref_rs, ref_win};
  std::vector<std::size_t> split;  // triads replayed in pieces
  if (safe && !probe_enabled) {
    split = active;
  } else {
    std::vector<std::uint8_t> unsaturated(nthr, 0);
    const auto probe = [&](SeqSim& sim, std::size_t t) {
      std::vector<SeqCycleResult> rs(safe ? probe_cycles : cycles);
      std::size_t probed = 0;
      if (probe_enabled) {
        obs::ScopedSpan span("characterize.seq.probe", "characterize");
        start_at(sim, t);
        probed = probe_cycles;
        sim.step_cycle_batch({ops.data(), probed * nops}, probed,
                             std::span(rs).first(probed));
        ErrorAccumulator acc(width);
        for (std::size_t c = 0; c < probed; ++c)
          if (rs[c].output_valid) acc.add(rs[c].expected, rs[c].captured);
        const bool saturated =
            acc.op_error_rate() >= config.seq_saturation_threshold;
        span.arg("triad", static_cast<std::uint64_t>(t))
            .arg("saturated", std::string(saturated ? "true" : "false"));
        if (saturated) {
          SeqTally tally(width);
          tally.add(std::span(rs).first(probed), const_fj_of(sim));
          finish(tally, t);
          return;
        }
      }
      if (safe) {
        unsaturated[t] = 1;
        return;
      }
      // Nothing is copyable below a reference that is not cycle-safe:
      // step on from the probe through the full budget.
      obs::ScopedSpan span("characterize.seq.replay", "characterize");
      if (probed == 0) start_at(sim, t);
      sim.step_cycle_batch({ops.data() + probed * nops, (cycles - probed) * nops},
                           cycles - probed, std::span(rs).subspan(probed));
      SeqTally tally(width);
      tally.add(rs, const_fj_of(sim));
      finish(tally, t);
      span.arg("triad", static_cast<std::uint64_t>(t))
          .arg("first", std::uint64_t{0})
          .arg("cycles", static_cast<std::uint64_t>(cycles))
          .arg("simulated", static_cast<std::uint64_t>(cycles))
          .arg("stretches", std::uint64_t{1});
    };
    shared_thread_pool().parallel(
        active.size(),
        [&](std::size_t i) {
          std::unique_ptr<SeqSim> sim = shelf.take();
          probe(*sim, active[i]);
          shelf.put(std::move(sim));
        },
        config.threads);
    for (const std::size_t t : active)
      if (unsaturated[t]) split.push_back(t);
  }

  // Phase 4: the unsaturated replays, cut into pieces that each start
  // in sync with the reference run — one pool job over every (triad,
  // piece), triad-major. Whichever task completes the next piece of a
  // triad in cycle order stitches it into the triad's serial replay
  // (SparseReplayStitch, which re-steps from the last resync point
  // where the trajectory is not at one at the piece's first cycle),
  // adds it to the triad's tally and frees it, so only the pieces that
  // finished ahead of their turn stay alive. Pipelines come from the
  // shelf and go back to it, save one that holds a re-step carried over
  // to the triad's next piece.
  const std::size_t npieces = (cycles + piece - 1) / piece;
  struct Fold {
    std::mutex m;
    std::vector<std::vector<SeqCycleResult>> ready;  // by piece
    std::vector<std::size_t> simulated;              // by piece
    std::size_t next = 0;  // next piece to stitch
    bool busy = false;     // a task is stitching
    std::optional<SparseReplayStitch> stitch;
    std::unique_ptr<SeqSim> sim;  // a re-step carried to the next piece
    std::optional<SeqTally> tally;
    double const_fj = 0.0;
  };
  std::vector<Fold> folds(split.size());
  for (std::size_t k = 0; k < split.size(); ++k) {
    Fold& f = folds[k];
    f.ready.resize(npieces);
    f.simulated.resize(npieces);
    f.stitch.emplace(ops, reference, tau[split[k]], latency);
    f.tally.emplace(width);
  }
  shared_thread_pool().parallel(
      split.size() * npieces,
      [&](std::size_t i) {
        const std::size_t k = i / npieces;
        const std::size_t j = i % npieces;
        const std::size_t t = split[k];
        const std::size_t b = j * piece;
        std::unique_ptr<SeqSim> sim = shelf.take();
        std::vector<SeqCycleResult> rs(std::min(piece, cycles - b));
        SparseReplayStats stats;
        {
          obs::ScopedSpan span("characterize.seq.replay", "characterize");
          stats = sim->replay_piece(ops, reference, tau[t], b, rs);
          span.arg("triad", static_cast<std::uint64_t>(t))
              .arg("first", static_cast<std::uint64_t>(b))
              .arg("cycles", static_cast<std::uint64_t>(rs.size()))
              .arg("simulated", static_cast<std::uint64_t>(stats.simulated))
              .arg("stretches", static_cast<std::uint64_t>(stats.stretches));
        }
        Fold& f = folds[k];
        std::unique_lock lk(f.m);
        if (j == 0) f.const_fj = const_fj_of(*sim);
        f.ready[j] = std::move(rs);
        f.simulated[j] = stats.simulated;
        if (!f.busy) {
          f.busy = true;
          while (f.next < npieces && !f.ready[f.next].empty()) {
            std::vector<SeqCycleResult> p =
                std::exchange(f.ready[f.next], {});
            const std::size_t first = f.next * piece;
            const std::size_t simulated = f.simulated[f.next];
            lk.unlock();
            {
              obs::ScopedSpan span("characterize.seq.stitch",
                                   "characterize");
              // A re-step carried over from the last piece continues on
              // its pipeline; any other runs on this task's.
              if (!f.sim) f.sim = std::move(sim);
              const std::size_t restepped = f.stitch->stitch(p, *f.sim);
              if (!f.stitch->stepping()) {
                if (sim) shelf.put(std::move(f.sim));
                else sim = std::move(f.sim);
              }
              f.tally->add(p, f.const_fj);
              span.arg("triad", static_cast<std::uint64_t>(t))
                  .arg("first", static_cast<std::uint64_t>(first))
                  .arg("simulated", static_cast<std::uint64_t>(simulated))
                  .arg("restepped", static_cast<std::uint64_t>(restepped));
            }
            lk.lock();
            ++f.next;
          }
          f.busy = false;
          if (f.next == npieces) {
            finish(*f.tally, t);
            // A capture that never resynced leaves its stitch stepping.
            if (f.sim) shelf.put(std::move(f.sim));
          }
        }
        lk.unlock();
        if (sim) shelf.put(std::move(sim));
      },
      config.threads);
  return results;
}

}  // namespace

std::vector<TriadResult> characterize_dut(
    const DutNetlist& dut, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const CharacterizeConfig& config) {
  VOSIM_EXPECTS(!triads.empty());
  VOSIM_EXPECTS(config.num_patterns > 0);

  // patterns[0] settles the initial state, patterns[1..num_patterns]
  // are streamed.
  const std::vector<std::uint64_t> pats =
      generate_patterns(config, dut.operand_widths(), config.num_patterns + 1);
  const std::size_t nops = dut.num_operands();

  // Provenance needs observer dispatch, which the multi-threshold
  // sweep pass does not do — route those sweeps to the per-triad loop.
  if (config.engine == EngineKind::kLevelized && !config.provenance)
    return characterize_levelized_sweep(dut, lib, triads, config, pats);

  std::vector<TriadResult> results(triads.size());
  std::vector<std::unique_ptr<ErrorProvenance>> provs(
      config.provenance ? triads.size() : 0);

  // One persistent pool across the whole grid (and across repeated
  // sweeps in the same process): triads are the parallel unit, patterns
  // stream through each simulator in batches.
  shared_thread_pool().parallel(
      triads.size(),
      [&](std::size_t t) {
        const OperatingTriad& op = triads[t];
        VosDutSim sim(dut, lib, op,
                      die_sim_config(config.variation_sigma,
                                     config.variation_seed, config.engine));
        if (config.provenance) {
          provs[t] = std::make_unique<ErrorProvenance>(dut);
          sim.engine().attach_observer(provs[t].get());
        }

        ErrorAccumulator acc(sim.output_width());
        double energy = 0.0;
        double dyn = 0.0;
        double settle = 0.0;

        // Establish a settled initial state from the first pattern.
        sim.reset({pats.data(), nops});

        std::vector<VosOpResult> r_buf(kBatch);

        std::size_t done = 0;
        while (done < config.num_patterns) {
          const std::size_t n =
              std::min(kBatch, config.num_patterns - done);
          const std::span<const std::uint64_t> ops_flat{
              pats.data() + (1 + done) * nops, n * nops};
          sim.apply_batch(ops_flat, n, {r_buf.data(), n});
          for (std::size_t i = 0; i < n; ++i) {
            const VosOpResult& r = r_buf[i];
            // Reference: the golden function, or the DUT's own settled
            // value (timing errors only — correct for approximate units
            // and non-adders alike).
            acc.add(config.golden
                        ? config.golden(ops_flat.subspan(i * nops, nops))
                        : r.settled,
                    r.sampled);
            energy += r.energy_fj;
            dyn += r.energy_fj - sim.leakage_energy_fj();
            settle += r.settle_time_ps;
          }
          done += n;
        }

        TriadResult& res = results[t];
        res.triad = op;
        set_error_metrics(res, acc);
        const auto n = static_cast<double>(config.num_patterns);
        res.energy_per_op_fj = energy / n;
        res.dynamic_energy_fj = dyn / n;
        res.leakage_energy_fj = sim.leakage_energy_fj();
        res.mean_settle_ps = settle / n;
        res.patterns = config.num_patterns;
        if (config.provenance) {
          res.provenance = provs[t]->summary();
          if (res.provenance.culprits.size() > config.top_culprits)
            res.provenance.culprits.resize(config.top_culprits);
        }
      },
      config.threads);

  if (config.provenance) {
    // One sweep-wide roll-up into the process metrics registry.
    for (std::size_t t = 1; t < provs.size(); ++t)
      provs[0]->merge(*provs[t]);
    provs[0]->publish("provenance.comb", config.top_culprits);
  }
  return results;
}

std::vector<TriadResult> characterize_seq_dut(
    const SeqDut& seq, const CellLibrary& lib,
    const std::vector<OperatingTriad>& triads,
    const CharacterizeConfig& config) {
  VOSIM_EXPECTS(!triads.empty());
  VOSIM_EXPECTS(config.num_patterns > 0);

  // The shared stimulus sequence over the pipeline's external operands
  // (stage 0's buses) — identical at every triad, like the
  // combinational sweep.
  const std::size_t nops = seq.num_operands();
  const std::vector<std::uint64_t> pats =
      generate_patterns(config, seq.operand_widths(), config.num_patterns);

  // Levelized grids ride the normalized fast path (one die, sliding
  // capture threshold). Provenance forces the per-triad loop below: the
  // normalized replay retargets one shared pipeline and never
  // dispatches observers.
  if (config.engine == EngineKind::kLevelized && !config.provenance)
    return characterize_seq_levelized_norm(seq, lib, triads, config,
                                           pats);

  std::vector<TriadResult> results(triads.size());
  std::vector<std::vector<std::unique_ptr<ErrorProvenance>>> sprovs(
      config.provenance ? triads.size() : 0);
  shared_thread_pool().parallel(
      triads.size(),
      [&](std::size_t t) {
        SeqSim sim(seq, lib, triads[t],
                   die_sim_config(config.variation_sigma,
                                  config.variation_seed, config.engine));
        if (config.provenance) {
          // One ErrorProvenance per stage, labelled "s<k>:" so culprit
          // names identify the stage.
          auto& sv = sprovs[t];
          sv.reserve(sim.num_stages());
          for (std::size_t k = 0; k < sim.num_stages(); ++k) {
            const DutPinMap spins(seq.stages[k]);
            sv.push_back(std::make_unique<ErrorProvenance>(
                seq.stages[k].netlist, spins, static_cast<int>(k)));
            sim.stage_engine(k).attach_observer(sv[k].get());
          }
        }

        ErrorAccumulator acc(sim.output_width());
        double energy = 0.0;
        double settle = 0.0;
        const std::size_t cycles =
            config.num_patterns + sim.latency_cycles() - 1;
        // One contiguous clocked stream: the patterns plus zero-operand
        // flush cycles that drain the pipeline, batched through the
        // engines' native cycle path.
        std::vector<std::uint64_t> ops(cycles * nops, 0);
        std::copy(pats.begin(), pats.end(), ops.begin());
        std::vector<SeqCycleResult> rs(cycles);
        sim.step_cycle_batch(ops, cycles, rs);
        for (std::size_t c = 0; c < cycles; ++c) {
          const SeqCycleResult& r = rs[c];
          energy += r.energy_fj;
          settle += r.max_settle_ps;
          if (r.output_valid) acc.add(r.expected, r.captured);
        }

        TriadResult& res = results[t];
        res.triad = triads[t];
        set_error_metrics(res, acc);
        const auto n = static_cast<double>(cycles);
        res.energy_per_op_fj = energy / n;
        res.dynamic_energy_fj =
            energy / n - sim.leakage_energy_fj_per_cycle();
        res.leakage_energy_fj = sim.leakage_energy_fj_per_cycle();
        res.mean_settle_ps = settle / n;
        res.patterns = config.num_patterns;
        if (config.provenance) {
          std::vector<ProvenanceSummary> per_stage;
          per_stage.reserve(sprovs[t].size());
          for (const auto& p : sprovs[t])
            per_stage.push_back(p->summary());
          res.provenance =
              combine_stage_summaries(per_stage, config.top_culprits);
        }
      },
      config.threads);

  if (config.provenance) {
    // Sweep-wide roll-up per stage (stage netlists differ, so stages
    // merge only across triads, never with each other).
    for (std::size_t k = 0; k < sprovs[0].size(); ++k) {
      for (std::size_t t = 1; t < sprovs.size(); ++t)
        sprovs[0][k]->merge(*sprovs[t][k]);
      sprovs[0][k]->publish("provenance.seq.s" + std::to_string(k),
                            config.top_culprits);
    }
  }
  return results;
}

TimingSimConfig die_sim_config(double variation_sigma,
                               std::uint64_t variation_seed,
                               EngineKind engine) {
  TimingSimConfig cfg;
  cfg.variation_sigma = variation_sigma;
  cfg.variation_seed = variation_seed;
  cfg.engine = engine;
  return cfg;
}

double energy_efficiency(double energy_fj, double baseline_fj) {
  VOSIM_EXPECTS(baseline_fj > 0.0);
  return 1.0 - energy_fj / baseline_fj;
}

}  // namespace vosim
