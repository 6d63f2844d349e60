#include "src/seq/seq_sim.hpp"

#include <algorithm>

#include "src/netlist/eval.hpp"
#include "src/util/bits.hpp"
#include "src/tech/library.hpp"
#include "src/util/contracts.hpp"
#include "src/util/lanes.hpp"

namespace vosim {

namespace {

/// Packs per-bus operand words back into one registered bank word
/// (inverse of split_bank_word).
std::uint64_t pack_bank_word(std::span<const std::uint64_t> words,
                             std::span<const int> widths) {
  VOSIM_EXPECTS(words.size() == widths.size());
  std::uint64_t out = 0;
  int shift = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    out |= words[i] << shift;
    shift += widths[i];
  }
  return out;
}

/// Shortest run of copyable reference cycles a sparse replay's dirty
/// stretch stops for. Leaving costs a warm start and restarts the
/// chunk ladder at latency + 1 cycles; on the registry pipelines a
/// shorter gap is cheaper to step through.
constexpr std::size_t kMinCopyRun = 16;

}  // namespace

SeqSim::SeqSim(const SeqDut& seq, const CellLibrary& lib,
               const OperatingTriad& op, const TimingSimConfig& config,
               std::size_t monitor_window)
    : seq_(seq), op_(op) {
  VOSIM_EXPECTS(!seq.stages.empty());
  // Per-flop setup check: every stage engine captures at Tclk − t_setup,
  // so a transition inside the setup window misses the register. The
  // engines run entirely on that shortened period (launch and capture
  // coincide; the setup window is borrowed from the next cycle's
  // propagation — DESIGN.md §10); leakage, a per-real-Tclk cost, is
  // rescaled back to the full period.
  const double setup_ns = lib.dff_setup_ps() * 1e-3;
  VOSIM_EXPECTS(op.tclk_ns > setup_ns);
  const OperatingTriad capture{op.tclk_ns - setup_ns, op.vdd_v, op.vbb_v};
  capture_tclk_ps_ = capture.tclk_ns * 1e3;
  leakage_scale_ = op.tclk_ns / capture.tclk_ns;

  tracing_ = config.record_trace && config.engine == EngineKind::kEvent;
  clock_energy_fj_ = seq_clock_energy_fj(seq, lib, op.vdd_v);

  pins_.reserve(seq.stages.size());
  engines_.reserve(seq.stages.size());
  for (const DutNetlist& stage : seq.stages) {
    pins_.emplace_back(stage);
    engines_.push_back(make_engine(stage.netlist, lib, capture, config));
  }
  if (tracing_) {
    // One bundled TraceRecorder per stage; the engines emit their
    // transitions through the observer interface and the recorders
    // hand each cycle's trace to step_cycle_batch.
    recorders_.resize(seq.stages.size());
    for (std::size_t k = 0; k < seq.stages.size(); ++k)
      engines_[k]->attach_observer(&recorders_[k]);
  }
  // Batch-path precomputation. bank_slot_[k][j]: the PI slot of bit j
  // of stage k's packed bank word — split_bank_word concatenates the
  // operand buses in order, so bank bit j of bus b (at offset Σ earlier
  // widths) lands on pins_[k].input_slots(b)[j - offset]. stage_po_net_
  // resolves output-bus bit i through the pin map to the net that
  // drives it, and stage_leak_fj_ hoists the per-cycle leakage product
  // (bit-identical to evaluating it in the loop).
  bank_slot_.resize(seq.stages.size());
  stage_po_net_.resize(seq.stages.size());
  stage_leak_fj_.reserve(seq.stages.size());
  for (std::size_t k = 0; k < seq.stages.size(); ++k) {
    for (std::size_t b = 0; b < pins_[k].num_operands(); ++b) {
      const auto slots = pins_[k].input_slots(b);
      bank_slot_[k].insert(bank_slot_[k].end(), slots.begin(), slots.end());
    }
    const auto pos = seq.stages[k].netlist.primary_outputs();
    for (const std::size_t s : pins_[k].output_slots())
      stage_po_net_[k].push_back(pos[s]);
    stage_leak_fj_.push_back(engines_[k]->leakage_energy_fj_per_op() *
                             leakage_scale_);
  }
  stage_sampled_.assign(seq.stages.size(), 0);
  monitors_.reserve(seq.stages.size());
  for (std::size_t k = 0; k < seq.stages.size(); ++k)
    monitors_.emplace_back(seq.stages[k].output_width(), monitor_window);
  reset();
}

void SeqSim::reset() {
  for (std::size_t k = 0; k < engines_.size(); ++k) {
    const std::size_t npis =
        seq_.stages[k].netlist.primary_inputs().size();
    const std::vector<std::uint8_t> zeros(npis, 0);
    engines_[k]->reset(zeros);
    // The stage drives its settled-at-zero outputs into the bank wires;
    // that is what the next capture edge would latch.
    stage_sampled_[k] = pins_[k].gather_output(pack_word(
        engines_[k]->settled_values(),
        seq_.stages[k].netlist.primary_outputs()));
    monitors_[k].reset_window();
  }
  golden_.clear();
  traces_.clear();
  cycles_ = 0;
}

bool SeqSim::retarget_capture_ps(double capture_ps) {
  VOSIM_EXPECTS(capture_ps > 0.0);
  for (const auto& e : engines_)
    if (e->kind() != EngineKind::kLevelized) return false;
  for (auto& e : engines_) e->retarget_tclk_ps(capture_ps);
  capture_tclk_ps_ = capture_ps;
  for (std::size_t k = 0; k < engines_.size(); ++k)
    stage_leak_fj_[k] =
        engines_[k]->leakage_energy_fj_per_op() * leakage_scale_;
  return true;
}

bool SeqSim::cycle_safe() const {
  return std::all_of(engines_.begin(), engines_.end(),
                     [](const auto& e) { return e->cycle_safe(); });
}

double SeqSim::leakage_energy_fj_per_cycle() const noexcept {
  double leak = 0.0;
  for (const auto& e : engines_) leak += e->leakage_energy_fj_per_op();
  return leak * leakage_scale_;
}

double SeqSim::worst_stage_op_error_rate() const {
  double worst = 0.0;
  for (const DoubleSamplingMonitor& m : monitors_)
    worst = std::max(worst, m.window_op_error_rate());
  return worst;
}

void SeqSim::reset_monitor_windows() {
  for (DoubleSamplingMonitor& m : monitors_) m.reset_window();
}

SeqCycleResult SeqSim::step_cycle(std::span<const std::uint64_t> operands) {
  SeqCycleResult r;
  step_cycle_batch(operands, 1, {&r, 1});
  return r;
}

SeqCycleResult SeqSim::step_cycle(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t ops[2] = {a, b};
  return step_cycle(std::span<const std::uint64_t>(ops, 2));
}

void SeqSim::golden_output_batch(std::span<const std::uint64_t> operands,
                                 std::size_t count, std::uint64_t* out) {
  VOSIM_EXPECTS(count >= 1 && count <= lanes::kWordLanes);
  const std::size_t nops = seq_.num_operands();
  // `out` carries the per-cycle bus word between stages: after stage k
  // it holds stage k's golden output for every cycle of the chunk
  // (the golden composition is zero-latency within a cycle). Operand
  // bits scatter straight into per-PI lane words through the
  // precomputed slot maps — no per-cycle split/fill round-trip — and
  // each out[c] gathers through stage_po_net_ (bit-identical: the same
  // slot composition fill_inputs/gather_output would apply).
  for (std::size_t k = 0; k < seq_.stages.size(); ++k) {
    const Netlist& nl = seq_.stages[k].netlist;
    const std::size_t npis = nl.primary_inputs().size();
    golden_pi_words_.assign(npis, 0);
    if (k == 0) {
      for (std::size_t c = 0; c < count; ++c)
        for (std::size_t b = 0; b < nops; ++b) {
          const std::uint64_t op = operands[c * nops + b];
          const auto slots = pins_[0].input_slots(b);
          for (std::size_t i = 0; i < slots.size(); ++i)
            golden_pi_words_[slots[i]] |=
                ((op >> i) & 1ULL) << c;
        }
    } else {
      const auto& bs = bank_slot_[k];
      for (std::size_t c = 0; c < count; ++c) {
        const std::uint64_t w = out[c];
        for (std::size_t j = 0; j < bs.size(); ++j)
          golden_pi_words_[bs[j]] |= ((w >> j) & 1ULL) << c;
      }
    }
    golden_values_.resize(nl.num_nets());
    evaluate_logic_packed(nl, golden_pi_words_, golden_values_);
    const auto& pn = stage_po_net_[k];
    for (std::size_t c = 0; c < count; ++c) {
      std::uint64_t o = 0;
      for (std::size_t i = 0; i < pn.size(); ++i)
        o |= ((golden_values_[pn[i]] >> c) & 1ULL) << i;
      out[c] = o;
    }
  }
}

void SeqSim::step_cycle_batch(std::span<const std::uint64_t> operands,
                              std::size_t count,
                              std::span<SeqCycleResult> results,
                              std::span<double> stage_window_fj) {
  const std::size_t nops = seq_.num_operands();
  const std::size_t stages = engines_.size();
  const bool want_windows = !stage_window_fj.empty();
  VOSIM_EXPECTS(operands.size() == count * nops);
  VOSIM_EXPECTS(results.size() >= count);
  VOSIM_EXPECTS(!want_windows || stage_window_fj.size() >= count * stages);
  // Chunk at one lane word so every levelized pass and the packed
  // golden composition (evaluate_logic_packed) run full. A tracing
  // simulator steps chunks of one cycle: a stage recorder holds the
  // trace of its engine's last call only.
  const std::size_t max_chunk = tracing_ ? 1 : lanes::kWordLanes;
  std::size_t done = 0;
  while (done < count) {
    const std::size_t chunk = std::min(max_chunk, count - done);
    SeqCycleTrace trace;
    batch_golden_.resize(chunk);
    golden_output_batch(operands.subspan(done * nops, chunk * nops), chunk,
                        batch_golden_.data());

    // Stage by stage: stage k's cycle-c bank latches stage k-1's sample
    // from cycle c-1 (cycle 0 latches the carried stage_sampled_), so a
    // full chunk of stage k-1 samples — shifted by one cycle — is
    // exactly stage k's operand stream for the whole chunk.
    batch_results_.resize(stages * chunk);
    batch_sampled_w_.resize(stages * chunk);
    batch_shadow_w_.resize(stages * chunk);
    // Lane c set: every stage ended cycle c settled (one engine pass
    // per stage per chunk, so each stage's word covers the chunk).
    std::uint64_t settled = ~std::uint64_t{0};
    for (std::size_t k = 0; k < stages; ++k) {
      const std::size_t npis =
          seq_.stages[k].netlist.primary_inputs().size();
      batch_inputs_.assign(chunk * npis, 0);
      // Direct bit scatter through the precomputed slot maps — the
      // same slots fill_inputs would write, without the per-cycle
      // split_bank_word allocation.
      if (k == 0) {
        for (std::size_t c = 0; c < chunk; ++c)
          for (std::size_t b = 0; b < nops; ++b) {
            const std::uint64_t op = operands[(done + c) * nops + b];
            const auto slots = pins_[0].input_slots(b);
            VOSIM_EXPECTS(
                (op & ~mask_n(static_cast<int>(slots.size()))) == 0);
            for (std::size_t i = 0; i < slots.size(); ++i)
              batch_inputs_[c * npis + slots[i]] =
                  static_cast<std::uint8_t>((op >> i) & 1ULL);
          }
      } else {
        const auto& bs = bank_slot_[k];
        for (std::size_t c = 0; c < chunk; ++c) {
          const std::uint64_t prev =
              c == 0 ? stage_sampled_[k - 1]
                     : batch_sampled_w_[(k - 1) * chunk + (c - 1)];
          std::uint8_t* in = &batch_inputs_[c * npis];
          for (std::size_t j = 0; j < bs.size(); ++j)
            in[bs[j]] = static_cast<std::uint8_t>((prev >> j) & 1ULL);
        }
      }
      engines_[k]->step_cycle_batch(
          batch_inputs_, chunk,
          std::span<StepResult>(&batch_results_[k * chunk], chunk));
      settled &= engines_[k]->settled_lanes();
      if (tracing_) {
        // The bank this cycle latched: the external operands, or stage
        // k-1's last capture, whose width make_seq_dut makes stage k's
        // packed bank width.
        trace.bank_words.push_back(
            k == 0 ? pack_bank_word(operands.subspan(done * nops, nops),
                                    seq_.stages[0].operand_widths())
                   : stage_sampled_[k - 1]);
        TraceRecorder& rec = recorders_[k];
        trace.stage_initial.emplace_back(rec.initial_values().begin(),
                                         rec.initial_values().end());
        trace.stage_events.push_back(rec.take_trace());
      }
      for (std::size_t c = 0; c < chunk; ++c) {
        const StepResult& st = batch_results_[k * chunk + c];
        batch_sampled_w_[k * chunk + c] =
            pins_[k].gather_output(st.sampled_outputs);
        batch_shadow_w_[k * chunk + c] =
            pins_[k].gather_output(st.settled_outputs);
      }
    }

    // Per-cycle composition: energy terms added stage by stage,
    // monitors fed cycle-ascending, golden queue pushed and popped once
    // per cycle.
    if (!want_windows) stage_window_.resize(chunk * stages);
    double* win = want_windows ? &stage_window_fj[done * stages]
                               : stage_window_.data();
    for (std::size_t c = 0; c < chunk; ++c) {
      SeqCycleResult& r = results[done + c];
      r = SeqCycleResult{};
      for (std::size_t k = 0; k < stages; ++k) {
        const StepResult& st = batch_results_[k * chunk + c];
        const std::uint64_t diff = batch_sampled_w_[k * chunk + c] ^
                                   batch_shadow_w_[k * chunk + c];
        monitors_[k].record_word(diff);
        if (diff != 0) r.razor_flags |= 1u << k;
        win[c * stages + k] = st.window_energy_fj;
        r.max_settle_ps = std::max(r.max_settle_ps, st.settle_time_ps);
      }
      r.energy_fj = cycle_energy_fj({win + c * stages, stages});
      r.settled = ((settled >> c) & 1u) != 0;
      r.captured = batch_sampled_w_[(stages - 1) * chunk + c];
      golden_.push_back(batch_golden_[c]);
      if (golden_.size() == latency_cycles()) {
        r.expected = golden_.front();
        golden_.pop_front();
        r.output_valid = true;
      }
      ++cycles_;
    }
    for (std::size_t k = 0; k < stages; ++k)
      stage_sampled_[k] = batch_sampled_w_[k * chunk + (chunk - 1)];
    if (tracing_) {
      trace.bank_words.push_back(results[done].captured);
      traces_.push_back(std::move(trace));
    }
    done += chunk;
  }
}

double SeqSim::cycle_energy_fj(
    std::span<const double> stage_window_fj) const {
  VOSIM_EXPECTS(stage_window_fj.size() == engines_.size());
  double e = clock_energy_fj_;
  for (std::size_t k = 0; k < engines_.size(); ++k)
    e += stage_window_fj[k] + stage_leak_fj_[k];
  return e;
}

void SeqSim::warm_start(std::span<const std::uint64_t> operands,
                        std::size_t b) {
  const std::size_t nops = seq_.num_operands();
  const std::size_t w = std::min(b, latency_cycles());
  VOSIM_EXPECTS(operands.size() >= b * nops);
  reset();
  warm_results_.resize(w);
  step_cycle_batch(operands.subspan((b - w) * nops, w * nops), w,
                   warm_results_);
}

SparseReplayStats SeqSim::replay_sparse(
    std::span<const std::uint64_t> operands, std::size_t count,
    const SeqReference& ref, double capture_ps,
    std::span<SeqCycleResult> results, std::size_t stepped) {
  const std::size_t nops = seq_.num_operands();
  const std::size_t stages = engines_.size();
  const std::size_t lat = latency_cycles();
  VOSIM_EXPECTS(operands.size() == count * nops);
  VOSIM_EXPECTS(results.size() >= count && stepped <= count);
  VOSIM_EXPECTS(capture_tclk_ps_ == capture_ps || stepped == 0);
  const bool levelized = retarget_capture_ps(ref.capture_ps);
  VOSIM_EXPECTS(levelized);
  // The gate: only a cycle-safe reference state is the settled
  // function of the stream, the state warm_start reaches and a settled
  // stretch returns to.
  const bool copy = cycle_safe();
  VOSIM_EXPECTS(!copy || (ref.cycles.size() >= count &&
                          ref.stage_window_fj.size() >= count * stages));
  retarget_capture_ps(capture_ps);

  // Copyable reference cycles from cycle b on, counted up to
  // kMinCopyRun (the end of the stream counts as an endless run).
  const auto copy_run = [&](std::size_t b) {
    std::size_t e = b;
    while (e < count && e - b < kMinCopyRun &&
           ref.cycles[e].max_settle_ps < capture_ps)
      ++e;
    return e == count ? kMinCopyRun : e - b;
  };

  // The replay is either in sync with the reference — the reset state
  // is the reference's at cycle 0 — or inside a dirty stretch, which
  // the cycles already stepped form when resuming.
  SparseReplayStats stats;
  std::size_t c = stepped;
  bool in_sync = stepped == 0;
  std::size_t clean = 0;  // trailing settled cycles of the stretch
  for (std::size_t i = 0; i < stepped; ++i)
    clean = results[i].settled ? clean + 1 : 0;
  std::size_t chunk = lat + 1;
  while (c < count) {
    if (in_sync) {
      if (copy && ref.cycles[c].max_settle_ps < capture_ps) {
        // Every commit of the reference's cycle lands before this edge
        // too: the cycle is the reference's, recomposed at capture_ps.
        results[c] = ref.cycles[c];
        results[c].energy_fj =
            cycle_energy_fj(ref.stage_window_fj.subspan(c * stages, stages));
        ++c;
        continue;
      }
      // A dirty stretch from cycle c: warm-start to the reference
      // state at c and step on at capture_ps.
      retarget_capture_ps(ref.capture_ps);
      warm_start(operands, c);
      retarget_capture_ps(capture_ps);
      stats.simulated += std::min(c, lat);
      ++stats.stretches;
      in_sync = false;
      clean = 0;
      chunk = lat + 1;
    }
    // `lat` consecutive settled cycles put every stage and bank back in
    // the reference state; the stretch ends there if a run of copyable
    // cycles follows.
    if (copy && clean >= lat && copy_run(c) >= kMinCopyRun) {
      in_sync = true;
      continue;
    }
    const std::size_t n = std::min(chunk, count - c);
    step_cycle_batch(operands.subspan(c * nops, n * nops), n,
                     results.subspan(c, n));
    for (std::size_t i = c; i < c + n; ++i)
      clean = results[i].settled ? clean + 1 : 0;
    c += n;
    stats.simulated += n;
    chunk = std::min(2 * chunk, lanes::kWordLanes);
  }
  return stats;
}

}  // namespace vosim
