#include "src/sim/levelized_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "src/netlist/eval.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/probe.hpp"
#include "src/sim/threshold_buckets.hpp"
#include "src/sta/sta.hpp"
#include "src/tech/cell.hpp"
#include "src/tech/gate_timing.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {

using lanes::Word;

namespace {

/// Accounting policy for one fixed clock threshold: per-lane SoA
/// accumulators (folded into StepResults by run_lanes — contiguous
/// arrays keep the hot commit loops cache-dense and vectorizable).
/// kWindowOnly drops the totals: in cycle mode nothing is simulated
/// past the edge, so run_lanes reports totals == window and tracking
/// both is pure waste there.
template <bool kWindowOnly>
struct SingleThresholdAcct {
  double tclk_ps;
  std::size_t nlanes;  ///< word sweeps stop here (1 for scalar passes)
  double* win_e;
  double* settle;
  std::uint32_t* win_t;
  double* tot_e;         // null when kWindowOnly
  std::uint32_t* tot_t;  // null when kWindowOnly

  bool commit(NetId /*net*/, std::size_t k, double tc, double energy) {
    if constexpr (!kWindowOnly) {
      ++tot_t[k];
      tot_e[k] += energy;
    }
    settle[k] = std::max(settle[k], tc);
    if (tc < tclk_ps) {
      ++win_t[k];
      win_e[k] += energy;
      return true;
    }
    return false;
  }

  /// Word commit at t = 0 (primary-input launch commits): in-window by
  /// definition, and settle = max(settle, 0) is a no-op. The
  /// branchless sweep auto-vectorizes; inactive lanes contribute
  /// bitwise-identity no-ops — += 0.0 (the accumulators are sums of
  /// non-negative terms, never -0.0) and a tout self-assign — so each
  /// lane holds exactly what per-lane commit() calls would produce.
  void commit_word_zero(NetId /*net*/, Word m, double energy,
                        double* tout) {
    double* __restrict we = win_e;
    double* __restrict to = tout;
    std::uint32_t* __restrict wt = win_t;
    for (std::size_t k = 0; k < nlanes; ++k) {
      const bool a = ((m >> k) & 1ULL) != 0;
      we[k] += a ? energy : 0.0;
      to[k] = a ? 0.0 : to[k];
      wt[k] += static_cast<std::uint32_t>(a);
    }
    if constexpr (!kWindowOnly) {
      double* __restrict te = tot_e;
      std::uint32_t* __restrict tt = tot_t;
      for (std::size_t k = 0; k < nlanes; ++k) {
        const bool a = ((m >> k) & 1ULL) != 0;
        te[k] += a ? energy : 0.0;
        tt[k] += static_cast<std::uint32_t>(a);
      }
    }
  }
};

/// Accounting policy for a whole ascending threshold set: every commit
/// lands in the bucket of the first threshold it misses, so one prefix
/// pass later yields per-threshold window energies, and an
/// XOR-difference per primary output yields per-threshold sampled
/// words (a net's sampled value at τ is its stale value XOR the parity
/// of its commits before τ).
struct MultiThresholdAcct {
  static constexpr std::size_t kLanes = lanes::kWordLanes;

  const ThresholdBuckets& bucket;
  std::size_t nthr;
  std::size_t nlanes;
  double* ediff;              // (nthr+1) × kLanes, bucket-major
  Word* sdiff;                // nPO × (nthr+1)
  double* settle;             // per lane
  const std::int32_t* po_index;

  /// Word commit at t = 0 (primary-input launch commits): every
  /// threshold is positive, so each lands in bucket 0, and settle =
  /// max(settle, 0) is a no-op. Inactive lanes add +0.0 and
  /// self-assign their time, as in SingleThresholdAcct, so each lane
  /// holds exactly what per-lane commit() calls would produce.
  void commit_word_zero(NetId net, Word m, double energy, double* tout) {
    double* __restrict e0 = ediff;
    double* __restrict to = tout;
    for (std::size_t k = 0; k < nlanes; ++k) {
      const bool a = ((m >> k) & 1ULL) != 0;
      e0[k] += a ? energy : 0.0;
      to[k] = a ? 0.0 : to[k];
    }
    const std::int32_t po = po_index[net];
    if (po >= 0) sdiff[static_cast<std::size_t>(po) * (nthr + 1)] ^= m;
  }

  bool commit(NetId net, std::size_t k, double tc, double energy) {
    const std::size_t b = bucket(tc);
    ediff[b * kLanes + k] += energy;
    settle[k] = std::max(settle[k], tc);
    const std::int32_t po = po_index[net];
    if (po >= 0)
      lanes::toggle_lane(sdiff[static_cast<std::size_t>(po) * (nthr + 1) + b],
                         k);
    return false;  // no single sampled word is maintained in sweep mode
  }
};

/// cell_truth(kind) from a table built once: the passes look a gate's
/// truth table up per gate, and cell_truth rebuilds it on every call.
std::uint16_t cell_truth_of(CellKind kind) {
  static const auto table = [] {
    std::array<std::uint16_t, cell_kind_count> t{};
    for (int k = 0; k < cell_kind_count; ++k)
      t[static_cast<std::size_t>(k)] = cell_truth(static_cast<CellKind>(k));
    return t;
  }();
  return table[static_cast<std::size_t>(kind)];
}

/// One gate of a pass as the per-lane walk bodies below see it. Both
/// dispatchers fill it — the packed one (run_lanes_impl) with whole
/// lane words, the one-lane one (run_one_lane) with lane-0 bits — so a
/// lane's commit sequence is the same code whichever dispatcher
/// reached it. Input timing rows are read only in lanes whose
/// current-pass bit (changed / pulsing) is set: the rows are
/// deliberately uninitialized storage (see time_ps_).
struct GateLanes {
  int n;                ///< gate inputs
  std::uint16_t truth;  ///< cell_truth of the gate
  NetId out;
  double delay;
  double energy;  ///< toggle energy of the output net
  Word in_stale[3];
  Word in_changed[3];
  Word in_pulsing[3];
  Word in_pulsing2[3];
  const double* in_time[3];
  const double* in_ps[3];
  const double* in_pe[3];
  const double* in_ps2[3];
  const double* in_pe2[3];
  /// W[0]: the settled word; W[1 << i]: the gate value with only
  /// input i still stale (the one- and two-changed walks read these).
  Word W[5];
  /// Output lanes whose settled value differs from their stale value.
  Word changed;
  // Built by the walks: sampled value at the edge, lanes that
  // committed a flip, and lanes forwarding one or two glitch pulses.
  Word sampled;
  Word committed;
  Word pulsing;
  Word pulsing2;
  double* tout;
  double* pout_s;
  double* pout_e;
  double* pout2_s;
  double* pout2_e;
};

/// Sensitized single flip at tc (one-changed lanes and the
/// single-commit branch of two-changed lanes).
template <class Acct>
void commit_flip(GateLanes& g, Acct& acct, std::size_t k, double tc) {
  if (acct.commit(g.out, k, tc, g.energy)) lanes::toggle_lane(g.sampled, k);
  lanes::set_lane(g.committed, k);
  g.tout[k] = tc;
}

/// Exactly two changed inputs i and j (i < j), no pulse: the
/// trajectory is stale → mid → settled with mid = the gate with only
/// the later input still old.
template <class Acct>
void two_changed_lane(GateLanes& g, Acct& acct, std::size_t k, int i,
                      int j) {
  double tf = g.in_time[i][k];
  double ts = g.in_time[j][k];
  unsigned mid = 1u << j;
  if (ts < tf) {
    std::swap(tf, ts);
    mid = 1u << i;
  }
  const std::uint8_t mid_diff =
      lanes::lane_bit(g.W[mid], k) ^ lanes::lane_bit(g.W[0], k);
  if (lanes::lane_bit(g.changed, k) != 0) {
    // Single commit: at the first flip when it already produces the
    // final value, else at the second.
    const double tc = (mid_diff == 0 ? tf : ts) + g.delay;
    commit_flip(g, acct, k, tc);
  } else if (mid_diff != 0 && tf + g.delay <= ts) {
    // Surviving glitch pulse [tf+delay, ts+delay) on an unchanged
    // output: two commits, forwarded downstream; a capture edge inside
    // it samples the transient.
    const double t1 = tf + g.delay;
    const double t2 = ts + g.delay;
    if (acct.commit(g.out, k, t1, g.energy)) lanes::toggle_lane(g.sampled, k);
    if (acct.commit(g.out, k, t2, g.energy)) lanes::toggle_lane(g.sampled, k);
    lanes::set_lane(g.pulsing, k);
    g.pout_s[k] = t1;
    g.pout_e[k] = t2;
  }
}

/// The generic event walk over a lane's ≤15 input events (flip per
/// changed input, flip-and-return pair per forwarded pulse). Both
/// dispatchers send every pulse-fed lane and every pulse-free lane with
/// three changed inputs here. A pulse-fed lane starts from the gate
/// function of its stale inputs; any other lane starts from its launch
/// value (settled XOR changed) — in cycle mode the truncated sampled
/// value, which need not equal the gate function of the stale inputs.
template <class Acct>
void event_walk(GateLanes& g, Acct& acct, std::size_t k) {
  // Up to five events per input: a changed input that bounced twice
  // carries its first flip plus two return pulses.
  double ev_t[15];
  std::uint8_t ev_i[15];
  std::uint8_t ev_bit[15];
  int ne = 0;
  unsigned idx = 0;
  bool pulsed = false;
  for (int i = 0; i < g.n; ++i) {
    const std::uint8_t sbit = lanes::lane_bit(g.in_stale[i], k);
    idx |= static_cast<unsigned>(sbit) << i;
    const auto push = [&](double t, std::uint8_t v) {
      ev_t[ne] = t;
      ev_i[ne] = static_cast<std::uint8_t>(i);
      ev_bit[ne] = v;
      ++ne;
    };
    const auto nbit = static_cast<std::uint8_t>(sbit ^ 1u);
    if (lanes::lane_bit(g.in_changed[i], k) != 0) {
      // First flip to the settled value; each forwarded pulse is a late
      // return trip back to the stale value and out again.
      push(g.in_time[i][k], nbit);
      if (lanes::lane_bit(g.in_pulsing[i], k) != 0) {
        pulsed = true;
        push(g.in_ps[i][k], sbit);
        push(g.in_pe[i][k], nbit);
      }
      if (lanes::lane_bit(g.in_pulsing2[i], k) != 0) {
        pulsed = true;
        push(g.in_ps2[i][k], sbit);
        push(g.in_pe2[i][k], nbit);
      }
    } else {
      // Unchanged input: each pulse is an excursion to the complement
      // of the settled value and back.
      if (lanes::lane_bit(g.in_pulsing[i], k) != 0) {
        pulsed = true;
        push(g.in_ps[i][k], nbit);
        push(g.in_pe[i][k], sbit);
      }
      if (lanes::lane_bit(g.in_pulsing2[i], k) != 0) {
        pulsed = true;
        push(g.in_ps2[i][k], nbit);
        push(g.in_pe2[i][k], sbit);
      }
    }
  }
  if (ne == 0) return;
  for (int x = 1; x < ne; ++x)  // insertion sort, ascending time
    for (int y = x; y > 0 && ev_t[y] < ev_t[y - 1]; --y) {
      std::swap(ev_t[y], ev_t[y - 1]);
      std::swap(ev_i[y], ev_i[y - 1]);
      std::swap(ev_bit[y], ev_bit[y - 1]);
    }
  unsigned cur = pulsed ? (g.truth >> idx) & 1u
                        : lanes::lane_bit(g.W[0] ^ g.changed, k);
  bool pending = false;
  double commit_t = 0.0;
  double cts[4] = {0.0, 0.0, 0.0, 0.0};
  double last_c = 0.0;
  int ncommits = 0;
  const auto do_commit = [&](double tc) {
    cur ^= 1u;
    if (ncommits < 4) cts[ncommits] = tc;
    ++ncommits;
    last_c = tc;
    if (acct.commit(g.out, k, tc, g.energy)) lanes::toggle_lane(g.sampled, k);
    lanes::set_lane(g.committed, k);
  };
  for (int j = 0; j < ne; ++j) {
    if (pending && commit_t <= ev_t[j]) {
      do_commit(commit_t);
      pending = false;
    }
    idx = (idx & ~(1u << ev_i[j])) |
          (static_cast<unsigned>(ev_bit[j]) << ev_i[j]);
    const unsigned v = (g.truth >> idx) & 1u;
    if (v != cur && !pending) {
      pending = true;
      commit_t = ev_t[j] + g.delay;
    } else if (v == cur && pending) {
      pending = false;  // inertial cancellation
    }
  }
  if (pending) do_commit(commit_t);
  if (lanes::lane_bit(g.changed, k) != 0) {
    if (ncommits >= 3) {
      // The output bounced on its way to the settled value (stale →
      // settled → stale → settled). Forward the full trajectory — first
      // flip plus return pulses — instead of one late flip: collapsing
      // it to the final commit time systematically over-ages downstream
      // transitions on reconvergent structures (array multipliers) and
      // inflates deep-VOS BER versus the event engine. Five or more
      // commits merge the tail bounces into the second pulse.
      g.tout[k] = cts[0];
      lanes::set_lane(g.pulsing, k);
      g.pout_s[k] = cts[1];
      g.pout_e[k] = ncommits == 3 ? last_c : cts[2];
      if (ncommits >= 5) {
        lanes::set_lane(g.pulsing2, k);
        g.pout2_s[k] = cts[3];
        g.pout2_e[k] = last_c;
      }
    } else {
      g.tout[k] = last_c;
    }
  } else if (ncommits >= 2) {
    lanes::set_lane(g.pulsing, k);
    g.pout_s[k] = cts[0];
    g.pout_e[k] = ncommits == 2 ? last_c : cts[1];
    if (ncommits >= 4) {
      lanes::set_lane(g.pulsing2, k);
      g.pout2_s[k] = cts[2];
      g.pout2_e[k] = last_c;
    }
  }
}

/// Catch-up commit for a lane whose output changed but committed
/// nothing (a truncated cycle-mode launch value, or a state left by an
/// unreset step_cycle): the lane would stay wrong for every following
/// cycle, while the event engine's in-flight transition lands within
/// one gate delay of the edge. Commit the final value at the gate's
/// own delay (the upper bound on the in-flight remainder), clamped
/// inside the capture window — a gate slower than the whole clock
/// period must still resolve, or the repair would re-fail every cycle
/// and the net stay wrong forever. The catch-up commit always lands
/// inside the window, so the lane samples its settled value.
template <class Acct>
void catch_up_lane(GateLanes& g, Acct& acct, std::size_t k,
                   double tclk_ps) {
  const double tc = std::min(g.delay, 0.999 * tclk_ps);
  if (acct.commit(g.out, k, tc, g.energy))
    lanes::assign_lane(g.sampled, k, lanes::lane_bit(g.W[0], k) != 0);
  g.tout[k] = tc;
}

}  // namespace

LevelizedSimulator::LevelizedSimulator(const Netlist& netlist,
                                       const CellLibrary& lib,
                                       const OperatingTriad& op,
                                       const TimingSimConfig& config)
    : netlist_(netlist), op_(op) {
  VOSIM_EXPECTS(netlist.finalized());
  VOSIM_EXPECTS(op.tclk_ns > 0.0);
  VOSIM_EXPECTS(config.variation_sigma >= 0.0);
  VOSIM_EXPECTS(config.delay_scale > 0.0);
  VOSIM_EXPECTS(config.leakage_scale > 0.0);
  tclk_ps_ = op.tclk_ns * 1e3;

  const std::vector<double> loads = netlist.compute_net_loads(lib);
  const TransistorModel& tm = lib.transistor_model();

  // Identical delay assignment (and variation-sample sequence) to the
  // event engine: a given (sigma, seed) names the same die under both
  // backends, so cross-backend comparisons see one circuit. The
  // triad's delay scale is gate-independent, so it is evaluated once
  // (same product, bit-identical to gate_delay_ps per gate).
  gate_delay_ps_.resize(netlist.num_gates());
  Rng vrng(config.variation_seed);
  const double dscale = tm.delay_scale(op_.vdd_v, op_.vbb_v);
  for (GateId gid = 0; gid < netlist.num_gates(); ++gid) {
    const Gate& g = netlist.gate(gid);
    const Cell& cell = lib.cell(g.kind);
    const double nominal_ps =
        cell.intrinsic_delay_ps + cell.drive_ps_per_ff * loads[g.out];
    // Same product order as the event engine ((nominal·triad)·die·var),
    // so a (scale, sigma, seed) tuple names one die under both backends.
    double d = nominal_ps * dscale * config.delay_scale;
    if (config.variation_sigma > 0.0)
      d *= std::exp(config.variation_sigma * vrng.gaussian());
    gate_delay_ps_[gid] = d;
  }

  net_energy_fj_.resize(netlist.num_nets());
  for (NetId n = 0; n < netlist.num_nets(); ++n)
    net_energy_fj_[n] = toggle_energy_fj(loads[n], op_.vdd_v);

  double leak_nw = netlist.cell_leakage_nw(lib);
  leak_nw *= tm.leakage_scale(op_.vdd_v, op_.vbb_v);
  leak_nw *= config.leakage_scale;
  leak_nw_scaled_ = leak_nw;
  leakage_energy_fj_ = leak_nw * 1e-3 * tclk_ps_ * 1e-3;  // nW·ps → fJ

  arrival_ps_ = arrival_times_ps(netlist, gate_delay_ps_);
  for (const NetId po : netlist.primary_outputs())
    critical_path_ps_ = std::max(critical_path_ps_, arrival_ps_[po]);

  // Cycle-mode fast-path eligibility. Every commit time at a gate is an
  // event-time + delay chain bounded by the same IEEE additions the STA
  // recurrence performs (PIs commit at 0, catch-ups below Tclk), so
  // arrival < Tclk proves all of the gate's commits land in-window in
  // every lane of every cycle: its sampled word equals its settled word
  // and stale(k) = sampled(k-1) collapses to the streaming recurrence
  // stale(k) = settled(k-1).
  cycle_safe_.resize(netlist.num_gates());
  for (GateId gid = 0; gid < netlist.num_gates(); ++gid)
    cycle_safe_[gid] =
        arrival_ps_[netlist.gate(gid).out] < tclk_ps_ ? 1 : 0;

  settled_w_.assign(netlist.num_nets(), Word{});
  stale_w_.assign(netlist.num_nets(), Word{});
  sampled_w_.assign(netlist.num_nets(), Word{});
  time_ps_ = std::make_unique_for_overwrite<double[]>(
      netlist.num_nets() * kLanes);
  pulsing_w_.assign(netlist.num_nets(), Word{});
  pulse_start_ps_ = std::make_unique_for_overwrite<double[]>(
      netlist.num_nets() * kLanes);
  pulse_end_ps_ = std::make_unique_for_overwrite<double[]>(
      netlist.num_nets() * kLanes);
  pulsing2_w_.assign(netlist.num_nets(), Word{});
  pulse2_start_ps_ = std::make_unique_for_overwrite<double[]>(
      netlist.num_nets() * kLanes);
  pulse2_end_ps_ = std::make_unique_for_overwrite<double[]>(
      netlist.num_nets() * kLanes);

  po_index_.assign(netlist.num_nets(), -1);
  const auto pos = netlist.primary_outputs();
  for (std::size_t j = 0; j < pos.size(); ++j)
    po_index_[pos[j]] = static_cast<std::int32_t>(j);

  // Establish a consistent all-zero-input state.
  std::vector<std::uint8_t> zeros(netlist.primary_inputs().size(), 0);
  reset(zeros);
}

bool LevelizedSimulator::retarget_tclk_ps(double tclk_ps) {
  VOSIM_EXPECTS(tclk_ps > 0.0);
  tclk_ps_ = tclk_ps;
  op_.tclk_ns = tclk_ps * 1e-3;
  // Same expressions as construction, against the cached die.
  leakage_energy_fj_ = leak_nw_scaled_ * 1e-3 * tclk_ps_ * 1e-3;
  for (GateId gid = 0; gid < netlist_.num_gates(); ++gid)
    cycle_safe_[gid] =
        arrival_ps_[netlist_.gate(gid).out] < tclk_ps_ ? 1 : 0;
  return true;
}

bool LevelizedSimulator::cycle_safe() const noexcept {
  return std::all_of(cycle_safe_.begin(), cycle_safe_.end(),
                     [](std::uint8_t s) { return s != 0; });
}

void LevelizedSimulator::reset(std::span<const std::uint8_t> inputs) {
  VOSIM_EXPECTS(inputs.size() == netlist_.primary_inputs().size());
  state_ = evaluate_logic(netlist_, inputs);
  sampled_state_ = state_;
}

StepResult LevelizedSimulator::step(std::span<const std::uint8_t> inputs) {
  StepResult result;
  run_packed(inputs, 1, {&result, 1}, /*cycle_mode=*/false);
  return result;
}

StepResult LevelizedSimulator::step_cycle(
    std::span<const std::uint8_t> inputs) {
  StepResult result;
  run_packed(inputs, 1, {&result, 1}, /*cycle_mode=*/true);
  return result;
}

void LevelizedSimulator::step_batch(std::span<const std::uint8_t> inputs,
                                    std::size_t count,
                                    std::span<StepResult> results) {
  run_packed(inputs, count, results, /*cycle_mode=*/false);
}

void LevelizedSimulator::step_cycle_batch(
    std::span<const std::uint8_t> inputs, std::size_t count,
    std::span<StepResult> results) {
  run_packed(inputs, count, results, /*cycle_mode=*/true);
}

LevelizedSimulator::SweepWord LevelizedSimulator::step_batch_sweep(
    std::span<const std::uint8_t> inputs, std::size_t count,
    std::span<const double> thresholds_ps) {
  VOSIM_EXPECTS(count >= 1 && count <= kLanes);
  VOSIM_EXPECTS(!thresholds_ps.empty());
  VOSIM_EXPECTS(std::is_sorted(thresholds_ps.begin(), thresholds_ps.end()));
  VOSIM_EXPECTS(thresholds_ps.front() > 0.0);
  run_packed(inputs, count, {}, /*cycle_mode=*/false, thresholds_ps);
  return SweepWord{count,
                   thresholds_ps.size(),
                   sweep_settled_.data(),
                   sweep_sdiff_.data(),
                   sweep_ediff_.data(),
                   sweep_settle_.data()};
}

void LevelizedSimulator::run_packed(std::span<const std::uint8_t> inputs,
                                    std::size_t count,
                                    std::span<StepResult> results,
                                    bool cycle_mode,
                                    std::span<const double> thresholds_ps) {
  const auto pis = netlist_.primary_inputs();
  const std::size_t npis = pis.size();
  const bool sweep = !thresholds_ps.empty();
  VOSIM_EXPECTS(inputs.size() == count * npis);
  VOSIM_EXPECTS(sweep || results.size() >= count);
  // Per-call throughput accounting: one relaxed add per call (not per
  // pattern), cached refs so the registry mutex is never on the hot
  // path.
  static obs::Counter& pattern_counter =
      obs::metrics().counter("sim.levelized.patterns");
  static obs::Counter& cycle_counter =
      obs::metrics().counter("sim.levelized.cycles");
  static obs::Counter& word_counter =
      obs::metrics().counter("sim.levelized.lane_words");
  (cycle_mode ? cycle_counter : pattern_counter).add(count);
  word_counter.add((count + kLanes - 1) / kLanes);
  std::size_t done = 0;
  while (done < count) {
    const std::size_t lanes = std::min(kLanes, count - done);
    for (std::size_t j = 0; j < npis; ++j) {
      Word w{};
      for (std::size_t k = 0; k < lanes; ++k)
        if (inputs[(done + k) * npis + j]) lanes::set_lane(w, k);
      settled_w_[pis[j]] = w;
    }
    if (!sweep)
      run_lanes(lanes, results.subspan(done, lanes), cycle_mode);
    else
      run_lanes_sweep(lanes, thresholds_ps);
    done += lanes;
  }
}

template <bool kCycleMode, class Acct>
void LevelizedSimulator::run_lanes_impl(std::size_t lanes, Acct& acct) {
  const Word used = lanes::mask(lanes);

  // Primary inputs: lane k's stale value is lane k-1's value (lane 0
  // continues from the carried state); input transitions commit at
  // t = 0, like the event engine's launch-edge commits. Sampled values
  // are tracked as stale XOR the parity of commits inside the window.
  // PIs always commit at t = 0 < Tclk, so their sampled value equals
  // their settled value and the streaming recurrence stale(k) =
  // settled(k-1) coincides with the cycle-mode recurrence stale(k) =
  // sampled(k-1): this block serves both modes unchanged.
  for (const NetId pi : netlist_.primary_inputs()) {
    const Word settled = settled_w_[pi] & used;
    settled_w_[pi] = settled;
    const Word stale = lanes::shift1_in(settled, state_[pi]) & used;
    stale_w_[pi] = stale;
    pulsing_w_[pi] = Word{};
    pulsing2_w_[pi] = Word{};
    const double energy = net_energy_fj_[pi];
    double* t = &time_ps_[static_cast<std::size_t>(pi) * kLanes];
    const Word m = settled ^ stale;
    // Every launch commit is in-window, so the sampled word is just
    // the settled word.
    if (lanes::any(m)) acct.commit_word_zero(pi, m, energy, t);
    sampled_w_[pi] = settled;
  }

  // One levelized pass. Values: packed kLanes-lane evaluation per
  // gate. Timing: each lane with input activity runs a miniature event
  // simulation of just this gate over its input events (one flip per
  // changed input at its final transition time, a flip-and-return pair
  // per forwarded pulse: at most 15, see event_walk), with the event
  // engine's inertial rule —
  // in binary logic a scheduled commit is only ever cancelled (input
  // pulse shorter than the gate delay), never rescheduled. Commits
  // yield the output's transition time, glitch-pulse window, toggle
  // energy, and the value the capture register samples at Tclk.
  //
  // The hot path dispatches lanes by changed-input count using packed
  // words W[1 << i] (the gate function with only input i still at its
  // stale value, evaluated for all kLanes lanes at once): a
  // non-sensitized single change costs nothing, sensitized one- and
  // two-change lanes collapse to a handful of scalar operations, and
  // lanes fed by a glitch pulse or with three changed inputs take the
  // generic event walk.
  //
  // The approximations relative to the full event engine: a changed
  // input is forwarded as one transition at its commit time — or, when
  // it bounced on the way to the settled value, as its first flip plus
  // one return pulse (middle bounces of longer chatter are merged) —
  // and an unchanged output's commits are forwarded as one merged
  // pulse.
  //
  // Lane semantics differ per mode. Streaming (step/step_batch/sweep):
  // lane k is an independent pattern whose stale value is lane k-1's
  // settled value, so stale/changed are whole-word shifts and lanes
  // are order-free. Cycle mode (step_cycle/step_cycle_batch): lane k
  // is clock cycle k and launches from lane k-1's *sampled* (at-edge
  // truncated) value, so active lanes resolve in ascending lane order
  // — each per-lane body below is shared verbatim between the two
  // dispatch loops, which keeps the commit sequence (and therefore
  // the floating-point energy accumulation) of any one lane identical
  // whether it was reached by streaming masks or by the cycle scan.
  //
  // One gate view for the whole pass. Each gate refills its input words
  // (changed words zero past the gate's inputs: the changed-count masks
  // read all three) and, past the quiet-gate exit, the rest, with the
  // output words reset.
  GateLanes gl{};
  auto& in_stale = gl.in_stale;
  auto& in_changed = gl.in_changed;
  auto& in_pulsing = gl.in_pulsing;
  auto& in_pulsing2 = gl.in_pulsing2;
  for (const GateId gid : netlist_.topo_order()) {
    const Gate& g = netlist_.gate(gid);
    const NetId out = g.out;
    const int n = g.num_inputs;

    Word in_settled[3] = {};
    Word any_pulse{};
    Word any_changed{};
    for (int i = 0; i < 3; ++i) {
      if (i >= n) {
        in_changed[i] = Word{};
        continue;
      }
      const NetId in = g.in[i];
      in_settled[i] = settled_w_[in];
      in_stale[i] = stale_w_[in];
      in_changed[i] = in_settled[i] ^ in_stale[i];
      in_pulsing[i] = pulsing_w_[in];
      in_pulsing2[i] = pulsing2_w_[in];
      any_pulse |= in_pulsing[i] | in_pulsing2[i];
      any_changed |= in_changed[i];
    }

    // Quiet-gate fast exit: no input changed and nothing pulses, so no
    // lane walks, no single-stale words and no pulse bookkeeping.
    // All that remains of the general path is the settled/stale/sampled
    // word hand-off plus the catch-up sweep over changed-but-inactive
    // lanes (cycle mode; empty under the streaming invariant) — commit
    // for commit what the full dispatch would do on such a gate.
    if (!lanes::any((any_changed | any_pulse) & used)) {
      const Word settled =
          eval_cell_packed(g.kind, in_settled[0], in_settled[1],
                           in_settled[2]) &
          used;
      settled_w_[out] = settled;
      const auto state0 = static_cast<std::uint8_t>(state_[out] & 1);
      const bool word_recurrence = !kCycleMode || cycle_safe_[gid] != 0;
      // Either way the stale chain is the settled word shifted by one
      // lane. Off the word recurrence every lane is inactive, so
      // sampled(k) = settled(k): the only possible commit is the
      // in-window catch-up.
      const Word stale = lanes::shift1_in(settled, state0) & used;
      stale_w_[out] = stale;
      const Word m_catch = (settled ^ stale) & used;
      Word sampled = word_recurrence ? stale : settled;
      if (lanes::any(m_catch)) {
        const double delay = gate_delay_ps_[gid];
        const double energy = net_energy_fj_[out];
        const double tc = std::min(delay, 0.999 * tclk_ps_);
        double* tout = &time_ps_[static_cast<std::size_t>(out) * kLanes];
        lanes::for_each_lane(m_catch, [&](std::size_t k) {
          if (acct.commit(out, k, tc, energy))
            lanes::assign_lane(sampled, k,
                               lanes::lane_bit(settled, k) != 0);
          tout[k] = tc;
        });
      }
      sampled_w_[out] = sampled;
      pulsing_w_[out] = Word{};
      pulsing2_w_[out] = Word{};
      continue;
    }

    gl.n = n;
    gl.truth = cell_truth_of(g.kind);
    gl.out = out;
    gl.delay = gate_delay_ps_[gid];
    gl.energy = net_energy_fj_[out];
    for (int i = 0; i < n; ++i) {
      const auto base = static_cast<std::size_t>(g.in[i]) * kLanes;
      gl.in_time[i] = &time_ps_[base];
      gl.in_ps[i] = &pulse_start_ps_[base];
      gl.in_pe[i] = &pulse_end_ps_[base];
      gl.in_ps2[i] = &pulse2_start_ps_[base];
      gl.in_pe2[i] = &pulse2_end_ps_[base];
    }
    const auto& in_time = gl.in_time;

    // W[0]: the packed settled word; W[1 << i]: input i still stale.
    Word* const W = gl.W;
    W[0] = eval_cell_packed(g.kind, in_settled[0], in_settled[1],
                            in_settled[2]) &
           used;
    for (int i = 0; i < n; ++i) {
      Word w[3] = {in_settled[0], in_settled[1], in_settled[2]};
      w[i] = in_stale[i];
      W[1u << i] = eval_cell_packed(g.kind, w[0], w[1], w[2]) & used;
    }
    const Word settled = W[0];
    settled_w_[out] = settled;
    const auto state0 = static_cast<std::uint8_t>(state_[out] & 1);

    // A cycle-safe gate (STA arrival < Tclk, cycle_safe_) never commits
    // past the edge, and neither does anything in its fan-in cone
    // (arrival is nondecreasing along paths), so its sampled word always
    // equals its settled word and stale(k) = sampled(k-1) collapses to
    // the streaming recurrence — such gates take the packed streaming
    // dispatch even in cycle mode. Only gates reachable past the edge
    // pay the serial ascending lane scan.
    const bool word_recurrence = !kCycleMode || cycle_safe_[gid] != 0;
    Word& changed = gl.changed;
    Word& sampled = gl.sampled;
    if (word_recurrence) {
      const Word stale = lanes::shift1_in(settled, state0) & used;
      stale_w_[out] = stale;
      changed = settled ^ stale;
      sampled = stale;
    } else {
      // Built lane by lane in the cycle scan below; lanes without input
      // activity sample their settled value (their only possible commit
      // is the catch-up, which always lands inside the window).
      changed = Word{};
      sampled = settled;
    }

    Word& committed = gl.committed;  // lanes whose output committed a flip
    gl.pulsing = gl.pulsing2 = committed = Word{};
    const double delay = gl.delay;
    const auto base_out = static_cast<std::size_t>(out) * kLanes;
    gl.tout = &time_ps_[base_out];
    gl.pout_s = &pulse_start_ps_[base_out];
    gl.pout_e = &pulse_end_ps_[base_out];
    gl.pout2_s = &pulse2_start_ps_[base_out];
    gl.pout2_e = &pulse2_end_ps_[base_out];

    const Word ch0 = in_changed[0];
    const Word ch1 = in_changed[1];
    const Word ch2 = in_changed[2];

    // -- dispatch ---------------------------------------------------------

    if (word_recurrence) {
      // Streaming recurrence (streaming mode, or a cycle-safe gate in
      // cycle mode): lanes are order-free, so each changed-input class
      // is swept as a packed mask (pulse-free lanes with one or two
      // changed inputs; the rest take the generic walk).
      const Word pairs = (ch0 & ch1) | (ch0 & ch2) | (ch1 & ch2);
      const Word three = ch0 & ch1 & ch2;
      const Word two = pairs & ~three & ~any_pulse & used;
      const Word one = (ch0 ^ ch1 ^ ch2) & ~pairs & ~any_pulse & used;

      // Exactly one changed input: a sensitized lane commits once at
      // t + delay; a non-sensitized lane does nothing at all.
      for (int i = 0; i < n; ++i) {
        Word m = one & in_changed[i] & (W[1u << i] ^ settled);
        if (!lanes::any(m)) continue;
        lanes::for_each_lane(m, [&](std::size_t k) {
          commit_flip(gl, acct, k, in_time[i][k] + delay);
        });
      }

      for (int i = 0; n >= 2 && i < n - 1; ++i) {
        for (int j = i + 1; j < n; ++j) {
          Word m = two & in_changed[i] & in_changed[j];
          if (!lanes::any(m)) continue;
          lanes::for_each_lane(m, [&](std::size_t k) {
            two_changed_lane(gl, acct, k, i, j);
          });
        }
      }

      lanes::for_each_lane((three | any_pulse) & used, [&](std::size_t k) {
        event_walk(gl, acct, k);
      });

      // Under the streaming invariant (stale = settled function of
      // stale inputs) nothing is ever changed-but-uncommitted, so this
      // mask is empty and step()/step_batch/sweep behavior is
      // untouched; it guards states left by an unreset step_cycle. The
      // invariant also covers cycle-safe gates in cycle mode: their
      // whole fan-in cone is cycle-safe, so every stale input equals
      // its settled value of the previous lane.
      lanes::for_each_lane(changed & ~committed & used,
                           [&](std::size_t k) { catch_up_lane(gl, acct, k, tclk_ps_); });
    } else {
      // Cycle mode: lane k launches from lane k-1's sampled value, so
      // lanes with input activity resolve serially in ascending lane
      // order (the stale/changed bits of lane k are only known once
      // lane k-1's sampled bit is final; for_each_lane iterates
      // ascending). Lanes without input activity need no per-lane
      // walk: their only possible commit is the catch-up, which always
      // lands in the window, so their sampled value is their settled
      // value — exactly the pre-filled word.
      const Word active = (ch0 | ch1 | ch2 | any_pulse) & used;
      lanes::for_each_lane(active, [&](std::size_t k) {
        const std::uint8_t sb =
            k == 0 ? state0 : lanes::lane_bit(sampled, k - 1);
        lanes::assign_lane(sampled, k, sb != 0);
        lanes::assign_lane(
            changed, k, (lanes::lane_bit(settled, k) ^ sb) != 0);
        const int c0 = lanes::lane_bit(ch0, k);
        const int c1 = lanes::lane_bit(ch1, k);
        const int c2 = lanes::lane_bit(ch2, k);
        const int cnt = c0 + c1 + c2;
        if (cnt == 3 || lanes::lane_bit(any_pulse, k) != 0) {
          event_walk(gl, acct, k);
        } else if (cnt == 1) {
          const int i = c0 ? 0 : (c1 ? 1 : 2);
          if ((lanes::lane_bit(W[1u << i], k) ^
               lanes::lane_bit(settled, k)) != 0)
            commit_flip(gl, acct, k, in_time[i][k] + delay);
        } else if (cnt == 2) {
          two_changed_lane(gl, acct, k, c0 ? 0 : 1, c2 ? 2 : 1);
        }
        if (lanes::lane_bit(changed, k) != 0 &&
            lanes::lane_bit(committed, k) == 0)
          catch_up_lane(gl, acct, k, tclk_ps_);
      });
      // Inactive lanes: stale(k) = sampled(k-1) is final now; the
      // changed ones take their catch-up commit (sampled stays settled).
      const Word stale_word = lanes::shift1_in(sampled, state0) & used;
      lanes::for_each_lane((settled ^ stale_word) & ~active & used,
                           [&](std::size_t k) { catch_up_lane(gl, acct, k, tclk_ps_); });
      stale_w_[out] = stale_word;
    }

    sampled_w_[out] = sampled;
    pulsing_w_[out] = gl.pulsing;
    pulsing2_w_[out] = gl.pulsing2;
  }
}

template <class Acct>
void LevelizedSimulator::run_one_lane(Acct& acct) {
  // Every word written below holds lane 0 only, and every net is
  // written before it is read, so the input words read here are 0/1.
  for (const NetId pi : netlist_.primary_inputs()) {
    const Word settled = settled_w_[pi] & Word{1};
    const Word stale = state_[pi] & 1u;
    settled_w_[pi] = settled;
    stale_w_[pi] = stale;
    sampled_w_[pi] = settled;
    pulsing_w_[pi] = Word{};
    pulsing2_w_[pi] = Word{};
    if (settled != stale) {
      time_ps_[static_cast<std::size_t>(pi) * kLanes] = 0.0;
      acct.commit(pi, 0, 0.0, net_energy_fj_[pi]);
    }
  }

  // One gate view for the whole pass: each gate sets the fields its
  // walk reads (below), the rest keep an earlier gate's values.
  GateLanes gl{};
  for (const GateId gid : netlist_.topo_order()) {
    const Gate& g = netlist_.gate(gid);
    const NetId out = g.out;
    const int n = g.num_inputs;
    const std::uint16_t truth = cell_truth_of(g.kind);
    unsigned settled_idx = 0;
    unsigned stale_idx = 0;
    Word pulsed{};
    for (int i = 0; i < n; ++i) {
      const NetId in = g.in[i];
      settled_idx |= static_cast<unsigned>(settled_w_[in]) << i;
      stale_idx |= static_cast<unsigned>(stale_w_[in]) << i;
      pulsed |= pulsing_w_[in] | pulsing2_w_[in];
    }
    const Word settled = (truth >> settled_idx) & 1u;
    // Lane 0 launches from the carried state in both modes (the PI
    // block above serves both for the same reason).
    const Word stale = state_[out] & 1u;
    settled_w_[out] = settled;
    stale_w_[out] = stale;

    // The output side every walk reads. A quiet gate (no changed or
    // pulsing input) only ever takes the catch-up commit; the others
    // fill just the input side their walk reads.
    gl.out = out;
    gl.delay = gate_delay_ps_[gid];
    gl.energy = net_energy_fj_[out];
    gl.W[0] = settled;
    gl.changed = settled ^ stale;
    gl.sampled = stale;
    gl.committed = Word{};
    gl.pulsing = Word{};
    gl.pulsing2 = Word{};
    const auto base_out = static_cast<std::size_t>(out) * kLanes;
    gl.tout = &time_ps_[base_out];

    const unsigned changed_in = settled_idx ^ stale_idx;
    const int nchanged = std::popcount(changed_in);
    // The gate with only changed input i still stale.
    const auto only_stale = [&](int i) -> Word {
      return (truth >> (settled_idx ^ (1u << i))) & 1u;
    };
    if (pulsed != 0 || nchanged == 3) {
      gl.n = n;
      gl.truth = truth;
      gl.pout_s = &pulse_start_ps_[base_out];
      gl.pout_e = &pulse_end_ps_[base_out];
      gl.pout2_s = &pulse2_start_ps_[base_out];
      gl.pout2_e = &pulse2_end_ps_[base_out];
      for (int i = 0; i < n; ++i) {
        const NetId in = g.in[i];
        gl.in_stale[i] = stale_w_[in];
        gl.in_changed[i] = (changed_in >> i) & 1u;
        gl.in_pulsing[i] = pulsing_w_[in];
        gl.in_pulsing2[i] = pulsing2_w_[in];
        const auto base = static_cast<std::size_t>(in) * kLanes;
        gl.in_time[i] = &time_ps_[base];
        gl.in_ps[i] = &pulse_start_ps_[base];
        gl.in_pe[i] = &pulse_end_ps_[base];
        gl.in_ps2[i] = &pulse2_start_ps_[base];
        gl.in_pe2[i] = &pulse2_end_ps_[base];
      }
      event_walk(gl, acct, 0);
    } else if (nchanged != 0) {
      gl.pout_s = &pulse_start_ps_[base_out];
      gl.pout_e = &pulse_end_ps_[base_out];
      for (int i = 0; i < n; ++i)
        gl.in_time[i] =
            &time_ps_[static_cast<std::size_t>(g.in[i]) * kLanes];
      const int i = std::countr_zero(changed_in);
      if (nchanged == 1) {
        // A non-sensitized single change commits nothing.
        if (only_stale(i) != settled)
          commit_flip(gl, acct, 0, gl.in_time[i][0] + gl.delay);
      } else {
        const int j = std::bit_width(changed_in) - 1;
        gl.W[1u << i] = only_stale(i);
        gl.W[1u << j] = only_stale(j);
        two_changed_lane(gl, acct, 0, i, j);
      }
    }
    if (gl.changed != 0 && gl.committed == 0)
      catch_up_lane(gl, acct, 0, tclk_ps_);

    sampled_w_[out] = gl.sampled;
    pulsing_w_[out] = gl.pulsing;
    pulsing2_w_[out] = gl.pulsing2;
  }
}

void LevelizedSimulator::carry_state(std::size_t lanes, bool truncate) {
  const std::size_t last = lanes - 1;
  const Word* carried = truncate ? sampled_w_.data() : settled_w_.data();
  Word unsettled{};
  for (NetId n = 0; n < static_cast<NetId>(netlist_.num_nets()); ++n) {
    state_[n] = lanes::lane_bit(carried[n], last);
    sampled_state_[n] = lanes::lane_bit(sampled_w_[n], last);
    unsettled |= sampled_w_[n] ^ settled_w_[n];
  }
  settled_lanes_ = ~unsettled & lanes::mask(lanes);
}

void LevelizedSimulator::run_lanes(std::size_t lanes,
                                   std::span<StepResult> results,
                                   bool cycle_mode) {
  // A one-lane pass touches lane 0 of the accumulators only.
  const std::size_t width = lanes == 1 ? 1 : kLanes;
  acc_win_e_.assign(width, 0.0);
  acc_settle_.assign(width, 0.0);
  acc_win_t_.assign(width, 0);
  if (cycle_mode) {
    // Window-only accounting: cycle mode reports totals == window.
    SingleThresholdAcct<true> acct{tclk_ps_,          lanes,
                                   acc_win_e_.data(), acc_settle_.data(),
                                   acc_win_t_.data(), nullptr,
                                   nullptr};
    if (lanes == 1)
      run_one_lane(acct);
    else
      run_lanes_impl<true>(lanes, acct);
  } else {
    acc_tot_e_.assign(width, 0.0);
    acc_tot_t_.assign(width, 0);
    SingleThresholdAcct<false> acct{tclk_ps_,          lanes,
                                    acc_win_e_.data(), acc_settle_.data(),
                                    acc_win_t_.data(), acc_tot_e_.data(),
                                    acc_tot_t_.data()};
    if (lanes == 1)
      run_one_lane(acct);
    else
      run_lanes_impl<false>(lanes, acct);
  }
  for (std::size_t k = 0; k < lanes; ++k) {
    StepResult& r = results[k];
    r = StepResult{};
    r.window_energy_fj = acc_win_e_[k];
    r.toggles_in_window = acc_win_t_[k];
    r.settle_time_ps = acc_settle_[k];
    r.total_energy_fj = cycle_mode ? acc_win_e_[k] : acc_tot_e_[k];
    r.toggles_total = cycle_mode ? acc_win_t_[k] : acc_tot_t_[k];
  }

  const auto pos = netlist_.primary_outputs();
  for (std::size_t k = 0; k < lanes; ++k) {
    std::uint64_t sampled = 0;
    std::uint64_t settled = 0;
    for (std::size_t j = 0; j < pos.size(); ++j) {
      sampled |= static_cast<std::uint64_t>(
                     lanes::lane_bit(sampled_w_[pos[j]], k))
                 << j;
      settled |= static_cast<std::uint64_t>(
                     lanes::lane_bit(settled_w_[pos[j]], k))
                 << j;
    }
    results[k].sampled_outputs = sampled;
    results[k].settled_outputs = settled;
  }
  if (!observers_.empty()) dispatch_observers(lanes, results);
  carry_state(lanes, /*truncate=*/cycle_mode);
}

void LevelizedSimulator::dispatch_observers(
    std::size_t lanes, std::span<const StepResult> results) {
  const std::size_t nnets = netlist_.num_nets();
  if (obs_level_.empty()) {
    // Topological level per net (primary inputs at 0), built once.
    obs_level_.assign(nnets, 0);
    for (const GateId gid : netlist_.topo_order()) {
      const Gate& g = netlist_.gate(gid);
      int lvl = 0;
      for (std::uint8_t i = 0; i < g.num_inputs; ++i)
        lvl = std::max(lvl, obs_level_[g.in[i]]);
      obs_level_[g.out] = lvl + 1;
    }
  }

  // Per-lane step_end: transpose each lane's per-net sampled/settled
  // bits into byte vectors so observers see exactly the spans the
  // event engine hands out.
  obs_sampled_.resize(nnets);
  obs_settled_.resize(nnets);
  for (std::size_t k = 0; k < lanes; ++k) {
    for (NetId n = 0; n < static_cast<NetId>(nnets); ++n) {
      obs_sampled_[n] = lanes::lane_bit(sampled_w_[n], k);
      obs_settled_[n] = lanes::lane_bit(settled_w_[n], k);
    }
    for (SimObserver* o : observers_)
      o->on_step_end(*this, obs_sampled_, obs_settled_, results[k]);
  }

  LaneWordSummary sum;
  sum.lanes = lanes;
  for (std::size_t k = 0; k < lanes; ++k) {
    if (results[k].sampled_outputs != results[k].settled_outputs)
      ++sum.failing_lanes;
    sum.slack_consumed_ps =
        std::max(sum.slack_consumed_ps,
                 std::max(0.0, results[k].settle_time_ps - tclk_ps_));
  }
  const Word used = lanes::mask(lanes);
  for (const GateId gid : netlist_.topo_order()) {
    const NetId out = netlist_.gate(gid).out;
    if (!lanes::any((sampled_w_[out] ^ settled_w_[out]) & used)) continue;
    if (sum.first_failing_net == invalid_net ||
        obs_level_[out] < sum.first_failing_level) {
      sum.first_failing_net = out;
      sum.first_failing_level = obs_level_[out];
    }
  }
  for (SimObserver* o : observers_) o->on_lane_word(*this, sum);
}

void LevelizedSimulator::run_lanes_sweep(
    std::size_t lanes, std::span<const double> thresholds_ps) {
  const std::size_t nthr = thresholds_ps.size();
  const auto pos = netlist_.primary_outputs();
  const std::size_t npo = pos.size();

  sweep_ediff_.assign((nthr + 1) * kLanes, 0.0);
  sweep_sdiff_.assign(npo * (nthr + 1), Word{});
  sweep_settle_.assign(kLanes, 0.0);

  const ThresholdBuckets bucket(thresholds_ps);
  MultiThresholdAcct acct{bucket,
                          nthr,
                          lanes,
                          sweep_ediff_.data(),
                          sweep_sdiff_.data(),
                          sweep_settle_.data(),
                          po_index_.data()};
  run_lanes_impl<false>(lanes, acct);

  // Prefix over buckets: threshold j sees every commit in buckets ≤ j.
  // sweep_ediff_ becomes per-threshold window energies in place;
  // sweep_sdiff_ becomes per-threshold sampled words (base: stale).
  // The pass leaves every lane word zero above `lanes`, and so do the
  // copies.
  for (std::size_t j = 1; j < nthr; ++j) {
    double* ej = &sweep_ediff_[j * kLanes];
    const double* ep = &sweep_ediff_[(j - 1) * kLanes];
    for (std::size_t k = 0; k < lanes; ++k) ej[k] += ep[k];
  }
  sweep_settled_.resize(npo);
  for (std::size_t p = 0; p < npo; ++p) {
    sweep_settled_[p] = settled_w_[pos[p]];
    Word run = stale_w_[pos[p]];
    for (std::size_t j = 0; j < nthr; ++j) {
      run ^= sweep_sdiff_[p * (nthr + 1) + j];
      sweep_sdiff_[p * (nthr + 1) + j] = run;
    }
  }
  carry_state(lanes);
}

}  // namespace vosim
