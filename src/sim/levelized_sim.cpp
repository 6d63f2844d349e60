#include "src/sim/levelized_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "src/netlist/eval.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/probe.hpp"
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

  /// Word-commit eligible: launch-edge (t = 0) commits account a whole
  /// lane word per call instead of per-lane commits.
  static constexpr bool kWordCommit = true;

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

#if defined(__AVX2__)
  /// Vectorized in-window single-flip commits: every lane in `m`
  /// commits exactly once at t_in[k] + delay (the caller proved STA
  /// arrival < Tclk, so the window test is statically true). Per-lane
  /// arithmetic is exactly commit()'s — one IEEE add per accumulator,
  /// one max — and vectorization only changes which lanes run
  /// together, never a lane's own operation sequence, so the results
  /// are bit-identical to the scalar loop. Inactive lanes are masked
  /// to += 0.0 / max-with-0.0 no-ops (the accumulators are sums of
  /// non-negative terms, never -0.0, and settle >= 0); their t_in may
  /// be uninitialized but never escapes the mask.
  void commit_flips_simd(Word m, const double* t_in, double delay,
                         double energy, double* tout) {
    const __m256d vd = _mm256_set1_pd(delay);
    const __m256d ve = _mm256_set1_pd(energy);
    const __m256i lanebit = _mm256_setr_epi64x(1, 2, 4, 8);
    for (std::size_t off = 0; off < lanes::kWordLanes; off += 4) {
      const auto nib = static_cast<long long>((m >> off) & 0xF);
      if (nib == 0) continue;
      const __m256i sel = _mm256_cmpeq_epi64(
          _mm256_and_si256(_mm256_set1_epi64x(nib), lanebit), lanebit);
      const __m256d mask = _mm256_castsi256_pd(sel);
      const __m256d tc = _mm256_and_pd(
          mask, _mm256_add_pd(_mm256_loadu_pd(t_in + off), vd));
      const __m256d em = _mm256_and_pd(mask, ve);
      _mm256_storeu_pd(win_e + off,
                       _mm256_add_pd(_mm256_loadu_pd(win_e + off), em));
      _mm256_storeu_pd(settle + off,
                       _mm256_max_pd(_mm256_loadu_pd(settle + off), tc));
      _mm256_storeu_pd(
          tout + off,
          _mm256_blendv_pd(_mm256_loadu_pd(tout + off), tc, mask));
      if constexpr (!kWindowOnly)
        _mm256_storeu_pd(tot_e + off,
                         _mm256_add_pd(_mm256_loadu_pd(tot_e + off), em));
    }
    lanes::for_each_lane(m, [&](std::size_t k) {
      ++win_t[k];
      if constexpr (!kWindowOnly) ++tot_t[k];
    });
  }

  /// Vectorized two-changed-input single commits for an in-window
  /// gate: every lane in `m` has exactly inputs i and j changed
  /// (pulse-free) and a changed output, so it commits once — at the
  /// first input event when that already yields the settled value,
  /// else at the second (two_changed_lane's commit branch, same
  /// min/max/select arithmetic, so bit-identical results). wi/wj are
  /// the gate subset words W[1<<i] / W[1<<j], `settled` the settled
  /// output word.
  void commit_two_simd(Word m, const double* ti, const double* tj, Word wi,
                       Word wj, Word settled, double delay, double energy,
                       double* tout) {
    const __m256d vd = _mm256_set1_pd(delay);
    const __m256d ve = _mm256_set1_pd(energy);
    const __m256i lanebit = _mm256_setr_epi64x(1, 2, 4, 8);
    const __m256i one64 = _mm256_set1_epi64x(1);
    const __m256i vwi = _mm256_set1_epi64x(static_cast<long long>(wi));
    const __m256i vwj = _mm256_set1_epi64x(static_cast<long long>(wj));
    const __m256i vst = _mm256_set1_epi64x(static_cast<long long>(settled));
    for (std::size_t off = 0; off < lanes::kWordLanes; off += 4) {
      const auto nib = static_cast<long long>((m >> off) & 0xF);
      if (nib == 0) continue;
      const __m256i am = _mm256_cmpeq_epi64(
          _mm256_and_si256(_mm256_set1_epi64x(nib), lanebit), lanebit);
      const __m256d amd = _mm256_castsi256_pd(am);
      const __m256d vti = _mm256_loadu_pd(ti + off);
      const __m256d vtj = _mm256_loadu_pd(tj + off);
      // sel: the second (j) input flipped first, so the mid state has
      // input i still stale (two_changed_lane's swap branch).
      const __m256i sel =
          _mm256_castpd_si256(_mm256_cmp_pd(vtj, vti, _CMP_LT_OQ));
      const __m256i sh =
          _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(off)),
                           _mm256_setr_epi64x(0, 1, 2, 3));
      const __m256i bi = _mm256_and_si256(_mm256_srlv_epi64(vwi, sh), one64);
      const __m256i bj = _mm256_and_si256(_mm256_srlv_epi64(vwj, sh), one64);
      const __m256i bs = _mm256_and_si256(_mm256_srlv_epi64(vst, sh), one64);
      const __m256i mid = _mm256_blendv_epi8(bj, bi, sel);
      const __m256d use_first =
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(mid, bs));
      const __m256d tf = _mm256_min_pd(vti, vtj);
      const __m256d ts = _mm256_max_pd(vti, vtj);
      const __m256d tc = _mm256_and_pd(
          amd, _mm256_add_pd(_mm256_blendv_pd(ts, tf, use_first), vd));
      const __m256d em = _mm256_and_pd(amd, ve);
      _mm256_storeu_pd(win_e + off,
                       _mm256_add_pd(_mm256_loadu_pd(win_e + off), em));
      _mm256_storeu_pd(settle + off,
                       _mm256_max_pd(_mm256_loadu_pd(settle + off), tc));
      _mm256_storeu_pd(
          tout + off,
          _mm256_blendv_pd(_mm256_loadu_pd(tout + off), tc, amd));
      if constexpr (!kWindowOnly)
        _mm256_storeu_pd(tot_e + off,
                         _mm256_add_pd(_mm256_loadu_pd(tot_e + off), em));
    }
    lanes::for_each_lane(m, [&](std::size_t k) {
      ++win_t[k];
      if constexpr (!kWindowOnly) ++tot_t[k];
    });
  }
#endif  // __AVX2__

  /// Word commit at t = 0 (primary-input launch commits): in-window by
  /// definition, and settle = max(settle, 0) is a no-op. The
  /// branchless sweep auto-vectorizes; inactive lanes contribute
  /// bitwise-identity no-ops — += 0.0 (the accumulators are sums of
  /// non-negative terms, never -0.0) and a tout self-assign — so each
  /// lane holds exactly what per-lane commit() calls would produce.
  void commit_word_zero(Word m, double energy, double* tout) {
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
/// pass later yields per-threshold window energy/toggle counts, and an
/// XOR-difference per primary output yields per-threshold sampled
/// words (a net's sampled value at τ is its stale value XOR the parity
/// of its commits before τ).
struct MultiThresholdAcct {
  static constexpr bool kWordCommit = false;  // every commit is bucketed
  static constexpr std::size_t kLanes = lanes::kWordLanes;

  std::span<const double> thresholds_ps;
  double* ediff;              // (nthr+1) × kLanes, bucket-major
  std::uint32_t* tdiff;       // (nthr+1) × kLanes
  Word* sdiff;                // nPO × (nthr+1)
  double* tot_e;              // per lane
  std::uint32_t* tot_t;       // per lane
  double* settle;             // per lane
  const std::int32_t* po_index;

  bool commit(NetId net, std::size_t k, double tc, double energy) {
    const auto b = static_cast<std::size_t>(
        std::upper_bound(thresholds_ps.begin(), thresholds_ps.end(), tc) -
        thresholds_ps.begin());
    ediff[b * kLanes + k] += energy;
    ++tdiff[b * kLanes + k];
    tot_e[k] += energy;
    ++tot_t[k];
    settle[k] = std::max(settle[k], tc);
    const std::int32_t po = po_index[net];
    if (po >= 0)
      lanes::toggle_lane(
          sdiff[static_cast<std::size_t>(po) * (thresholds_ps.size() + 1) +
                b],
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
  unsigned full;        ///< (1 << n) - 1: every input still stale
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
  /// W[s]: the gate value with the inputs in subset s still stale;
  /// W[0] is the settled word.
  Word W[8];
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

/// Three changed inputs, no pulse: walk the four subset states in
/// transition order with the inertial rule, starting from `cur0` (the
/// lane's stale output value — in cycle mode the truncated launch
/// value, which need not equal the gate function of the stale inputs).
template <class Acct>
void three_changed_lane(GateLanes& g, Acct& acct, std::size_t k,
                        unsigned cur0) {
  const double* const* in_time = g.in_time;
  int order[3] = {0, 1, 2};
  if (in_time[order[1]][k] < in_time[order[0]][k])
    std::swap(order[0], order[1]);
  if (in_time[order[2]][k] < in_time[order[1]][k])
    std::swap(order[1], order[2]);
  if (in_time[order[1]][k] < in_time[order[0]][k])
    std::swap(order[0], order[1]);
  unsigned s = g.full;
  unsigned cur = cur0;
  bool pending = false;
  double commit_t = 0.0;
  // At most three commits here (three input events), so first /
  // second / last capture the whole trajectory exactly.
  double cts[3] = {0.0, 0.0, 0.0};
  double last_c = 0.0;
  int ncommits = 0;
  const auto do_commit = [&](double tc) {
    cur ^= 1u;
    if (ncommits < 3) cts[ncommits] = tc;
    ++ncommits;
    last_c = tc;
    if (acct.commit(g.out, k, tc, g.energy)) lanes::toggle_lane(g.sampled, k);
    lanes::set_lane(g.committed, k);
  };
  for (int j = 0; j < 3; ++j) {
    const double t = in_time[order[j]][k];
    if (pending && commit_t <= t) {
      do_commit(commit_t);
      pending = false;
    }
    s &= ~(1u << order[j]);
    const auto v = static_cast<unsigned>(lanes::lane_bit(g.W[s], k));
    if (v != cur && !pending) {
      pending = true;
      commit_t = t + g.delay;
    } else if (v == cur && pending) {
      pending = false;  // inertial cancellation
    }
  }
  if (pending) do_commit(commit_t);
  if (lanes::lane_bit(g.changed, k) != 0) {
    if (ncommits >= 3) {
      // The output bounced on its way to the settled value (stale →
      // settled → stale → settled). Forward the full trajectory — first
      // flip plus a return pulse — instead of one late flip: collapsing
      // it to the final commit time systematically over-ages downstream
      // transitions on reconvergent structures (array multipliers) and
      // inflates deep-VOS BER versus the event engine.
      g.tout[k] = cts[0];
      lanes::set_lane(g.pulsing, k);
      g.pout_s[k] = cts[1];
      g.pout_e[k] = last_c;
    } else {
      g.tout[k] = last_c;
    }
  } else if (ncommits >= 2) {
    lanes::set_lane(g.pulsing, k);
    g.pout_s[k] = cts[0];
    g.pout_e[k] = cts[1];
  }
}

/// Lane fed by a glitch pulse: the generic event walk over the ≤15
/// input events (flip per changed input, flip-and-return pair per
/// forwarded pulse). It starts from the gate function of the stale
/// inputs; every packed pulse class of run_lanes_impl is an exact
/// shortcut of this walk on its lanes.
template <class Acct>
void pulse_lane(GateLanes& g, Acct& acct, std::size_t k) {
  // Up to five events per input: a changed input that bounced twice
  // carries its first flip plus two return pulses.
  double ev_t[15];
  std::uint8_t ev_i[15];
  std::uint8_t ev_bit[15];
  int ne = 0;
  unsigned idx = 0;
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
        push(g.in_ps[i][k], sbit);
        push(g.in_pe[i][k], nbit);
      }
      if (lanes::lane_bit(g.in_pulsing2[i], k) != 0) {
        push(g.in_ps2[i][k], sbit);
        push(g.in_pe2[i][k], nbit);
      }
    } else {
      // Unchanged input: each pulse is an excursion to the complement
      // of the settled value and back.
      if (lanes::lane_bit(g.in_pulsing[i], k) != 0) {
        push(g.in_ps[i][k], nbit);
        push(g.in_pe[i][k], sbit);
      }
      if (lanes::lane_bit(g.in_pulsing2[i], k) != 0) {
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
  unsigned cur = (g.truth >> idx) & 1u;
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
      // Bouncing changed output: first flip + return pulses (see
      // three_changed_lane). Five or more commits merge the tail
      // bounces into the second pulse.
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

void LevelizedSimulator::step_batch_sweep(
    std::span<const std::uint8_t> inputs, std::size_t count,
    std::span<const double> thresholds_ps, std::span<StepResult> results) {
  VOSIM_EXPECTS(!thresholds_ps.empty());
  VOSIM_EXPECTS(std::is_sorted(thresholds_ps.begin(), thresholds_ps.end()));
  VOSIM_EXPECTS(thresholds_ps.front() > 0.0);
  run_packed(inputs, count, results, /*cycle_mode=*/false, thresholds_ps);
}

void LevelizedSimulator::run_packed(std::span<const std::uint8_t> inputs,
                                    std::size_t count,
                                    std::span<StepResult> results,
                                    bool cycle_mode,
                                    std::span<const double> thresholds_ps) {
  const auto pis = netlist_.primary_inputs();
  const std::size_t npis = pis.size();
  const std::size_t nthr = thresholds_ps.size();
  VOSIM_EXPECTS(inputs.size() == count * npis);
  VOSIM_EXPECTS(results.size() >= count * std::max<std::size_t>(nthr, 1));
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
    if (nthr == 0)
      run_lanes(lanes, results.subspan(done, lanes), cycle_mode);
    else
      run_lanes_sweep(lanes, thresholds_ps,
                      results.subspan(done * nthr, lanes * nthr));
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
    if constexpr (Acct::kWordCommit) {
      // Every launch commit is in-window, so the sampled word is just
      // the settled word.
      if (lanes::any(m)) acct.commit_word_zero(m, energy, t);
      sampled_w_[pi] = settled;
    } else {
      Word sampled = stale;
      lanes::for_each_lane(m, [&](std::size_t k) {
        t[k] = 0.0;
        if (acct.commit(pi, k, 0.0, energy))
          lanes::toggle_lane(sampled, k);
      });
      sampled_w_[pi] = sampled;
    }
  }

  // One levelized pass. Values: packed kLanes-lane evaluation per
  // gate. Timing: each lane with input activity runs a miniature event
  // simulation of just this gate over its ≤6 input events (one flip
  // per changed input at its final transition time, a flip-and-return
  // pair per pulsing input), with the event engine's inertial rule —
  // in binary logic a scheduled commit is only ever cancelled (input
  // pulse shorter than the gate delay), never rescheduled. Commits
  // yield the output's transition time, glitch-pulse window, toggle
  // energy, and the value the capture register samples at Tclk.
  //
  // The hot path dispatches lanes by changed-input count using packed
  // subset words W[s] (the gate function with the inputs in s still at
  // their stale values, evaluated for all kLanes lanes at once): a
  // non-sensitized single change costs nothing, sensitized one- and
  // two-change lanes collapse to a handful of scalar operations, and
  // only lanes fed by a glitch pulse take the generic event walk.
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
  // (zero past the gate's inputs: the pulse classes read all three)
  // and, past the quiet-gate exit, the rest, with the output words
  // reset.
  GateLanes gl{};
  auto& in_stale = gl.in_stale;
  auto& in_changed = gl.in_changed;
  auto& in_pulsing = gl.in_pulsing;
  auto& in_pulsing2 = gl.in_pulsing2;
  for (const GateId gid : netlist_.topo_order()) {
    const Gate& g = netlist_.gate(gid);
    const NetId out = g.out;
    const int n = g.num_inputs;
    const unsigned full = (1u << n) - 1u;

    Word in_settled[3] = {};
    Word any_pulse{};
    Word any_changed{};
    for (int i = 0; i < 3; ++i) {
      if (i >= n) {
        in_stale[i] = in_changed[i] = in_pulsing[i] = in_pulsing2[i] = Word{};
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
    // lane walks, no subset words beyond W[0] and no pulse bookkeeping.
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
      Word sampled;
      Word m_catch;
      if (word_recurrence) {
        const Word stale = lanes::shift1_in(settled, state0) & used;
        stale_w_[out] = stale;
        sampled = stale;
        m_catch = (settled ^ stale) & used;
      } else {
        // Every lane is inactive: sampled(k) = settled(k) (the only
        // possible commit is the in-window catch-up), so the stale
        // chain is the settled word shifted by one cycle.
        sampled = settled;
        const Word stale = lanes::shift1_in(settled, state0) & used;
        stale_w_[out] = stale;
        m_catch = (settled ^ stale) & used;
      }
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
    gl.full = full;
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
    const auto& in_ps = gl.in_ps;
    const auto& in_pe = gl.in_pe;

    // W[s]: packed gate value with the inputs in subset s still stale.
    Word* const W = gl.W;
    for (unsigned s = 0; s <= full; ++s) {
      const Word wa =
          n > 0 ? ((s & 1u) ? in_stale[0] : in_settled[0]) : Word{};
      const Word wb =
          n > 1 ? ((s & 2u) ? in_stale[1] : in_settled[1]) : Word{};
      const Word wc =
          n > 2 ? ((s & 4u) ? in_stale[2] : in_settled[2]) : Word{};
      W[s] = eval_cell_packed(g.kind, wa, wb, wc) & used;
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
    Word stale;
    Word& changed = gl.changed;
    Word& sampled = gl.sampled;
    if (word_recurrence) {
      stale = lanes::shift1_in(settled, state0) & used;
      stale_w_[out] = stale;
      changed = settled ^ stale;
      sampled = stale;
    } else {
      // Built lane by lane in the cycle scan below; lanes without input
      // activity sample their settled value (their only possible commit
      // is the catch-up, which always lands inside the window).
      stale = Word{};
      changed = Word{};
      sampled = settled;
    }

    Word& pulsing = gl.pulsing;
    Word& pulsing2 = gl.pulsing2;
    Word& committed = gl.committed;  // lanes whose output committed a flip
    pulsing = pulsing2 = committed = Word{};
    const double delay = gl.delay;
    const double energy = gl.energy;
    const auto base_out = static_cast<std::size_t>(out) * kLanes;
    double* const tout = gl.tout = &time_ps_[base_out];
    double* const pout_s = gl.pout_s = &pulse_start_ps_[base_out];
    double* const pout_e = gl.pout_e = &pulse_end_ps_[base_out];
    double* const pout2_s = gl.pout2_s = &pulse2_start_ps_[base_out];
    double* const pout2_e = gl.pout2_e = &pulse2_end_ps_[base_out];

    const Word ch0 = in_changed[0];
    const Word ch1 = in_changed[1];
    const Word ch2 = in_changed[2];

    // Single-pulse classification. A lane whose only input activity is
    // one surviving pulse on input i (no changed inputs, no second
    // pulse, no pulse on another input) splits by sensitization at the
    // lane's settled (== stale) input state: not sensitized means the
    // generic walk would build zero output events — the lane needs no
    // walk at all (pulse_skip) — and sensitized means the walk is a
    // single closed-form excursion (thru[i] → pulse_through_lane).
    // Both reproduce pulse_lane bit-exactly; at deep over-scaling,
    // where glitch fanout makes the generic walk the dominant cost,
    // most pulse-fed lanes fall into these two classes.
    Word thru[3] = {};
    Word pulse_skip{};
    // Changed+pulse pairs: lanes whose only activity is one changed
    // input j (no bounce) plus one surviving pulse on unchanged input
    // i. Their generic walk has exactly three events with values drawn
    // from four packed words, so it collapses to a closed-form walk
    // (changed_pulse_lane) with no event-list build, truth lookups or
    // per-input pointer chasing. cp_m/cp_j/cp_i/cp_est/cp_ese hold the
    // per-pair lane masks and the two extra packed evaluations (input
    // i complemented, with j stale resp. settled).
    int cp_j[6];
    int cp_i[6];
    Word cp_m[6];
    Word cp_est[6];
    Word cp_ese[6];
    int ncp = 0;
    Word cp_all{};
    // Pure bounce class: one changed input j carrying its own return
    // pulse, every other input quiet (bounce_lane below).
    Word bn[3] = {};
    Word bn_all{};
    int bc_j[6];
    int bc_l[6];
    Word bc_m[6];
    int nbc = 0;
    Word bc_all{};
    if (lanes::any(any_pulse)) {
      const Word quiet = ~(ch0 | ch1 | ch2);
      // Per-input activity words and their "every input but X" ORs,
      // as straight-line word ops: with n <= 3 and the activity arrays
      // zero-filled past n this is smaller than `for (t) if (t != i)`
      // loops.
      const Word pp0 = in_pulsing[0] | in_pulsing2[0];
      const Word pp1 = in_pulsing[1] | in_pulsing2[1];
      const Word pp2 = in_pulsing[2] | in_pulsing2[2];
      const Word pp[3] = {pp0, pp1, pp2};
      const Word pp_ex[3] = {pp1 | pp2, pp0 | pp2, pp0 | pp1};
      const Word ch_ex[3] = {ch1 | ch2, ch0 | ch2, ch0 | ch1};
      const Word cpp[3] = {pp0 | ch0, pp1 | ch1, pp2 | ch2};
      const Word cpp_ex[3] = {cpp[1] | cpp[2], cpp[0] | cpp[2],
                              cpp[0] | cpp[1]};
      // Packed evaluation with input i complemented and input js (or
      // none, js < 0) at its stale word: the value the gate shows
      // during an excursion of input i.
      const auto eval_comp = [&](int i, int js) {
        Word wa = js == 0 ? in_stale[0] : in_settled[0];
        Word wb = n > 1 ? (js == 1 ? in_stale[1] : in_settled[1]) : Word{};
        Word wc = n > 2 ? (js == 2 ? in_stale[2] : in_settled[2]) : Word{};
        if (i == 0) wa = ~wa;
        if (i == 1) wb = ~wb;
        if (i == 2) wc = ~wc;
        return eval_cell_packed(g.kind, wa, wb, wc);
      };
      for (int i = 0; i < n; ++i) {
        const Word only =
            in_pulsing[i] & ~in_pulsing2[i] & quiet & used & ~pp_ex[i];
        if (!lanes::any(only)) continue;
        const Word sens = (eval_comp(i, -1) ^ settled) & only;
        thru[i] = sens;
        pulse_skip |= only & ~sens;
      }
      for (int j = 0; lanes::any(any_changed) && j < n; ++j) {
        const Word chonly = in_changed[j] & ~pp[j] & used & ~ch_ex[j];
        if (!lanes::any(chonly)) continue;
        for (int i = 0; i < n; ++i) {
          if (i == j) continue;
          const Word m =
              chonly & in_pulsing[i] & ~in_pulsing2[i] & ~pp_ex[i];
          if (!lanes::any(m)) continue;
          cp_j[ncp] = j;
          cp_i[ncp] = i;
          cp_m[ncp] = m;
          cp_est[ncp] = eval_comp(i, j);
          cp_ese[ncp] = eval_comp(i, -1);
          cp_all |= m;
          ++ncp;
        }
      }
      for (int j = 0; lanes::any(any_changed) && j < n; ++j) {
        const Word m =
            in_changed[j] & in_pulsing[j] & ~in_pulsing2[j] & used &
            ~cpp_ex[j];
        bn[j] = m;
        bn_all |= m;
      }
      // Two changed inputs, one of them bouncing: j carries its first
      // flip plus a return pulse, l flips once, nothing else is
      // active. All four reachable gate values are subset words, so
      // the walk needs no extra packed evaluations (bc_lane below).
      for (int j = 0; lanes::any(any_changed) && j < n; ++j) {
        Word mj = in_changed[j] & in_pulsing[j] & ~in_pulsing2[j] & used;
        if (!lanes::any(mj)) continue;
        for (int l = 0; l < n; ++l) {
          if (l == j) continue;
          Word m = mj & in_changed[l] & ~pp[l];
          if (n == 3) m &= ~cpp[3 - j - l];
          if (!lanes::any(m)) continue;
          bc_j[nbc] = j;
          bc_l[nbc] = l;
          bc_m[nbc] = m;
          bc_all |= m;
          ++nbc;
        }
      }
    }
    const Word thru_all = thru[0] | thru[1] | thru[2];

    // -- packed pulse classes: exact shortcuts of pulse_lane --------------

    // Quiet lane fed by exactly one surviving pulse on input i, with
    // the gate sensitized to i (thru[i]): the generic walk reduces to
    // one excursion — a pending flip at ps + delay, inertially
    // cancelled when the pulse is narrower than the gate delay, else
    // two commits and a forwarded pulse. Matches pulse_lane commit for
    // commit on these lanes (same times, same bookkeeping) without
    // building and sorting the event list.
    const auto pulse_through_lane = [&](std::size_t k, int i) {
      const double ps = in_ps[i][k];
      const double pe = in_pe[i][k];
      const double t1 = ps + delay;
      if (t1 > pe) return;  // absorbed; a changed lane takes catch-up
      const double t2 = pe + delay;
      if (acct.commit(out, k, t1, energy)) lanes::toggle_lane(sampled, k);
      if (acct.commit(out, k, t2, energy)) lanes::toggle_lane(sampled, k);
      lanes::set_lane(committed, k);
      if (lanes::lane_bit(changed, k) != 0) {
        tout[k] = t2;  // two-commit changed output: merged single flip
      } else {
        lanes::set_lane(pulsing, k);
        pout_s[k] = t1;
        pout_e[k] = t2;
      }
    };

    // Lane whose only activity is one bouncing changed input j (its
    // first flip plus one forwarded return pulse, no other input
    // active): three events on a single input, already in ascending
    // time order by construction (a forwarded pulse window always
    // trails the flip it returns from), toggling the gate between two
    // packed values — W[1<<j] (j stale) and the settled word. Same
    // inertial walk and tail as pulse_lane, commit for commit.
    const auto bounce_lane = [&](std::size_t k, int j, Word w_jst) {
      const double et[3] = {in_time[j][k], in_ps[j][k], in_pe[j][k]};
      const unsigned a = static_cast<unsigned>(lanes::lane_bit(w_jst, k));
      const unsigned b = static_cast<unsigned>(lanes::lane_bit(settled, k));
      const unsigned vs[3] = {b, a, b};
      unsigned cur = a;
      bool pending = false;
      double commit_t = 0.0;
      double cts[3] = {0.0, 0.0, 0.0};
      double last_c = 0.0;
      int ncommits = 0;
      const auto do_commit = [&](double tc) {
        cur ^= 1u;
        if (ncommits < 3) cts[ncommits] = tc;
        ++ncommits;
        last_c = tc;
        if (acct.commit(out, k, tc, energy))
          lanes::toggle_lane(sampled, k);
        lanes::set_lane(committed, k);
      };
      for (int e = 0; e < 3; ++e) {
        if (pending && commit_t <= et[e]) {
          do_commit(commit_t);
          pending = false;
        }
        const unsigned v = vs[e];
        if (v != cur && !pending) {
          pending = true;
          commit_t = et[e] + delay;
        } else if (v == cur && pending) {
          pending = false;  // inertial cancellation
        }
      }
      if (pending) do_commit(commit_t);
      if (lanes::lane_bit(changed, k) != 0) {
        if (ncommits >= 3) {
          tout[k] = cts[0];
          lanes::set_lane(pulsing, k);
          pout_s[k] = cts[1];
          pout_e[k] = last_c;
        } else {
          tout[k] = last_c;
        }
      } else if (ncommits >= 2) {
        lanes::set_lane(pulsing, k);
        pout_s[k] = cts[0];
        pout_e[k] = ncommits == 2 ? last_c : cts[1];
      }
    };

    // Lane with two changed inputs where j bounces (flip + return
    // pulse) and l flips once, nothing else active: four events whose
    // reachable values are all subset words W[s]. Event order is the
    // ascending-time stable order of pulse_lane's build list — the
    // bounce chain (tj <= ps <= pe) is pre-sorted, so only l's flip
    // needs placing, with tie-breaking by build position. Up to four
    // commits, so the full generic tail (including the second
    // forwarded pulse of an unchanged output) is replicated.
    const auto bc_lane = [&](std::size_t k, int j, int l) {
      const double tl = in_time[l][k];
      double et[4] = {in_time[j][k], in_ps[j][k], in_pe[j][k], 0.0};
      // Actions: 0 = j to settled, 1 = j back to stale, 2 = j to
      // settled, 3 = l to settled.
      unsigned act[4] = {0, 1, 2, 3};
      const int pos = l < j ? static_cast<int>(et[0] < tl) +
                                  static_cast<int>(et[1] < tl) +
                                  static_cast<int>(et[2] < tl)
                            : static_cast<int>(et[0] <= tl) +
                                  static_cast<int>(et[1] <= tl) +
                                  static_cast<int>(et[2] <= tl);
      for (int x = 2; x >= pos; --x) {
        et[x + 1] = et[x];
        act[x + 1] = act[x];
      }
      et[pos] = tl;
      act[pos] = 3;
      const unsigned bj = 1u << j;
      const unsigned bl = 1u << l;
      unsigned sub = bj | bl;
      unsigned cur = static_cast<unsigned>(lanes::lane_bit(W[sub], k));
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
        if (acct.commit(out, k, tc, energy))
          lanes::toggle_lane(sampled, k);
        lanes::set_lane(committed, k);
      };
      for (int e = 0; e < 4; ++e) {
        if (pending && commit_t <= et[e]) {
          do_commit(commit_t);
          pending = false;
        }
        switch (act[e]) {
          case 0: sub &= ~bj; break;
          case 1: sub |= bj; break;
          case 2: sub &= ~bj; break;
          default: sub &= ~bl; break;
        }
        const unsigned v = static_cast<unsigned>(lanes::lane_bit(W[sub], k));
        if (v != cur && !pending) {
          pending = true;
          commit_t = et[e] + delay;
        } else if (v == cur && pending) {
          pending = false;  // inertial cancellation
        }
      }
      if (pending) do_commit(commit_t);
      if (lanes::lane_bit(changed, k) != 0) {
        if (ncommits >= 3) {
          tout[k] = cts[0];
          lanes::set_lane(pulsing, k);
          pout_s[k] = cts[1];
          pout_e[k] = ncommits == 3 ? last_c : cts[2];
        } else {
          tout[k] = last_c;
        }
      } else if (ncommits >= 2) {
        lanes::set_lane(pulsing, k);
        pout_s[k] = cts[0];
        pout_e[k] = ncommits == 2 ? last_c : cts[1];
        if (ncommits >= 4) {
          lanes::set_lane(pulsing2, k);
          pout2_s[k] = cts[2];
          pout2_e[k] = last_c;
        }
      }
    };

    // Lane whose only activity is one changed input j plus one
    // surviving pulse on unchanged input i: the generic walk over its
    // three events (flip of j, excursion out and back of i), with the
    // four reachable gate values precomputed as packed words. Same
    // build order, stable sort, inertial rule and tail bookkeeping as
    // pulse_lane, commit for commit — with at most three events there
    // are at most three commits, so the second-pulse branches of the
    // generic tail can never fire and are dropped.
    const auto changed_pulse_lane = [&](std::size_t k, int j, int i,
                                        Word w_jst, Word w_jst_ic,
                                        Word w_jse_ic) {
      // Ascending-time event order with pulse_lane's tie-breaking: the
      // generic walk builds events in ascending input index and sorts
      // with strict comparisons, so ties keep build order. With one
      // flip (tj) and one ordered excursion (ps <= pe) that leaves
      // three possible orders, selected directly. Actions: 0 = input j
      // flips to settled, 1 = excursion of i out, 2 = excursion back.
      const double tj = in_time[j][k];
      const double ps = in_ps[i][k];
      const double pe = in_pe[i][k];
      double et[3];
      unsigned act[3];
      const bool j_first = j < i ? !(ps < tj) : tj < ps;
      const bool j_last = j < i ? pe < tj : !(tj < pe);
      if (j_first) {
        et[0] = tj; et[1] = ps; et[2] = pe;
        act[0] = 0; act[1] = 1; act[2] = 2;
      } else if (j_last) {
        et[0] = ps; et[1] = pe; et[2] = tj;
        act[0] = 1; act[1] = 2; act[2] = 0;
      } else {
        et[0] = ps; et[1] = tj; et[2] = pe;
        act[0] = 1; act[1] = 0; act[2] = 2;
      }
      // Gate value per input state, indexed (j settled ? 2 : 0) |
      // (i complemented ? 1 : 0). Unchanged inputs sit at their
      // settled values on these lanes, so four words cover the walk.
      const unsigned nib =
          static_cast<unsigned>(lanes::lane_bit(w_jst, k)) |
          (static_cast<unsigned>(lanes::lane_bit(w_jst_ic, k)) << 1) |
          (static_cast<unsigned>(lanes::lane_bit(settled, k)) << 2) |
          (static_cast<unsigned>(lanes::lane_bit(w_jse_ic, k)) << 3);
      unsigned st = 0;
      unsigned cur = nib & 1u;
      bool pending = false;
      double commit_t = 0.0;
      double cts[3] = {0.0, 0.0, 0.0};
      double last_c = 0.0;
      int ncommits = 0;
      const auto do_commit = [&](double tc) {
        cur ^= 1u;
        if (ncommits < 3) cts[ncommits] = tc;
        ++ncommits;
        last_c = tc;
        if (acct.commit(out, k, tc, energy))
          lanes::toggle_lane(sampled, k);
        lanes::set_lane(committed, k);
      };
      for (int e = 0; e < 3; ++e) {
        if (pending && commit_t <= et[e]) {
          do_commit(commit_t);
          pending = false;
        }
        st = act[e] == 0 ? (st | 2u) : (act[e] == 1 ? (st | 1u) : (st & ~1u));
        const unsigned v = (nib >> st) & 1u;
        if (v != cur && !pending) {
          pending = true;
          commit_t = et[e] + delay;
        } else if (v == cur && pending) {
          pending = false;  // inertial cancellation
        }
      }
      if (pending) do_commit(commit_t);
      if (lanes::lane_bit(changed, k) != 0) {
        if (ncommits >= 3) {
          tout[k] = cts[0];
          lanes::set_lane(pulsing, k);
          pout_s[k] = cts[1];
          pout_e[k] = last_c;
        } else {
          tout[k] = last_c;
        }
      } else if (ncommits >= 2) {
        lanes::set_lane(pulsing, k);
        pout_s[k] = cts[0];
        pout_e[k] = ncommits == 2 ? last_c : cts[1];
      }
    };

    // -- dispatch ---------------------------------------------------------

    if (word_recurrence) {
      // Streaming recurrence (streaming mode, or a cycle-safe gate in
      // cycle mode): lanes are order-free, so each changed-input class
      // is swept as a packed mask (pulse-free lanes only; pulse-fed
      // lanes take the generic walk).
      const Word pairs = (ch0 & ch1) | (ch0 & ch2) | (ch1 & ch2);
      const Word three = ch0 & ch1 & ch2 & ~any_pulse & used;
      const Word two = pairs & ~(ch0 & ch1 & ch2) & ~any_pulse & used;
      const Word one = (ch0 ^ ch1 ^ ch2) & ~pairs & ~any_pulse & used;

      // SIMD eligibility: single-threshold accounting, a full lane
      // word, and an arrival-bounded gate (cycle_safe_ — every commit
      // provably in-window, so the per-lane window test vanishes and
      // whole commit classes become branchless vector sweeps). Partial
      // words, unsafe gates and the sweep accounting keep the scalar
      // loops; both produce bit-identical per-lane values.
      bool simd_gate = false;
      (void)simd_gate;
#if defined(__AVX2__)
      if constexpr (Acct::kWordCommit)
        simd_gate = acct.nlanes == kLanes && cycle_safe_[gid] != 0;
#endif

      // Exactly one changed input: a sensitized lane commits once at
      // t + delay; a non-sensitized lane does nothing at all.
      for (int i = 0; i < n; ++i) {
        Word m = one & in_changed[i] & (W[1u << i] ^ settled);
        if (!lanes::any(m)) continue;
#if defined(__AVX2__)
        if constexpr (Acct::kWordCommit) {
          if (simd_gate) {
            acct.commit_flips_simd(m, in_time[i], delay, energy, tout);
            sampled ^= m;
            committed |= m;
            continue;
          }
        }
#endif
        lanes::for_each_lane(m, [&](std::size_t k) {
          commit_flip(gl, acct, k, in_time[i][k] + delay);
        });
      }

      for (int i = 0; n >= 2 && i < n - 1; ++i) {
        for (int j = i + 1; j < n; ++j) {
          Word m = two & in_changed[i] & in_changed[j];
          if (!lanes::any(m)) continue;
#if defined(__AVX2__)
          if constexpr (Acct::kWordCommit) {
            if (simd_gate) {
              // Changed-output lanes commit exactly once, vectorized;
              // unchanged-output lanes (possible glitch pulse, with
              // its pulse bookkeeping) stay scalar. Each lane is in
              // exactly one group, so per-lane commit order is
              // untouched.
              const Word mc = m & changed;
              if (lanes::any(mc)) {
                acct.commit_two_simd(mc, in_time[i], in_time[j],
                                     W[1u << i], W[1u << j], settled,
                                     delay, energy, tout);
                sampled ^= mc;
                committed |= mc;
              }
              m &= ~changed;
            }
          }
#endif
          lanes::for_each_lane(m, [&](std::size_t k) {
            two_changed_lane(gl, acct, k, i, j);
          });
        }
      }

      lanes::for_each_lane(three, [&](std::size_t k) {
        three_changed_lane(
            gl, acct, k, static_cast<unsigned>(lanes::lane_bit(stale, k)));
      });

      for (int i = 0; i < n; ++i)
        lanes::for_each_lane(thru[i], [&](std::size_t k) {
          pulse_through_lane(k, i);
        });
      for (int p = 0; p < ncp; ++p)
        lanes::for_each_lane(cp_m[p], [&](std::size_t k) {
          changed_pulse_lane(k, cp_j[p], cp_i[p], W[1u << cp_j[p]],
                             cp_est[p], cp_ese[p]);
        });
      for (int j = 0; j < n; ++j)
        lanes::for_each_lane(bn[j], [&](std::size_t k) {
          bounce_lane(k, j, W[1u << j]);
        });
      for (int p = 0; p < nbc; ++p)
        lanes::for_each_lane(bc_m[p], [&](std::size_t k) {
          bc_lane(k, bc_j[p], bc_l[p]);
        });
      lanes::for_each_lane(
          any_pulse & used & ~thru_all & ~pulse_skip & ~cp_all & ~bn_all &
              ~bc_all,
          [&](std::size_t k) { pulse_lane(gl, acct, k); });

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
      // value — exactly the pre-filled word. pulse_skip lanes have no
      // changed input and provably no commits, so — like lanes without
      // input activity — their sampled value is settled (catch-up) and
      // they can skip the serial scan entirely.
      const Word active = (ch0 | ch1 | ch2 | any_pulse) & used & ~pulse_skip;
      lanes::for_each_lane(active, [&](std::size_t k) {
        const std::uint8_t sb =
            k == 0 ? state0 : lanes::lane_bit(sampled, k - 1);
        lanes::assign_lane(sampled, k, sb != 0);
        lanes::assign_lane(
            changed, k, (lanes::lane_bit(settled, k) ^ sb) != 0);
        if (lanes::lane_bit(any_pulse, k) != 0) {
          if (lanes::lane_bit(thru[0], k) != 0)
            pulse_through_lane(k, 0);
          else if (lanes::lane_bit(thru[1], k) != 0)
            pulse_through_lane(k, 1);
          else if (lanes::lane_bit(thru[2], k) != 0)
            pulse_through_lane(k, 2);
          else if (lanes::lane_bit(cp_all, k) != 0) {
            for (int p = 0; p < ncp; ++p)
              if (lanes::lane_bit(cp_m[p], k) != 0) {
                changed_pulse_lane(k, cp_j[p], cp_i[p], W[1u << cp_j[p]],
                                   cp_est[p], cp_ese[p]);
                break;
              }
          } else if (lanes::lane_bit(bn_all, k) != 0) {
            const int j = lanes::lane_bit(bn[0], k) != 0
                              ? 0
                              : (lanes::lane_bit(bn[1], k) != 0 ? 1 : 2);
            bounce_lane(k, j, W[1u << j]);
          } else if (lanes::lane_bit(bc_all, k) != 0) {
            for (int p = 0; p < nbc; ++p)
              if (lanes::lane_bit(bc_m[p], k) != 0) {
                bc_lane(k, bc_j[p], bc_l[p]);
                break;
              }
          } else {
            pulse_lane(gl, acct, k);
          }
        } else {
          const int c0 = lanes::lane_bit(ch0, k);
          const int c1 = lanes::lane_bit(ch1, k);
          const int c2 = lanes::lane_bit(ch2, k);
          const int cnt = c0 + c1 + c2;
          if (cnt == 1) {
            const int i = c0 ? 0 : (c1 ? 1 : 2);
            if ((lanes::lane_bit(W[1u << i], k) ^
                 lanes::lane_bit(settled, k)) != 0)
              commit_flip(gl, acct, k, in_time[i][k] + delay);
          } else if (cnt == 2) {
            two_changed_lane(gl, acct, k, c0 ? 0 : 1, c2 ? 2 : 1);
          } else if (cnt == 3) {
            three_changed_lane(gl, acct, k, static_cast<unsigned>(sb));
          }
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
    pulsing_w_[out] = pulsing;
    pulsing2_w_[out] = pulsing2;
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
    const auto subset = [&](unsigned s) -> Word {
      return (truth >> ((stale_idx & s) | (settled_idx & ~s))) & 1u;
    };
    if (pulsed != 0) {
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
      pulse_lane(gl, acct, 0);
    } else if (changed_in != 0) {
      gl.pout_s = &pulse_start_ps_[base_out];
      gl.pout_e = &pulse_end_ps_[base_out];
      for (int i = 0; i < n; ++i)
        gl.in_time[i] =
            &time_ps_[static_cast<std::size_t>(g.in[i]) * kLanes];
      const int i = std::countr_zero(changed_in);
      switch (std::popcount(changed_in)) {
        case 1:
          // A non-sensitized single change commits nothing.
          if (subset(1u << i) != settled)
            commit_flip(gl, acct, 0, gl.in_time[i][0] + gl.delay);
          break;
        case 2: {
          const int j = std::bit_width(changed_in) - 1;
          gl.W[1u << i] = subset(1u << i);
          gl.W[1u << j] = subset(1u << j);
          two_changed_lane(gl, acct, 0, i, j);
          break;
        }
        default:
          gl.full = 7u;
          for (unsigned s = 1; s <= gl.full; ++s) gl.W[s] = subset(s);
          three_changed_lane(gl, acct, 0, static_cast<unsigned>(stale));
          break;
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
  for (NetId n = 0; n < static_cast<NetId>(netlist_.num_nets()); ++n) {
    state_[n] = lanes::lane_bit(carried[n], last);
    sampled_state_[n] = lanes::lane_bit(sampled_w_[n], last);
  }
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
    std::size_t lanes, std::span<const double> thresholds_ps,
    std::span<StepResult> results) {
  const std::size_t nthr = thresholds_ps.size();
  const auto pos = netlist_.primary_outputs();
  const std::size_t npo = pos.size();

  sweep_ediff_.assign((nthr + 1) * kLanes, 0.0);
  sweep_tdiff_.assign((nthr + 1) * kLanes, 0);
  sweep_sdiff_.assign(npo * (nthr + 1), Word{});
  sweep_tot_e_.assign(kLanes, 0.0);
  sweep_tot_t_.assign(kLanes, 0);
  sweep_settle_.assign(kLanes, 0.0);

  MultiThresholdAcct acct{thresholds_ps,        sweep_ediff_.data(),
                          sweep_tdiff_.data(),  sweep_sdiff_.data(),
                          sweep_tot_e_.data(),  sweep_tot_t_.data(),
                          sweep_settle_.data(), po_index_.data()};
  run_lanes_impl<false>(lanes, acct);

  // Prefix over buckets: threshold j sees every commit in buckets ≤ j.
  // sweep_ediff_/tdiff_ become per-threshold window sums in place;
  // sweep_sdiff_ becomes per-threshold sampled words (base: stale).
  for (std::size_t j = 1; j < nthr; ++j) {
    double* ej = &sweep_ediff_[j * kLanes];
    const double* ep = &sweep_ediff_[(j - 1) * kLanes];
    std::uint32_t* tj = &sweep_tdiff_[j * kLanes];
    const std::uint32_t* tp = &sweep_tdiff_[(j - 1) * kLanes];
    for (std::size_t k = 0; k < lanes; ++k) {
      ej[k] += ep[k];
      tj[k] += tp[k];
    }
  }
  for (std::size_t p = 0; p < npo; ++p) {
    Word run = stale_w_[pos[p]];
    for (std::size_t j = 0; j < nthr; ++j) {
      run ^= sweep_sdiff_[p * (nthr + 1) + j];
      sweep_sdiff_[p * (nthr + 1) + j] = run;
    }
  }

  for (std::size_t k = 0; k < lanes; ++k) {
    std::uint64_t settled = 0;
    for (std::size_t p = 0; p < npo; ++p)
      settled |= static_cast<std::uint64_t>(
                     lanes::lane_bit(settled_w_[pos[p]], k))
                 << p;
    for (std::size_t j = 0; j < nthr; ++j) {
      StepResult& r = results[k * nthr + j];
      std::uint64_t sampled = 0;
      for (std::size_t p = 0; p < npo; ++p)
        sampled |= static_cast<std::uint64_t>(lanes::lane_bit(
                       sweep_sdiff_[p * (nthr + 1) + j], k))
                   << p;
      r.sampled_outputs = sampled;
      r.settled_outputs = settled;
      r.window_energy_fj = sweep_ediff_[j * kLanes + k];
      r.toggles_in_window = sweep_tdiff_[j * kLanes + k];
      r.total_energy_fj = sweep_tot_e_[k];
      r.toggles_total = sweep_tot_t_[k];
      r.settle_time_ps = sweep_settle_[k];
    }
  }
  carry_state(lanes);
}

}  // namespace vosim
