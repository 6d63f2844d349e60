// vosbench — one run of one benchmark workload (see perfbench/README.md).
//
//   vosbench --workload NAME --seed N --seconds S --trace 0|1
//            [--out DIR] [--git-sha SHA]
//
// Repeats the workload's measured unit, each after its own set-up,
// until S seconds have passed (setup_s is the median set-up) and
// prints, as its last stdout line, one JSON record: output digest,
// checks, attempted/failed units, the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1), host load and fingerprint. The
// traced run interleaves untraced and traced reps (their ratio is
// obs.trace_overhead_pct), then times the layers the workload itself
// does not exercise (the "ladder"), and writes every span as a Chrome
// trace into DIR.
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/trace.hpp"
#include "src/vosim.hpp"
#include "src/util/lanes.hpp"

namespace fs = std::filesystem;
using namespace vosim;
using perfbench::Clock;
using perfbench::Samples;
using perfbench::Scope;
using perfbench::Tracer;
using perfbench::seconds_between;

namespace {

// ------------------------------------------------------------ helpers

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

unsigned nproc() { return hardware_parallelism(); }


/// Independent sub-seed per purpose, so --seed 1 and --seed 2 share no
/// stimuli (splitmix64 over seed ^ FNV(tag)).
std::uint64_t sub_seed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  std::uint64_t z = seed ^ h;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0xffffffffULL;  // small enough for JSON ints
}

/// FNV-1a 64 over everything fed to it, in order.
class Digest {
 public:
  void add(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
    h_ ^= 0xff;  // record separator
    h_ *= 1099511628211ULL;
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// A served or stored JSONL line with its wall-clock elapsed_s field
/// removed: the one value that differs between equivalent runs.
std::string strip_elapsed(const std::string& line) {
  const std::string tag = "\"elapsed_s\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return line;
  std::size_t end = at + tag.size();
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  std::size_t begin = at;
  if (end < line.size() && line[end] == ',') ++end;  // eat separator
  else if (begin > 0 && line[begin - 1] == ',') --begin;
  return line.substr(0, begin) + line.substr(end);
}

std::string cell_line_no_time(const CampaignCell& cell) {
  CampaignCell c = cell;
  c.elapsed_s = 0.0;
  return strip_elapsed(CampaignStore::to_jsonl(c));
}

/// Reads "<key>:  <number> kB" from /proc/self/status, in MB.
double proc_status_mb(const std::string& key) {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind(key + ":", 0) == 0)
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
  return 0.0;
}

/// Host load at one instant: the CPUs' steal and total ticks from
/// /proc/stat and this process's CPU time. Two readings give the share
/// of CPU time the hypervisor handed to other guests and how many cores
/// the run actually kept busy, so a slow run on a loaded host can be
/// told from slow code.
struct HostLoad {
  double steal_ticks = 0.0;
  double total_ticks = 0.0;
  double cpu_s = 0.0;
  Clock::time_point wall;

  static HostLoad now() {
    HostLoad h;
    std::ifstream is("/proc/stat");
    std::string label;
    is >> label;  // "cpu": user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
      double v = 0.0;
      if (!(is >> v)) break;
      h.total_ticks += v;
      if (field == 7) h.steal_ticks = v;
    }
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    h.cpu_s = static_cast<double>(ts.tv_sec) +
              static_cast<double>(ts.tv_nsec) * 1e-9;
    h.wall = Clock::now();
    return h;
  }

  /// Steal ticks between `a` and `b` as a share of all ticks, in %.
  static double steal_pct(const HostLoad& a, const HostLoad& b) {
    const double total = b.total_ticks - a.total_ticks;
    return total > 0.0 ? 100.0 * (b.steal_ticks - a.steal_ticks) / total
                       : 0.0;
  }
  /// Process CPU seconds per wall second between `a` and `b`.
  static double busy_cores(const HostLoad& a, const HostLoad& b) {
    const double wall = seconds_between(a.wall, b.wall);
    return wall > 0.0 ? (b.cpu_s - a.cpu_s) / wall : 0.0;
  }
};

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      std::string v = colon == std::string::npos ? line
                                                 : line.substr(colon + 1);
      while (!v.empty() && v.front() == ' ') v.erase(v.begin());
      return v;
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Outcome checks of one run; any failed check makes the run incorrect.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(m_);
    if (!ok && failures_.size() < 20) failures_.push_back(what);
    if (!ok) ++failed_;
    ++total_;
  }
  bool ok() const { return failed_ == 0; }
  std::string json() const {
    std::ostringstream os;
    os << "{\"total\":" << total_ << ",\"failed\":" << failed_
       << ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i)
      os << (i ? "," : "") << "\"" << json_escape(failures_[i]) << "\"";
    os << "]}";
    return os.str();
  }

 private:
  std::mutex m_;
  std::vector<std::string> failures_;
  std::size_t failed_ = 0;
  std::size_t total_ = 0;
};

/// One measured repetition of a workload.
struct Rep {
  double seconds = 0.0;       ///< wall time of the measured calls
  std::size_t units = 0;      ///< cells, triads, chips or requests done
  std::size_t failed = 0;     ///< units that failed (error, drop, timeout)
  std::string digest;         ///< digest of every simulated output
  /// The program's own set-up inside the measured calls, when the
  /// workload can observe it (campaign: call to first finished cell;
  /// fleet: the studies' ladder characterization); -1 otherwise.
  double setup_seconds = -1.0;
};

/// Named end-to-end figure of one workload, printed with its unit.
struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The operating-point ladder of the campaign workloads, relaxed to
/// deep VOS (Tclk as a multiple of each circuit's critical path).
const std::vector<TriadSpec>& vos_ladder() {
  static const std::vector<TriadSpec> specs = {
      {1.3, 1.0, 0.0}, {1.0, 1.0, 0.0}, {1.0, 0.8, 0.0}, {0.8, 0.9, 0.0},
      {0.8, 0.7, 2.0}, {0.6, 0.8, 0.0}, {0.6, 0.6, 2.0}, {0.5, 0.5, 0.0}};
  return specs;
}

// ---------------------------------------------------- campaign spans

/// Per-call bookkeeping of a run_campaign call made by the benchmark:
/// records the call-to-first-cell latency (always: it is campaign_cold's
/// setup_s) and, when tracing, reconstructs each computed cell as a span
/// [on_cell - elapsed_s, on_cell] under the call's span and counts the
/// adds routed per backend.
struct CampaignCall {
  int span = -1;
  double t0 = 0.0;
  std::mutex m;
  double first_cell = -1.0;
  std::map<std::string, double> adds;

  std::function<void(const CampaignCell&)> hook() {
    return [this](const CampaignCell& cell) {
      Tracer& tr = Tracer::get();
      const double t = tr.now();
      {
        std::lock_guard<std::mutex> lock(m);
        if (first_cell < 0.0) first_cell = t - t0;
      }
      if (!tr.enabled()) return;
      tr.add("campaign.cell." + cell.key.backend, t - cell.elapsed_s, t,
             span, fleet_content_hash(0, cell.key.to_string()));
      Samples::get().add("campaign.cell_ms." + cell.key.backend,
                         cell.elapsed_s * 1e3);
      std::lock_guard<std::mutex> lock(m);
      adds[cell.key.backend] += static_cast<double>(cell.adds);
    };
  }

  /// Runs the campaign under a span, feeding the per-layer samples.
  CampaignOutcome run(CampaignConfig cfg, CampaignStore& store,
                      std::uint64_t unit) {
    Scope s("campaign.run_campaign", unit);
    span = s.id();
    t0 = Tracer::get().now();
    cfg.on_cell = hook();
    CampaignOutcome out = run_campaign(lib(), cfg, store);
    if (Tracer::get().enabled()) {
      Samples& smp = Samples::get();
      if (first_cell >= 0.0) smp.add("campaign.first_cell_s", first_cell);
      for (const auto& [backend, n] : adds) smp.add("sim.adds." + backend, n);
      smp.add("campaign.reused", static_cast<double>(out.reused));
      smp.add("campaign.computed", static_cast<double>(out.computed));
      record_quality_dev(out.cells);
    }
    return out;
  }

  /// Max |normalized quality| gap between sim-levelized cells and their
  /// sim-event reference cell, in percentage points; -1 without pairs.
  static double levelized_dev_pp(const std::vector<CampaignCell>& cells) {
    std::map<std::string, double> event;
    const auto pair_key = [](const CampaignCell& c) {
      CampaignCellKey k = c.key;
      k.backend = "";
      return k.to_string();
    };
    for (const CampaignCell& c : cells)
      if (c.key.backend == "sim-event") event[pair_key(c)] = c.normalized;
    double dev = -1.0;
    for (const CampaignCell& c : cells) {
      if (c.key.backend != "sim-levelized") continue;
      const auto it = event.find(pair_key(c));
      if (it != event.end())
        dev = std::max(dev, std::fabs(c.normalized - it->second) * 100.0);
    }
    return dev;
  }

  static void record_quality_dev(const std::vector<CampaignCell>& cells) {
    const double dev = levelized_dev_pp(cells);
    if (dev >= 0.0)
      Samples::get().add("campaign.levelized_quality_dev_pp", dev);
  }
};

// ------------------------------------------------------------ workloads

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  /// Inputs that a user would already have on disk (e.g. a preloaded
  /// store); made once per process, not timed as set-up.
  virtual void prepare(Checks&) {}
  /// One set-up of the measured state, before every rep; timed by the
  /// caller as setup_s unless the reps report the program's own set-up
  /// (Rep::setup_seconds).
  virtual void setup() {}
  /// One measured repetition.
  virtual Rep rep(std::size_t index, Checks& checks) = 0;
  /// Checks and digests the outputs of rep `index` after its span has
  /// closed, for workloads whose checks would otherwise sit in the
  /// traced rep's wall time beside the layer calls.
  virtual void verify(std::size_t /*index*/, Rep& /*rep*/, Checks&) {}
  /// Work after the last rep (checks outside the timed region).
  virtual void finish(Checks&) {}
  /// Workload-specific figures, named as in the README.
  virtual std::vector<Figure> figures(const std::vector<Rep>& reps) = 0;
  /// Unit of `Rep::units`, for the failed/attempted base.
  virtual const char* unit_name() const = 0;
  /// Layers this workload exercises itself (the ladder skips them).
  virtual std::set<std::string> own_layers() const = 0;
  /// Median latency of the user-level call: one campaign, one sweep of
  /// the circuit set, one fleet study, one warm request.
  virtual double call_p50_ms(const std::vector<Rep>& reps) const;
};

double rate_median(const std::vector<Rep>& reps) {
  std::vector<double> r;
  for (const Rep& rep : reps)
    if (rep.seconds > 0.0)
      r.push_back(static_cast<double>(rep.units) / rep.seconds);
  return perfbench::median(r);
}

double BenchWorkload::call_p50_ms(const std::vector<Rep>& reps) const {
  std::vector<double> r;
  for (const Rep& rep : reps) r.push_back(rep.seconds * 1e3);
  return perfbench::median(r);
}

// campaign_cold: the job users run — a fresh file-backed store and the
// full fir/dot x three 16-bit adders x 8-triad VOS ladder x four
// backends x 3 fleet chips grid (576 cells), jobs = nproc.
class CampaignCold : public BenchWorkload {
 public:
  CampaignCold(std::uint64_t seed, fs::path dir) : dir_(std::move(dir)) {
    cfg_.workloads = {"fir", "dot"};
    cfg_.circuits = {"rca16", "ksa16", "bka16"};
    cfg_.backends = {ArithBackend::kModel, ArithBackend::kSimEvent,
                     ArithBackend::kSimLevelized, ArithBackend::kSimSeq};
    cfg_.triad_specs = vos_ladder();
    cfg_.seed = sub_seed(seed, "campaign");
    cfg_.fleet.num_chips = 3;
    cfg_.fleet.seed = sub_seed(seed, "campaign.fleet");
    cfg_.jobs = nproc();
  }

  Rep rep(std::size_t index, Checks& checks) override {
    const fs::path path = dir_ / ("campaign-" + std::to_string(index) +
                                  ".jsonl");
    fs::remove(path);
    Rep rep;
    CampaignOutcome out;
    {
      CampaignStore store(path.string());
      CampaignCall call;
      const auto t0 = Clock::now();
      out = call.run(cfg_, store, index);
      rep.seconds = seconds_between(t0, Clock::now());
      // run_campaign's own set-up: grid, synthesis, characterization
      // and model training, up to the first finished cell.
      rep.setup_seconds = call.first_cell;
    }
    const std::size_t grid = 2 * 3 * vos_ladder().size() * 4 * 3;
    checks.expect(out.cells.size() == grid && out.computed == grid &&
                      out.reused == 0,
                  "campaign_cold: grid size or cold-store accounting");
    // The store file must hold every computed cell, line for line.
    const CampaignStore reloaded = [&] {
      Scope s("campaign.store.load", index);
      return CampaignStore(path.string());
    }();
    checks.expect(reloaded.size() == grid,
                  "campaign_cold: store file lost cells");
    // Digest the stored form, the lines a later run or the daemon
    // serves, in grid order.
    Digest d;
    for (const CampaignCell& cell : out.cells) {
      const auto stored = reloaded.find(cell.key);
      const bool same = stored.has_value() &&
                        stored->quality == cell.quality &&
                        stored->normalized == cell.normalized &&
                        stored->adds == cell.adds && stored->ber == cell.ber;
      checks.expect(same, "campaign_cold: stored cell differs from outcome");
      if (!same) ++rep.failed;
      d.add(stored ? cell_line_no_time(*stored) : std::string("missing"));
    }
    rep.units = out.computed;
    rep.digest = d.hex();
    last_dev_ = CampaignCall::levelized_dev_pp(out.cells);
    fs::remove(path);
    return rep;
  }

  std::vector<Figure> figures(const std::vector<Rep>& reps) override {
    return {{"cells_per_s", rate_median(reps), "cells/s"},
            {"levelized_quality_dev_pp", last_dev_, "pp"}};
  }
  const char* unit_name() const override { return "cells"; }
  std::set<std::string> own_layers() const override { return {"campaign"}; }

 private:
  fs::path dir_;
  CampaignConfig cfg_;
  double last_dev_ = 0.0;
};

// characterize_sweep: the paper's characterization flow — the full
// 43-triad levelized sweep at 20,000 patterns per triad, over the
// 16-bit adders, the 8-bit multiplier, the MAC tree and the three
// registry pipelines.
class CharacterizeSweep : public BenchWorkload {
 public:
  explicit CharacterizeSweep(std::uint64_t seed) {
    ccfg_.num_patterns = kPatterns;
    ccfg_.engine = EngineKind::kLevelized;
    ccfg_.pattern_seed = sub_seed(seed, "characterize.patterns");
    ccfg_.variation_seed = sub_seed(seed, "characterize.die");
    ccfg_.threads = nproc();
  }

  void setup() override {
    comb_.clear();
    seq_.clear();
    for (const char* spec : {"rca16", "ksa16", "bka16", "mul8-array",
                             "mac4x8"}) {
      Comb c;
      {
        Scope s("netlist.build");
        c.dut = build_circuit(spec);
      }
      Scope s("sta.synth");
      c.triads = make_circuit_triads(
          c.dut, synthesize_report(c.dut.netlist, lib()).critical_path_ns);
      comb_.push_back(std::move(c));
    }
    for (const char* spec : {"pipe2-mul8", "pipe3-mac4x8", "fir4-pipe"}) {
      std::optional<SeqDut> seq;
      {
        Scope s("netlist.build");
        seq = build_seq_circuit(spec);
      }
      Scope s("sta.synth");
      std::vector<OperatingTriad> triads =
          make_dut_triads(seq_critical_path_ns(*seq, lib()));
      seq_.push_back({std::move(*seq), std::move(triads)});
    }
  }

  Rep rep(std::size_t index, Checks& checks) override {
    Rep rep;
    Samples& smp = Samples::get();
    const bool traced = Tracer::get().enabled();
    std::vector<std::vector<TriadResult>> results;
    for (const Comb& c : comb_) {
      Scope s("characterize.dut_sweep", index);
      const auto t0 = Clock::now();
      results.push_back(characterize_dut(c.dut, lib(), c.triads, ccfg_));
      const double dt = seconds_between(t0, Clock::now());
      rep.seconds += dt;
      if (traced) smp.add("characterize.dut_sweep_ms", dt * 1e3);
      for (const TriadResult& r : results.back())
        checks.expect(r.patterns == kPatterns,
                      "characterize_sweep: combinational triad short of "
                      "its pattern budget");
    }
    std::size_t saturated = 0, seq_triads = 0;
    for (const SeqCase& c : seq_) {
      Scope s("characterize.seq_sweep", index);
      const auto t0 = Clock::now();
      results.push_back(characterize_seq_dut(c.seq, lib(), c.triads, ccfg_));
      const double dt = seconds_between(t0, Clock::now());
      rep.seconds += dt;
      if (traced) smp.add("characterize.seq_sweep_ms", dt * 1e3);
      for (const TriadResult& r : results.back()) {
        ++seq_triads;
        saturated += r.patterns < kPatterns;
      }
    }
    if (traced)
      smp.add("characterize.saturated_triad_ratio",
              static_cast<double>(saturated) /
                  static_cast<double>(seq_triads));
    Digest d;
    for (const auto& rs : results)
      for (const TriadResult& r : rs) {
        std::string line = jsonl::num(r.triad.tclk_ns) + ',' +
                           jsonl::num(r.triad.vdd_v) + ',' +
                           jsonl::num(r.triad.vbb_v);
        for (const double v : {r.ber, r.op_error_rate, r.mse, r.mred,
                               r.energy_per_op_fj, r.dynamic_energy_fj,
                               r.leakage_energy_fj})
          line += '|' + jsonl::num(v);
        line += '|' + std::to_string(r.patterns) + '|';
        for (const double b : r.bitwise_ber) line += jsonl::num(b) + ',';
        d.add(line);
        const bool sane = r.ber >= 0.0 && r.ber <= 1.0 &&
                          r.energy_per_op_fj > 0.0 && r.patterns > 0 &&
                          r.patterns <= kPatterns;
        checks.expect(sane, "characterize_sweep: triad result out of range");
        rep.failed += !sane;
        ++rep.units;
      }
    rep.digest = d.hex();
    return rep;
  }

  std::vector<Figure> figures(const std::vector<Rep>& reps) override {
    return {{"triads_per_s", rate_median(reps), "triads/s"}};
  }
  const char* unit_name() const override { return "triads"; }
  std::set<std::string> own_layers() const override {
    return {"characterize"};
  }

 private:
  static constexpr std::size_t kPatterns = 20000;
  struct Comb {
    DutNetlist dut;
    std::vector<OperatingTriad> triads;
  };
  struct SeqCase {
    SeqDut seq;
    std::vector<OperatingTriad> triads;
  };

  CharacterizeConfig ccfg_;
  std::vector<Comb> comb_;
  std::vector<SeqCase> seq_;
};

/// Digest line of one fleet chip outcome.
std::string chip_line(const ChipOutcome& c) {
  std::ostringstream os;
  os << c.chip.chip << '|' << jsonl::num(c.chip.delay_scale) << '|'
     << jsonl::num(c.chip.leakage_scale) << '|' << c.chip.variation_seed
     << '|' << c.final_rung << '|' << jsonl::num(c.mean_energy_fj) << '|'
     << jsonl::num(c.flagged_rate) << '|' << jsonl::num(c.error_rate) << '|'
     << c.switches;
  return os.str();
}

/// Replays chip `chip` of a finished fleet study through the public
/// closed-loop unit, exactly as run_fleet_study serves it, and returns
/// its outcome — the fleet cross-check and the per-chip layer timing.
ChipOutcome replay_chip(const FleetStudyConfig& cfg, const SeqDut& seq,
                        const std::vector<TriadRung>& ladder,
                        std::uint64_t chip) {
  const std::size_t nops = seq.num_operands();
  std::vector<std::uint64_t> operands(cfg.cycles * nops, 0);
  DutPatternStream patterns(cfg.policy, seq.operand_widths(),
                            cfg.pattern_seed);
  for (std::size_t c = 0; c < cfg.cycles; ++c)
    patterns.next(std::span<std::uint64_t>(operands.data() + c * nops, nops));
  TimingSimConfig base;
  base.engine = EngineKind::kLevelized;
  ChipOutcome oc;
  oc.chip = draw_chip_instance(cfg.fleet, chip);
  Scope span("fleet.chip", chip);
  const auto t0 = Clock::now();
  ClosedLoopSeqUnit unit(seq, lib(), ladder, cfg.control,
                         apply_chip(base, oc.chip, cfg.fleet.within_die_sigma));
  std::vector<ClosedLoopCycleResult> results(cfg.cycles);
  unit.run_batch(operands, cfg.cycles, results);
  const double s = seconds_between(t0, Clock::now());
  oc.final_rung = unit.controller().rung();
  oc.mean_energy_fj = unit.mean_energy_fj();
  oc.switches = unit.controller().switches();
  std::uint64_t flagged = 0, valid = 0, wrong = 0;
  for (const ClosedLoopCycleResult& r : results) {
    if (r.cycle.razor_flags != 0) ++flagged;
    if (!r.cycle.output_valid) continue;
    ++valid;
    if (r.cycle.captured != r.cycle.expected) ++wrong;
  }
  oc.flagged_rate =
      static_cast<double>(flagged) / static_cast<double>(cfg.cycles);
  oc.error_rate = valid > 0 ? static_cast<double>(wrong) /
                                  static_cast<double>(valid)
                            : 0.0;
  Samples::get().add("fleet.chip_ms", s * 1e3);
  Samples::get().add("runtime.closed_loop_ns_per_cycle",
                     s * 1e9 / static_cast<double>(cfg.cycles));
  return oc;
}

/// Rebuilds a fleet's ladder the way run_fleet_study does (nominal-die
/// levelized sweep of the pipeline's Table-III grid, signoff rung
/// pinned first), timed as the fleet.ladder layer.
std::vector<TriadRung> replay_ladder(const FleetStudyConfig& cfg,
                                     const SeqDut& seq) {
  Scope span("fleet.ladder");
  const auto t0 = Clock::now();
  const auto triads = make_dut_triads(seq_critical_path_ns(seq, lib()));
  CharacterizeConfig ccfg;
  ccfg.num_patterns = cfg.ladder_patterns;
  ccfg.policy = cfg.policy;
  ccfg.pattern_seed = cfg.pattern_seed;
  ccfg.engine = EngineKind::kLevelized;
  ccfg.threads = cfg.jobs;
  const auto lev = characterize_seq_dut(seq, lib(), triads, ccfg);
  std::vector<TriadRung> ladder = build_triad_ladder(lev);
  if (ladder.empty() || !(ladder.front().triad == triads[0]))
    ladder.insert(ladder.begin(),
                  TriadRung{triads[0], 0.0, lev[0].energy_per_op_fj});
  Samples::get().add("fleet.ladder_ms",
                     seconds_between(t0, Clock::now()) * 1e3);
  return ladder;
}

/// Cross-checks `out` against a chip-by-chip replay of `chips`.
void check_fleet_replay(const FleetStudyConfig& cfg, const FleetOutcome& out,
                        const std::vector<std::uint64_t>& chips,
                        Checks& checks) {
  const SeqDut seq = build_seq_circuit(cfg.circuit);
  const std::vector<TriadRung> ladder = replay_ladder(cfg, seq);
  bool same_ladder = ladder.size() == out.ladder.size();
  for (std::size_t r = 0; same_ladder && r < ladder.size(); ++r)
    same_ladder = ladder[r].triad == out.ladder[r].triad;
  checks.expect(same_ladder, "fleet: replayed ladder differs");
  for (const std::uint64_t chip : chips) {
    const ChipOutcome oc = replay_chip(cfg, seq, out.ladder, chip);
    checks.expect(chip_line(oc) == chip_line(out.chips[chip - 1]),
                  "fleet: chip " + std::to_string(chip) +
                      " replay differs from run_fleet_study");
  }
  double switches = 0.0;
  for (const ChipOutcome& c : out.chips)
    switches += static_cast<double>(c.switches);
  Samples::get().add("runtime.switches_per_chip",
                     switches / static_cast<double>(out.chips.size()));
}

std::string fleet_digest(const FleetOutcome& out) {
  Digest d;
  for (const TriadRung& r : out.ladder)
    d.add(jsonl::num(r.triad.tclk_ns) + ',' + jsonl::num(r.triad.vdd_v) +
          ',' + jsonl::num(r.triad.vbb_v) + '|' +
          jsonl::num(r.expected_ber) + '|' + jsonl::num(r.energy_per_op_fj));
  for (const ChipOutcome& c : out.chips) d.add(chip_line(c));
  return d.hex();
}

// fleet_closed_loop: the closed-loop ladder controller on pipe2-mul8
// over Monte-Carlo fleets, each chip serving 4096 cycles. One rep runs
// 8 independent studies of 40 chips (own workload stream, own ladder,
// own chip draws): how fast the controller settles depends on the
// stream, so one 320-chip study would make chips/s swing with the seed.
class FleetClosedLoop : public BenchWorkload {
 public:
  explicit FleetClosedLoop(std::uint64_t seed) {
    for (std::size_t k = 0; k < kStudies; ++k) {
      FleetStudyConfig cfg;
      cfg.circuit = "pipe2-mul8";
      cfg.fleet.num_chips = kChips;
      cfg.fleet.seed = sub_seed(seed, "fleet." + std::to_string(k));
      cfg.pattern_seed =
          sub_seed(seed, "fleet.patterns." + std::to_string(k));
      cfg.jobs = nproc();
      cfgs_.push_back(cfg);
    }
  }

  Rep rep(std::size_t index, Checks& checks) override {
    Rep rep;
    rep.setup_seconds = 0.0;
    Digest d;
    for (std::size_t k = 0; k < kStudies; ++k) {
      FleetOutcome out;
      {
        Scope s("fleet.run_fleet_study", index * kStudies + k);
        const auto t0 = Clock::now();
        out = run_fleet_study(lib(), cfgs_[k]);
        rep.seconds += seconds_between(t0, Clock::now());
      }
      // The study's set-up as run_fleet_study times it: the one-time
      // ladder characterization before any chip runs.
      rep.setup_seconds += out.ladder_seconds;
      std::size_t hist = 0;
      for (const std::size_t n : out.rung_histogram) hist += n;
      checks.expect(out.chips.size() == kChips && hist == kChips,
                    "fleet: chip count or rung histogram");
      for (const ChipOutcome& c : out.chips) {
        const bool sane = c.final_rung < out.ladder.size() &&
                          c.mean_energy_fj > 0.0 && c.error_rate <= 1.0;
        if (!sane) ++rep.failed;
      }
      rep.units += out.chips.size();
      d.add(fleet_digest(out));
      if (index == 0 && k == 0) first_ = std::move(out);
    }
    checks.expect(rep.failed == 0, "fleet: chip outcome out of range");
    rep.digest = d.hex();
    return rep;
  }

  void finish(Checks& checks) override {
    if (first_.chips.empty()) return;
    check_fleet_replay(cfgs_[0], first_, {1, kChips / 2, kChips}, checks);
  }

  std::vector<Figure> figures(const std::vector<Rep>& reps) override {
    return {{"chips_per_s", rate_median(reps), "chips/s"}};
  }
  const char* unit_name() const override { return "chips"; }
  std::set<std::string> own_layers() const override { return {"fleet"}; }

 private:
  static constexpr std::size_t kStudies = 8;
  static constexpr std::size_t kChips = 40;
  std::vector<FleetStudyConfig> cfgs_;
  FleetOutcome first_;
};

/// One client request of the serve workloads and its answer.
struct Request {
  enum Kind { kWarm, kCold, kStats, kPing } kind = kPing;
  std::size_t templ = 0;  ///< warm grid index
  std::string line;
};
struct Answer {
  std::vector<std::string> lines;
  double seconds = 0.0;
  std::size_t bytes = 0;
  std::string error;  ///< transport failure
};

/// One timed round trip through send_request, under a span.
Answer exchange(const std::string& socket, const Request& req,
                std::uint64_t unit, int parent) {
  static const char* names[] = {"warm", "cold", "stats", "ping"};
  Scope span(std::string("serve.request.") + names[req.kind], unit, parent);
  Answer a;
  const auto t0 = Clock::now();
  try {
    a.lines = send_request(socket, req.line);
  } catch (const std::exception& e) {
    a.error = e.what();
  }
  a.seconds = seconds_between(t0, Clock::now());
  for (const std::string& l : a.lines) a.bytes += l.size() + 1;
  return a;
}

/// Feeds the serve and cache samples from one answered request; `loaded`
/// marks warm requests sent beside other clients. Failed requests count
/// in `failed` only, not in the latency samples.
void record_answer(const Request& req, const Answer& a, bool loaded) {
  if (!a.error.empty() || a.lines.empty()) return;
  Samples& s = Samples::get();
  const double cells = static_cast<double>(a.lines.size() - 1);
  switch (req.kind) {
    case Request::kWarm:
      s.add(loaded ? "serve.loaded_warm_request_ms" : "serve.warm_request_ms",
            a.seconds * 1e3);
      s.add("serve.bytes_per_warm_request", static_cast<double>(a.bytes));
      s.add("campaign.reused", cells);
      break;
    case Request::kCold:
      s.add("serve.cold_request_ms", a.seconds * 1e3);
      s.add("campaign.computed", cells);
      break;
    case Request::kStats:
      s.add("serve.stats_ms", a.seconds * 1e3);
      break;
    case Request::kPing:
      s.add("serve.ping_us", a.seconds * 1e6);
      break;
  }
}

// serve_mixed: an in-process daemon whose store is preloaded from a
// file, driven by nproc closed-loop clients (each waits for its reply
// before sending the next request) with a fixed seeded mix: warm
// campaign requests answered from the store, campaign requests on
// fresh seeds (compute plus append beside the reads), stats and ping.
// One rep is one daemon session after its set-up (store load + start):
// a lone client's latency probe of warm requests, then the clients'
// scripts side by side, then stop.
class ServeMixed : public BenchWorkload {
 public:
  ServeMixed(std::uint64_t seed, fs::path dir)
      : seed_(seed), dir_(std::move(dir)) {}

  void prepare(Checks& checks) override {
    const std::uint64_t s = sub_seed(seed_, "serve");
    const std::string common = ",\"seed\":" + std::to_string(s) +
                               ",\"patterns\":1000,\"train_patterns\":2000}";
    warm_ = {
        "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":\"rca16\","
        "\"backends\":\"model\",\"max_triads\":6" + common,
        "{\"cmd\":\"campaign\",\"workloads\":\"dot\",\"circuits\":\"ksa16\","
        "\"backends\":\"model,sim-levelized\",\"max_triads\":6" + common,
        "{\"cmd\":\"campaign\",\"workloads\":\"fir,dot\",\"circuits\":"
        "\"bka16\",\"backends\":\"sim-levelized\",\"max_triads\":4" + common,
        "{\"cmd\":\"campaign\",\"workloads\":\"fir,dot\",\"circuits\":"
        "\"rca16,ksa16,bka16\",\"backends\":\"model,sim-levelized\","
        "\"max_triads\":6" + common,
        "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
        "\"ksa16\",\"backends\":\"exact\",\"max_triads\":12,\"chips\":2" +
            common};
    // The preload: the daemon's earlier work — the gate-level/model grid
    // of the warm requests plus a history of exact cells over the full
    // 43-triad grid on 8 chips (2,064 cells), so the store holds about
    // 2,100 lines like a daemon that has served for a while.
    preload_ = dir_ / "serve-preload.jsonl";
    fs::remove(preload_);
    {
      CampaignStore store(preload_.string());
      run_campaign(lib(), request_config(warm_[3]), store);
      run_campaign(lib(), request_config(history_request(s)), store);
    }
    // Expected warm answers: the stored lines of an offline campaign
    // over the preloaded store, then the all-reused footer.
    CampaignStore offline(preload_.string());
    for (const std::string& req : warm_) {
      const CampaignOutcome out =
          run_campaign(lib(), request_config(req), offline);
      std::vector<std::string> lines;
      for (const CampaignCell& cell : out.cells)
        lines.push_back(CampaignStore::to_jsonl(*offline.find(cell.key)));
      lines.push_back("{\"done\":true,\"cells\":" +
                      std::to_string(out.cells.size()) + ",\"reused\":" +
                      std::to_string(out.cells.size()) + ",\"computed\":0}");
      checks.expect(out.computed == 0, "serve: preload misses warm cells");
      expected_warm_.push_back(std::move(lines));
    }
    // Client scripts: fixed per (seed, client), identical every session.
    // Each client sends the same mix — 85 warm requests (17 per grid),
    // 3 cold, 6 stats, 6 ping — in a seeded order, so the cost of a
    // session does not swing with how many cold requests a seed happens
    // to draw.
    const unsigned clients = nproc();
    scripts_.assign(clients, {});
    for (unsigned c = 0; c < clients; ++c) {
      std::vector<Request>& script = scripts_[c];
      for (std::size_t t = 0; t < warm_.size(); ++t)
        for (std::size_t i = 0; i < 85 / warm_.size(); ++i)
          script.push_back({Request::kWarm, t, warm_[t]});
      for (std::size_t i = 0; i < 3; ++i) {
        const std::uint64_t fresh =
            sub_seed(seed_, "serve.cold") + 1 + c * 100000ULL + i;
        checks.expect(fresh != s, "serve: fresh seed collides");
        script.push_back({Request::kCold, 0, cold_request(fresh)});
      }
      for (std::size_t i = 0; i < 6; ++i) {
        script.push_back({Request::kStats, 0, "{\"cmd\":\"stats\"}"});
        script.push_back({Request::kPing, 0, "{\"cmd\":\"ping\"}"});
      }
      Rng rng(sub_seed(seed_, "serve.client." + std::to_string(c)));
      for (std::size_t i = script.size() - 1; i > 0; --i)
        std::swap(script[i], script[rng.below(i + 1)]);
    }
    // The latency probe: one client alone, 20 warm requests per grid.
    for (std::size_t t = 0; t < warm_.size(); ++t)
      for (std::size_t i = 0; i < 20; ++i)
        probe_.push_back({Request::kWarm, t, warm_[t]});
    Rng rng(sub_seed(seed_, "serve.probe"));
    for (std::size_t i = probe_.size() - 1; i > 0; --i)
      std::swap(probe_[i], probe_[rng.below(i + 1)]);
  }

  void setup() override {
    Scope span("serve.setup");
    server_.reset();
    const fs::path session = dir_ / "serve-session.jsonl";
    fs::copy_file(preload_, session, fs::copy_options::overwrite_existing);
    ServeConfig cfg;
    // Relative to the run directory: sockaddr_un holds ~100 bytes.
    cfg.socket_path = (dir_ / ("vb-" + std::to_string(::getpid()) +
                               ".sock")).string();
    cfg.store_path = session.string();
    cfg.jobs = nproc();
    {
      Scope s("campaign.store.load");  // the daemon loads its store here
      const auto t0 = Clock::now();
      server_ = std::make_unique<CampaignServer>(lib(), cfg);
      Samples::get().add("campaign.store.load_ms",
                         seconds_between(t0, Clock::now()) * 1e3);
    }
    server_->start();
  }

  Rep rep(std::size_t index, Checks&) override {
    // Requests made on the client threads hang under the caller's span.
    const int parent = Tracer::get().current();
    const unsigned clients = static_cast<unsigned>(scripts_.size());
    // answers[0] is the lone latency probe, answers[1 + c] client c's.
    std::vector<std::vector<Answer>>& answers = answers_;
    answers.assign(clients + 1, {});
    const double vm0 = proc_status_mb("VmSize");
    const auto t0 = Clock::now();
    run_script(probe_, kProbeUnit, parent, answers[0]);
    {
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back([this, c, &answers, parent] {
          run_script(scripts_[c], c * 100000ULL, parent, answers[1 + c]);
        });
      for (std::thread& t : threads) t.join();
    }
    Rep rep;
    rep.seconds = seconds_between(t0, Clock::now());
    vm_growth_mb_ = proc_status_mb("VmSize") - vm0;
    if (index == 0) {
      // Python's json.dumps writes {"cmd": "ping"}; probe whether the
      // daemon accepts it (not part of the measured mix).
      const Answer a = exchange(server_->socket_path(),
                                {Request::kPing, 0, "{\"cmd\": \"ping\"}"},
                                0, parent);
      whitespace_ok_ = a.lines.size() == 1 &&
                       a.lines[0] == "{\"ok\":true,\"cmd\":\"ping\"}";
    }
    {
      Scope s("serve.stop", index);
      server_->stop();
      server_.reset();
    }
    return rep;
  }

  void verify(std::size_t index, Rep& rep, Checks& checks) override {
    fs::remove(dir_ / "serve-session.jsonl");
    Digest d;
    for (std::size_t c = 0; c < answers_.size(); ++c)
      for (std::size_t k = 0; k < answers_[c].size(); ++k) {
        const Request& req = c == 0 ? probe_[k] : scripts_[c - 1][k];
        const Answer& a = answers_[c][k];
        ++rep.units;
        const bool ok = check_answer(req, a, checks);
        if (!ok) ++rep.failed;
        for (const std::string& line : a.lines)
          d.add(req.kind == Request::kStats ? std::string("stats")
                                            : strip_elapsed(line));
        record_answer(req, a, c != 0);
        if (index == 0 && req.kind == Request::kCold &&
            cold_checks_.size() < kColdChecks)
          cold_checks_.push_back({req.line, a.lines});
      }
    rep.digest = d.hex();
    answers_.clear();
    Samples::get().add("serve.vm_growth_mb_per_1k_requests",
                       vm_growth_mb_ * 1000.0 /
                           static_cast<double>(std::max<std::size_t>(
                               rep.units, 1)));
  }

  void finish(Checks& checks) override {
    fs::remove(preload_);
    // Served cold cells must equal, byte for byte apart from elapsed_s,
    // an offline run_campaign of the same request.
    for (const auto& [line, served] : cold_checks_) {
      CampaignConfig cfg = request_config(line);
      checks.expect(served_equal(served, cfg),
                    "serve: cold cells differ from offline campaign");
    }
    // The same request with the daemon's default worker count: cells
    // should not depend on it (reported, not checked).
    if (!cold_checks_.empty()) {
      CampaignConfig cfg = request_config(cold_checks_.front().first);
      cfg.jobs = nproc();
      jobs_invariant_ = served_equal(cold_checks_.front().second, cfg);
    }
  }

  std::vector<Figure> figures(const std::vector<Rep>& reps) override {
    const auto warm = Samples::get().values("serve.warm_request_ms");
    const auto tail = perfbench::tail_percentile(warm);
    std::size_t attempted = 0, failed = 0;
    for (const Rep& r : reps) {
      attempted += r.units;
      failed += r.failed;
    }
    return {
        {"requests_per_s", rate_median(reps), "requests/s"},
        {"warm_request_p50_ms", perfbench::median(warm), "ms"},
        {"warm_request_tail_ms", tail.second,
         "ms(p" + jsonl::num(tail.first) + ",n=" +
             std::to_string(warm.size()) + ")"},
        {"loaded_warm_request_p50_ms",
         perfbench::median(
             Samples::get().values("serve.loaded_warm_request_ms")),
         "ms"},
        {"cold_request_p50_ms",
         perfbench::median(Samples::get().values("serve.cold_request_ms")),
         "ms"},
        {"failed_ratio",
         static_cast<double>(failed) /
             static_cast<double>(std::max<std::size_t>(attempted, 1)),
         "failed/requests"},
        {"whitespace_json_accepted", whitespace_ok_ ? 1.0 : 0.0, "bool"},
        {"cold_cells_jobs_invariant", jobs_invariant_ ? 1.0 : 0.0, "bool"}};
  }
  double call_p50_ms(const std::vector<Rep>&) const override {
    return perfbench::median(Samples::get().values("serve.warm_request_ms"));
  }
  const char* unit_name() const override { return "requests"; }
  std::set<std::string> own_layers() const override { return {"serve"}; }

  /// The campaign config the daemon builds from a request line.
  static CampaignConfig request_config(const std::string& line) {
    CampaignConfig cfg;
    std::string raw;
    const auto list = [](const std::string& csv) {
      std::vector<std::string> out;
      std::istringstream is(csv);
      std::string item;
      while (std::getline(is, item, ','))
        if (!item.empty()) out.push_back(item);
      return out;
    };
    if (jsonl::raw_field(line, "workloads", raw)) cfg.workloads = list(raw);
    if (jsonl::raw_field(line, "circuits", raw)) cfg.circuits = list(raw);
    if (jsonl::raw_field(line, "backends", raw)) {
      cfg.backends.clear();
      for (const std::string& b : list(raw))
        cfg.backends.push_back(parse_arith_backend(b));
    }
    std::uint64_t u = 0;
    if (jsonl::u64_field(line, "seed", u)) cfg.seed = u;
    if (jsonl::u64_field(line, "patterns", u)) cfg.characterize_patterns = u;
    if (jsonl::u64_field(line, "train_patterns", u)) cfg.train_patterns = u;
    if (jsonl::u64_field(line, "max_triads", u)) cfg.max_triads = u;
    if (jsonl::u64_field(line, "chips", u)) cfg.fleet.num_chips = u;
    cfg.jobs = nproc();
    if (jsonl::u64_field(line, "jobs", u)) cfg.jobs = static_cast<unsigned>(u);
    return cfg;
  }

  static std::string history_request(std::uint64_t seed) {
    return "{\"cmd\":\"campaign\",\"workloads\":\"fir,dot\",\"circuits\":"
           "\"rca16,ksa16,bka16\",\"backends\":\"exact\",\"chips\":8,"
           "\"seed\":" + std::to_string(seed) +
           ",\"patterns\":1000,\"train_patterns\":2000}";
  }

  /// A small campaign on a fresh seed. It runs on its connection thread
  /// ("jobs":1), as a script's one-off request would beside the reads,
  /// instead of taking the whole shared pool from the warm clients.
  static std::string cold_request(std::uint64_t seed) {
    return "{\"cmd\":\"campaign\",\"workloads\":\"dot\",\"circuits\":"
           "\"rca16\",\"backends\":\"model\",\"max_triads\":2,\"seed\":" +
           std::to_string(seed) +
           ",\"patterns\":1000,\"train_patterns\":2000,\"jobs\":1}";
  }

 private:
  static constexpr std::size_t kColdChecks = 8;
  static constexpr std::uint64_t kProbeUnit = 1ULL << 40;

  void run_script(const std::vector<Request>& script, std::uint64_t unit0,
                  int parent_span, std::vector<Answer>& answers) {
    const std::string socket = server_->socket_path();
    for (std::size_t k = 0; k < script.size(); ++k)
      answers.push_back(exchange(socket, script[k], unit0 + k, parent_span));
  }

  bool check_answer(const Request& req, const Answer& a, Checks& checks) {
    if (!a.error.empty() || a.lines.empty()) return false;  // drop
    for (const std::string& l : a.lines)
      if (l.rfind("{\"error\"", 0) == 0) return false;  // error line
    bool ok = false;
    switch (req.kind) {
      case Request::kWarm:
        ok = a.lines == expected_warm_[req.templ];
        break;
      case Request::kCold:
        ok = a.lines.back() == "{\"done\":true,\"cells\":2,\"reused\":0,"
                               "\"computed\":2}";
        break;
      case Request::kStats:
        ok = a.lines.size() == 1 &&
             a.lines[0].rfind("{\"ok\":true,\"cmd\":\"stats\"", 0) == 0;
        break;
      case Request::kPing:
        ok = a.lines.size() == 1 &&
             a.lines[0] == "{\"ok\":true,\"cmd\":\"ping\"}";
        break;
    }
    checks.expect(ok, "serve: unexpected answer to " + req.line);
    return ok;
  }

  /// Whether served campaign lines equal the stored lines of an
  /// offline run_campaign of `cfg`, apart from elapsed_s.
  static bool served_equal(const std::vector<std::string>& served,
                           const CampaignConfig& cfg) {
    CampaignStore store;
    const CampaignOutcome out = run_campaign(lib(), cfg, store);
    bool same = served.size() == out.cells.size() + 1;
    for (std::size_t i = 0; same && i < out.cells.size(); ++i)
      same = strip_elapsed(served[i]) ==
             strip_elapsed(
                 CampaignStore::to_jsonl(*store.find(out.cells[i].key)));
    return same;
  }

  std::uint64_t seed_;
  fs::path dir_;
  fs::path preload_;
  std::vector<std::string> warm_;
  std::vector<std::vector<std::string>> expected_warm_;
  std::vector<std::vector<Request>> scripts_;
  std::vector<Request> probe_;
  std::unique_ptr<CampaignServer> server_;
  std::vector<std::vector<Answer>> answers_;  ///< the last rep's answers
  double vm_growth_mb_ = 0.0;                 ///< the last rep's VmSize growth
  std::vector<std::pair<std::string, std::vector<std::string>>> cold_checks_;
  bool whitespace_ok_ = false;
  bool jobs_invariant_ = false;
};

// ---------------------------------------------------------------- ladder

/// Times `fn` over `n` operations; returns ns per operation.
template <class Fn>
double ns_per_op(std::size_t n, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(n);
}

std::vector<std::uint64_t> random_operands(std::uint64_t seed, std::size_t n,
                                           int width) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  const std::uint64_t mask = (1ULL << width) - 1;
  for (std::uint64_t& x : v) x = rng() & mask;
  return v;
}

/// The layer ladder of the traced run: times every layer through its
/// public functions on small seeded inputs. Layers the workload itself
/// exercises (own) are measured from the workload's own calls instead.
void run_ladder(std::uint64_t seed, const std::set<std::string>& own,
                const fs::path& dir, Checks& checks) {
  Scope ladder("ladder");
  Samples& smp = Samples::get();
  const std::uint64_t ls = sub_seed(seed, "ladder");

  // netlist + sta: build and synthesize the probe circuits.
  DutNetlist rca, mul;
  double cp_ns = 0.0;
  {
    Scope s("ladder.netlist");
    for (int r = 0; r < 3; ++r) {
      {
        Scope b("netlist.build");
        rca = build_circuit("rca16");
      }
      Scope b("netlist.build");
      mul = build_circuit("mul8-array");
    }
    for (int r = 0; r < 3; ++r) {
      {
        Scope b("sta.synth");
        cp_ns = synthesize_report(rca.netlist, lib()).critical_path_ns;
      }
      Scope b("sta.synth");
      synthesize_report(mul.netlist, lib());
    }
    const std::size_t words = 4096;
    const Netlist& nl = mul.netlist;
    std::vector<lanes::Word> pi(nl.primary_inputs().size());
    std::vector<lanes::Word> values(nl.num_nets());
    Rng rng(ls);
    smp.add("netlist.eval_packed_ns_per_word", ns_per_op(words, [&] {
              for (std::size_t w = 0; w < words; ++w) {
                for (lanes::Word& x : pi) x = rng();
                evaluate_logic_packed(nl, pi, values);
              }
            }));
  }

  // sim: the adder at a deep-VOS triad on both engines.
  const OperatingTriad deep{0.6 * cp_ns, 0.7, 0.0};
  const std::size_t kScalar = 3000, kBatch = 30000;
  const auto a = random_operands(ls + 1, kBatch, 16);
  const auto b = random_operands(ls + 2, kBatch, 16);
  TimingSimConfig ev_cfg, lv_cfg;
  ev_cfg.engine = EngineKind::kEvent;
  lv_cfg.engine = EngineKind::kLevelized;
  {
    Scope s("ladder.sim");
    const auto t0 = Clock::now();
    for (int r = 0; r < 20; ++r) {
      VosDutSim e(rca, lib(), deep, ev_cfg);
      VosDutSim l(rca, lib(), deep, lv_cfg);
    }
    smp.add("sim.construct_us",
            seconds_between(t0, Clock::now()) * 1e6 / 40.0);
    obs::Counter& lv_patterns =
        obs::metrics().counter("sim.levelized.patterns");
    const std::uint64_t before = lv_patterns.value();
    std::uint64_t sink = 0;
    for (const auto& [name, cfg] :
         {std::pair{"sim.event.apply_ns", ev_cfg},
          std::pair{"sim.levelized.apply_ns", lv_cfg}}) {
      VosDutSim sim(rca, lib(), deep, cfg);
      smp.add(name, ns_per_op(kScalar, [&] {
                for (std::size_t i = 0; i < kScalar; ++i)
                  sink += sim.apply(a[i], b[i]).sampled;
              }));
    }
    VosDutSim lv(rca, lib(), deep, lv_cfg);
    std::vector<VosOpResult> res(kBatch);
    smp.add("sim.levelized.apply_batch_ns_per_op",
            ns_per_op(kBatch, [&] { lv.apply_batch(a, b, res); }));
    // Every levelized operation above should appear in the registry.
    const double issued = static_cast<double>(kScalar + kBatch);
    smp.add("obs.counter_gap.sim.levelized",
            issued - static_cast<double>(lv_patterns.value() - before));
    checks.expect(sink != 0 || res.back().energy_fj > 0.0,
                  "ladder: simulator produced nothing");
  }

  // seq: scalar cycles on the registered adder, batched cycles on the
  // two-stage multiplier pipeline.
  {
    Scope s("ladder.seq");
    const SeqDut reg = wrap_as_pipeline(rca);
    SeqSim sim(reg, lib(), deep, lv_cfg);
    smp.add("seq.step_cycle_ns", ns_per_op(kScalar, [&] {
              for (std::size_t i = 0; i < kScalar; ++i)
                sim.step_cycle(a[i], b[i]);
            }));
    const SeqDut pipe = build_seq_circuit("pipe2-mul8");
    const double pcp = seq_critical_path_ns(pipe, lib());
    SeqSim psim(pipe, lib(), OperatingTriad{0.8 * pcp, 0.8, 0.0}, lv_cfg);
    const std::size_t cycles = 16384;
    std::vector<std::uint64_t> ops(2 * cycles);
    for (std::size_t c = 0; c < cycles; ++c) {
      ops[2 * c] = a[c] & 0xff;
      ops[2 * c + 1] = b[c] & 0xff;
    }
    std::vector<SeqCycleResult> out(cycles);
    smp.add("seq.step_cycle_batch_ns_per_cycle", ns_per_op(cycles, [&] {
              psim.step_cycle_batch(ops, cycles, out);
            }));
  }

  // model: train at the deep triad from a levelized oracle, then add.
  {
    Scope s("ladder.model");
    VosDutSim sim(rca, lib(), deep, lv_cfg);
    const HardwareOracle oracle = [&sim](std::uint64_t x, std::uint64_t y) {
      return sim.apply(x, y).sampled;
    };
    TrainerConfig tcfg;
    tcfg.num_patterns = 4000;
    tcfg.pattern_seed = ls;
    const auto t0 = Clock::now();
    const VosAdderModel model = train_vos_model(16, deep, oracle, tcfg);
    smp.add("model.train_ms", seconds_between(t0, Clock::now()) * 1e3);
    Rng rng(ls);
    const AdderFn add = model_adder_fn(model, rng);
    std::uint64_t sink = 0;
    smp.add("model.add_ns", ns_per_op(kBatch, [&] {
              for (std::size_t i = 0; i < kBatch; ++i) sink += add(a[i], b[i]);
            }));
    checks.expect(sink != 0, "ladder: model produced nothing");
  }

  // apps: kernel time outside the routed adder (exact adder, whose own
  // per-add cost is measured and subtracted).
  {
    Scope s("ladder.apps");
    const AdderFn exact = exact_adder_fn(16);
    std::uint64_t sink = 0;
    const double add_ns = ns_per_op(kBatch, [&] {
      for (std::size_t i = 0; i < kBatch; ++i) sink += exact(a[i], b[i]);
    });
    for (const char* name : {"fir", "dot"}) {
      const vosim::Workload* w = find_workload(name);
      std::vector<double> ms;
      QualityResult q;
      for (int r = 0; r < 3; ++r) {
        const auto t0 = Clock::now();
        q = w->run(exact, ls);
        ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      }
      smp.add(std::string("apps.kernel_self_ms.") + name,
              perfbench::median(ms) -
                  static_cast<double>(q.adds) * add_ns * 1e-6);
      smp.add(std::string("apps.adds_per_cell.") + name,
              static_cast<double>(q.adds));
    }
    checks.expect(sink != 0, "ladder: exact adder produced nothing");
  }

  // campaign store: a file-backed store of synthetic cells.
  {
    Scope s("ladder.store");
    std::vector<CampaignCell> cells(2000);
    Rng rng(ls);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      CampaignCell& c = cells[i];
      c.key.workload = i % 2 ? "fir" : "dot";
      c.key.circuit = "rca16";
      c.key.backend = "sim-levelized";
      c.key.triad = OperatingTriad{0.5 + 0.001 * static_cast<double>(i), 0.8,
                                   0.0};
      c.key.seed = ls;
      c.key.characterize_patterns = 2000;
      c.metric = "snr_db";
      c.quality = static_cast<double>(rng.below(6000)) / 100.0;
      c.normalized = c.quality / 60.0;
      c.energy_per_op_fj = 40.0 + static_cast<double>(rng.below(1000)) / 37.0;
      c.baseline_fj = 57.3;
      c.adds = 4096;
      c.elapsed_s = 0.001;
    }
    std::vector<std::string> lines(cells.size());
    smp.add("campaign.store.to_jsonl_ns", ns_per_op(cells.size(), [&] {
              for (std::size_t i = 0; i < cells.size(); ++i)
                lines[i] = CampaignStore::to_jsonl(cells[i]);
            }));
    std::size_t parsed = 0;
    smp.add("campaign.store.parse_jsonl_ns", ns_per_op(cells.size(), [&] {
              for (const std::string& l : lines)
                parsed += CampaignStore::parse_jsonl(l).has_value();
            }));
    checks.expect(parsed == cells.size(), "ladder: store lines do not parse");
    const fs::path path = dir / "ladder-store.jsonl";
    fs::remove(path);
    {
      CampaignStore store(path.string());
      smp.add("campaign.store.insert_us", ns_per_op(cells.size(), [&] {
                for (const CampaignCell& c : cells) store.insert(c);
              }) * 1e-3);
    }
    {
      // serve_mixed measures store loads in its own session set-ups.
      const auto t0 = Clock::now();
      const CampaignStore loaded(path.string());
      if (own.count("serve") == 0)
        smp.add("campaign.store.load_ms",
                seconds_between(t0, Clock::now()) * 1e3);
      std::size_t found = 0;
      smp.add("campaign.store.find_us", ns_per_op(cells.size(), [&] {
                for (const CampaignCell& c : cells)
                  found += loaded.find(c.key).has_value();
              }) * 1e-3);
      checks.expect(found == cells.size(), "ladder: store lost cells");
    }
    fs::remove(path);
  }

  // util: fork-join dispatch of nproc trivial bodies on the shared pool.
  {
    Scope s("ladder.util");
    std::vector<double> us;
    std::atomic<std::size_t> n{0};
    for (int r = 0; r < 300; ++r) {
      const auto t0 = Clock::now();
      parallel_for(nproc(), [&n](std::size_t) { n.fetch_add(1); }, nproc());
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    smp.add("util.pool_dispatch_us", perfbench::median(us));
  }

  // Small versions of the layers owned by the other workloads.
  if (own.count("campaign") == 0) {
    Scope s("ladder.campaign");
    CampaignConfig cfg;
    cfg.workloads = {"fir", "dot"};
    cfg.circuits = {"rca16"};
    cfg.backends = {ArithBackend::kModel, ArithBackend::kSimEvent,
                    ArithBackend::kSimLevelized, ArithBackend::kSimSeq};
    cfg.triad_specs = {{1.0, 1.0, 0.0}, {0.6, 0.7, 0.0}};
    cfg.seed = ls;
    cfg.jobs = nproc();
    CampaignStore store;
    for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
      CampaignCall call;
      const CampaignOutcome out = call.run(cfg, store, pass);
      checks.expect(out.cells.size() == 16 &&
                        out.reused == (pass == 0 ? 0u : 16u),
                    "ladder: campaign resume accounting");
    }
  }
  if (own.count("characterize") == 0) {
    Scope s("ladder.characterize");
    CharacterizeConfig ccfg;
    ccfg.num_patterns = 2000;
    ccfg.engine = EngineKind::kLevelized;
    ccfg.pattern_seed = ls;
    ccfg.threads = nproc();
    {
      Scope c("characterize.dut_sweep");
      const auto t0 = Clock::now();
      characterize_dut(rca, lib(), make_circuit_triads(rca, cp_ns), ccfg);
      smp.add("characterize.dut_sweep_ms",
              seconds_between(t0, Clock::now()) * 1e3);
    }
    const SeqDut pipe = build_seq_circuit("pipe2-mul8");
    Scope c("characterize.seq_sweep");
    const auto t0 = Clock::now();
    const auto rs = characterize_seq_dut(
        pipe, lib(), make_dut_triads(seq_critical_path_ns(pipe, lib())),
        ccfg);
    smp.add("characterize.seq_sweep_ms",
            seconds_between(t0, Clock::now()) * 1e3);
    std::size_t saturated = 0;
    for (const TriadResult& r : rs) saturated += r.patterns < 2000;
    smp.add("characterize.saturated_triad_ratio",
            static_cast<double>(saturated) / static_cast<double>(rs.size()));
  }
  if (own.count("fleet") == 0) {
    Scope s("ladder.fleet");
    FleetStudyConfig cfg;
    cfg.fleet.num_chips = 8;
    cfg.fleet.seed = ls;
    cfg.cycles = 2048;
    cfg.pattern_seed = ls;
    cfg.jobs = nproc();
    FleetOutcome out;
    {
      Scope f("fleet.run_fleet_study");
      out = run_fleet_study(lib(), cfg);
    }
    check_fleet_replay(cfg, out, {1, 8}, checks);
  }
  if (own.count("serve") == 0) {
    Scope s("ladder.serve");
    ServeConfig cfg;
    cfg.socket_path =
        (dir / ("vl-" + std::to_string(::getpid()) + ".sock")).string();
    cfg.jobs = nproc();
    std::unique_ptr<CampaignServer> server;
    {
      Scope l("campaign.store.load");
      const auto t0 = Clock::now();
      server = std::make_unique<CampaignServer>(lib(), cfg);
      smp.add("campaign.store.load_ms",
              seconds_between(t0, Clock::now()) * 1e3);
    }
    server->start();
    const double vm0 = proc_status_mb("VmSize");
    const std::string campaign = ServeMixed::cold_request(ls);
    std::vector<Request> script{{Request::kCold, 0, campaign}};
    for (int i = 0; i < 20; ++i) {
      script.push_back({Request::kWarm, 0, campaign});
      script.push_back({Request::kPing, 0, "{\"cmd\":\"ping\"}"});
    }
    for (int i = 0; i < 3; ++i)
      script.push_back({Request::kStats, 0, "{\"cmd\":\"stats\"}"});
    for (std::size_t k = 0; k < script.size(); ++k) {
      const Answer a = exchange(cfg.socket_path, script[k], k, -1);
      checks.expect(a.error.empty() && !a.lines.empty() &&
                        a.lines[0].rfind("{\"error\"", 0) != 0,
                    "ladder: daemon failed " + script[k].line);
      record_answer(script[k], a, false);
    }
    smp.add("serve.vm_growth_mb_per_1k_requests",
            (proc_status_mb("VmSize") - vm0) * 1000.0 /
                static_cast<double>(script.size()));
    server->stop();
  }
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path out = ".bench_out";
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--git-sha") a.git_sha = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::unique_ptr<BenchWorkload> make_workload(const Args& a) {
  if (a.workload == "campaign_cold")
    return std::make_unique<CampaignCold>(a.seed, a.out);
  if (a.workload == "characterize_sweep")
    return std::make_unique<CharacterizeSweep>(a.seed);
  if (a.workload == "fleet_closed_loop")
    return std::make_unique<FleetClosedLoop>(a.seed);
  if (a.workload == "serve_mixed")
    return std::make_unique<ServeMixed>(a.seed, a.out);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

double span_mean_ms(const std::vector<perfbench::SpanRecord>& spans,
                    const std::string& name) {
  std::vector<double> v;
  for (const auto& s : spans)
    if (s.name == name) v.push_back((s.end - s.start) * 1e3);
  return perfbench::mean(v);
}

std::string metric_json(const std::string& name, double value,
                        const std::string& unit) {
  std::ostringstream os;
  os.precision(17);
  os << "\"" << name << "\":{\"value\":" << (std::isfinite(value) ? value : 0.0)
     << ",\"unit\":\"" << unit << "\"}";
  return os.str();
}

int run(const Args& args) {
  fs::create_directories(args.out);
  Checks checks;
  std::unique_ptr<BenchWorkload> wl = make_workload(args);
  Tracer& tracer = Tracer::get();
  wl->prepare(checks);
  tracer.set_enabled(args.trace);
  const auto run_start = Clock::now();
  std::vector<Rep> reps, traced, untraced;
  std::vector<double> setups;
  Rep warm;
  HostLoad load0, load1;
  {
    Scope root("run");
    const auto timed_setup = [&] {
      const auto t0 = Clock::now();
      wl->setup();
      setups.push_back(seconds_between(t0, Clock::now()));
    };
    // Every rep runs after its own set-up, like a fresh job; spreading
    // the set-ups over the run keeps their median from landing in one
    // short burst of host contention. One warm-up rep fills caches and
    // starts the pool; its outputs are checked like every other rep's,
    // its time is not reported.
    {
      wl->setup();
      tracer.set_enabled(false);
      const double t0 = tracer.now();
      warm = wl->rep(0, checks);
      wl->verify(0, warm, checks);
      tracer.set_enabled(args.trace);
      tracer.add("rep.warmup", t0, tracer.now(), root.id(), 0);
      Samples::get().clear();  // the warm-up's latencies are not reported
    }
    load0 = HostLoad::now();
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(args.seconds);
    // The traced run interleaves untraced and traced reps so their wall
    // times compare under the same machine state.
    const std::size_t min_reps = args.trace ? 4 : 3;
    for (std::size_t i = 1; reps.size() < min_reps || Clock::now() < deadline;
         ++i) {
      timed_setup();
      const bool traced_rep = args.trace && i % 2 == 1;
      tracer.set_enabled(traced_rep);
      const double t0 = tracer.now();
      Rep r = [&] {
        Scope s("rep.traced", i);  // records only when traced_rep
        return wl->rep(i, checks);
      }();
      wl->verify(i, r, checks);
      tracer.set_enabled(args.trace);
      if (args.trace && !traced_rep)
        tracer.add("rep.untraced", t0, tracer.now(), root.id(), i);
      (traced_rep ? traced : untraced).push_back(r);
      reps.push_back(std::move(r));
    }
    load1 = HostLoad::now();
    {
      Scope f("finish");
      wl->finish(checks);
    }
    if (args.trace) run_ladder(args.seed, wl->own_layers(), args.out, checks);
  }
  const double wall = seconds_between(run_start, Clock::now());

  std::size_t attempted = warm.units, failed = warm.failed;
  checks.expect(warm.digest == reps.front().digest,
                "output digest differs between warm-up and measured reps");
  for (const Rep& r : reps) {
    attempted += r.units;
    failed += r.failed;
    checks.expect(r.digest == reps.front().digest,
                  "output digest differs between reps of one run");
  }
  const bool correct = checks.ok() && attempted > 0;

  // Host fingerprint, stamped into every record.
  std::ostringstream host;
  host << "{\"nproc\":" << nproc() << ",\"cpu\":\""
       << json_escape(cpu_model()) << "\",\"simd\":\""
       << lanes::simd_compiled_name() << "\",\"lane_width\":"
       << lanes::resolve_lane_width(0) << ",\"build_type\":\""
       << VOSBENCH_BUILD_TYPE << "\",\"git_sha\":\""
       << json_escape(args.git_sha) << "\"}";

  // setup_s: the program's own set-up where the reps report it, else
  // the benchmark's timed set-ups before each rep.
  std::vector<double> own_setups;
  for (const Rep& r : reps)
    if (r.setup_seconds >= 0.0) own_setups.push_back(r.setup_seconds);
  const double setup_s = perfbench::median(
      own_setups.size() == reps.size() ? own_setups : setups);

  std::vector<std::string> metrics;
  std::vector<Figure> figures = wl->figures(reps);
  figures.push_back(
      {"host_steal_pct", HostLoad::steal_pct(load0, load1), "%"});
  figures.push_back(
      {"busy_cores", HostLoad::busy_cores(load0, load1), "cpu-s/s"});
  if (!args.trace) {
    metrics.push_back(metric_json("setup_s", setup_s, "s"));
    metrics.push_back(
        metric_json("peak_rss_mb", proc_status_mb("VmHWM"), "MB"));
    metrics.push_back(metric_json(
        "completed_ratio",
        static_cast<double>(attempted - failed) /
            static_cast<double>(std::max<std::size_t>(attempted, 1)),
        "ratio"));
    metrics.push_back(
        metric_json("throughput_per_s", rate_median(reps), "1/s"));
    metrics.push_back(metric_json("call_p50_ms", wl->call_p50_ms(reps), "ms"));
  } else {
    const auto spans = tracer.spans();
    const auto self = Tracer::self_times(spans);
    // Coverage: the share of the traced reps' wall time that their
    // direct child spans — calls into the layers — account for.
    double rep_wall = 0.0, rep_self = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].name == "rep.traced") {
        rep_wall += spans[i].end - spans[i].start;
        rep_self += self[i];
      }
    const double coverage = rep_wall > 0.0 ? 1.0 - rep_self / rep_wall : 0.0;
    Samples& smp = Samples::get();
    const auto med = [&](const char* n) {
      return perfbench::median(smp.values(n));
    };
    const auto avg = [&](const char* n) {
      return perfbench::mean(smp.values(n));
    };
    std::vector<double> tr, un;
    for (const Rep& r : traced) tr.push_back(r.seconds);
    for (const Rep& r : untraced) un.push_back(r.seconds);
    const auto sum = [&](const char* n) {
      double t = 0.0;
      for (const double v : smp.values(n)) t += v;
      return t;
    };
    const double reused = sum("campaign.reused");
    const double computed = sum("campaign.computed");
    const auto warm = smp.values("serve.warm_request_ms");
    const std::vector<Figure> layer = {
        {"netlist.build_ms", span_mean_ms(spans, "netlist.build"), "ms"},
        {"netlist.eval_packed_ns_per_word",
         med("netlist.eval_packed_ns_per_word"), "ns"},
        {"sta.synth_ms", span_mean_ms(spans, "sta.synth"), "ms"},
        {"sim.event.apply_ns", med("sim.event.apply_ns"), "ns"},
        {"sim.levelized.apply_ns", med("sim.levelized.apply_ns"), "ns"},
        {"sim.construct_us", med("sim.construct_us"), "us"},
        {"sim.adds.sim-event", med("sim.adds.sim-event"), "count"},
        {"sim.adds.sim-levelized", med("sim.adds.sim-levelized"), "count"},
        {"sim.levelized.apply_batch_ns_per_op",
         med("sim.levelized.apply_batch_ns_per_op"), "ns"},
        {"seq.step_cycle_ns", med("seq.step_cycle_ns"), "ns"},
        {"seq.step_cycle_batch_ns_per_cycle",
         med("seq.step_cycle_batch_ns_per_cycle"), "ns"},
        {"characterize.dut_sweep_ms", avg("characterize.dut_sweep_ms"), "ms"},
        {"characterize.seq_sweep_ms", avg("characterize.seq_sweep_ms"), "ms"},
        {"characterize.saturated_triad_ratio",
         med("characterize.saturated_triad_ratio"), "ratio"},
        {"model.train_ms", med("model.train_ms"), "ms"},
        {"model.add_ns", med("model.add_ns"), "ns"},
        {"apps.kernel_self_ms.fir", med("apps.kernel_self_ms.fir"), "ms"},
        {"apps.kernel_self_ms.dot", med("apps.kernel_self_ms.dot"), "ms"},
        {"apps.adds_per_cell.fir", med("apps.adds_per_cell.fir"), "count"},
        {"apps.adds_per_cell.dot", med("apps.adds_per_cell.dot"), "count"},
        {"campaign.cell_ms.model", med("campaign.cell_ms.model"), "ms"},
        {"campaign.cell_ms.sim-event", med("campaign.cell_ms.sim-event"), "ms"},
        {"campaign.cell_ms.sim-levelized",
         med("campaign.cell_ms.sim-levelized"), "ms"},
        {"campaign.cell_ms.sim-seq", med("campaign.cell_ms.sim-seq"), "ms"},
        {"campaign.first_cell_s", med("campaign.first_cell_s"), "s"},
        {"campaign.cache_hit_ratio",
         reused + computed > 0.0 ? reused / (reused + computed) : 0.0,
         "ratio"},
        {"campaign.levelized_quality_dev_pp",
         med("campaign.levelized_quality_dev_pp"), "pp"},
        {"campaign.store.insert_us", med("campaign.store.insert_us"), "us"},
        {"campaign.store.find_us", med("campaign.store.find_us"), "us"},
        {"campaign.store.to_jsonl_ns", med("campaign.store.to_jsonl_ns"), "ns"},
        {"campaign.store.parse_jsonl_ns",
         med("campaign.store.parse_jsonl_ns"), "ns"},
        {"campaign.store.load_ms", med("campaign.store.load_ms"), "ms"},
        {"fleet.chip_ms", med("fleet.chip_ms"), "ms"},
        {"fleet.ladder_ms", med("fleet.ladder_ms"), "ms"},
        {"runtime.closed_loop_ns_per_cycle",
         med("runtime.closed_loop_ns_per_cycle"), "ns"},
        {"runtime.switches_per_chip",
         med("runtime.switches_per_chip"), "count"},
        {"serve.ping_us", med("serve.ping_us"), "us"},
        {"serve.stats_ms", med("serve.stats_ms"), "ms"},
        {"serve.bytes_per_warm_request",
         avg("serve.bytes_per_warm_request"), "B"},
        {"serve.vm_growth_mb_per_1k_requests",
         med("serve.vm_growth_mb_per_1k_requests"), "MB"},
        {"serve.warm_request_p50_ms", perfbench::median(warm), "ms"},
        {"serve.warm_request_tail_ms",
         perfbench::tail_percentile(warm).second, "ms"},
        {"serve.cold_request_p50_ms", med("serve.cold_request_ms"), "ms"},
        {"util.pool_dispatch_us", med("util.pool_dispatch_us"), "us"},
        {"obs.trace_overhead_pct",
         (perfbench::median(tr) / perfbench::median(un) - 1.0) * 100.0,
         "pct"},
        {"obs.trace_coverage_pct", 100.0 * coverage, "pct"},
        {"obs.counter_gap.sim.levelized",
         med("obs.counter_gap.sim.levelized"), "count"},
    };
    for (const Figure& f : layer)
      metrics.push_back(metric_json(f.name, f.value, f.unit));
    checks.expect(coverage >= 0.95,
                  "trace: layer spans cover less than 95% of the traced "
                  "reps");
    const fs::path trace_path =
        args.out / ("trace-" + args.workload + "-" +
                    std::to_string(args.seed) + ".json");
    checks.expect(tracer.write_chrome_trace(trace_path.string()),
                  "trace: cannot write " + trace_path.string());
  }

  for (const Figure& f : figures)
    std::cout << f.name << " = " << jsonl::num(f.value) << " " << f.unit
              << "\n";
  std::cout << "reps = " << reps.size() << ", attempted = " << attempted
            << " " << wl->unit_name() << ", failed = " << failed
            << ", wall = " << jsonl::num(wall) << " s\n";

  std::ostringstream rec;
  rec << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"unit\":\"" << wl->unit_name() << "\",\"digest\":\""
      << reps.front().digest << "\",\"reps\":" << reps.size()
      << ",\"rep_seconds\":[";
  for (std::size_t i = 0; i < reps.size(); ++i)
    rec << (i ? "," : "") << jsonl::num(reps[i].seconds);
  rec << "],\"checks\":" << checks.json() << ",\"host\":" << host.str()
      << ",\"figures\":{";
  for (std::size_t i = 0; i < figures.size(); ++i)
    rec << (i ? "," : "")
        << metric_json(figures[i].name, figures[i].value, figures[i].unit);
  rec << "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    rec << (i ? "," : "") << metrics[i];
  rec << "}}";
  std::cout << rec.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "vosbench: " << e.what() << "\n";
    return 2;
  }
}
