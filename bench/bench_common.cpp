#include "bench/bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "src/obs/metrics.hpp"
#include "src/util/table.hpp"

namespace vosim::bench {

std::vector<Benchmark> paper_benchmarks() {
  const CellLibrary& lib = make_fdsoi28_lvt();
  std::vector<Benchmark> out;
  const struct {
    const char* name;
    AdderArch arch;
    int width;
  } specs[] = {
      {"8-bit RCA", AdderArch::kRipple, 8},
      {"8-bit BKA", AdderArch::kBrentKung, 8},
      {"16-bit RCA", AdderArch::kRipple, 16},
      {"16-bit BKA", AdderArch::kBrentKung, 16},
  };
  for (const auto& s : specs) {
    Benchmark b{s.name, s.arch, s.width, build_adder(s.arch, s.width),
                {},     {},     {}};
    b.dut = to_dut(b.adder);  // one generation, one copy
    b.report = synthesize_report(b.adder.netlist, lib);
    b.triads =
        make_paper_triads(s.arch, s.width, b.report.critical_path_ns);
    out.push_back(std::move(b));
  }
  return out;
}

std::size_t pattern_budget() {
  if (const char* env = std::getenv("VOSIM_PATTERNS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(std::max(200L, v));
  }
  return 20000;  // the paper's per-triad SPICE budget
}

CharacterizeConfig bench_config() {
  CharacterizeConfig cfg;
  cfg.num_patterns = pattern_budget();
  return cfg;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double median_levelized_speedup(
    int reps, const std::function<void(EngineKind)>& sweep) {
  using clock = std::chrono::steady_clock;
  const auto seconds = [&](EngineKind kind) {
    const auto t0 = clock::now();
    sweep(kind);
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  std::vector<double> ratio;
  TextTable t({"rep", "event [ms]", "levelized [ms]", "speedup"});
  for (int rep = 1; rep <= reps; ++rep) {
    const double ev_s = seconds(EngineKind::kEvent);
    const double lev_s = seconds(EngineKind::kLevelized);
    ratio.push_back(lev_s > 0.0 ? ev_s / lev_s : 0.0);
    t.add_row({std::to_string(rep), format_double(ev_s * 1e3, 1),
               format_double(lev_s * 1e3, 1),
               format_double(ratio.back(), 2)});
  }
  std::cout << "\n--- levelized vs event sweep: " << reps
            << " interleaved pairs, median gated ---\n";
  t.print(std::cout);
  return median(ratio);
}

void emit_metrics_at_exit() {
  // One exit-time metrics line per bench process: run_benches.sh folds
  // it into the bench's BENCH_*.json as a "metrics" block.
  // <iostream>'s ios_base::Init keeps std::cout alive through atexit
  // handlers.
  static const bool metrics_registered = [] {
    std::atexit([] {
      std::cout << "BENCH_METRICS_JSON "
                << obs::metrics().snapshot().to_json() << "\n";
    });
    return true;
  }();
  (void)metrics_registered;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  emit_metrics_at_exit();
  std::cout << "\n================================================================\n"
            << title << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "patterns/triad: " << pattern_budget()
            << " (override with VOSIM_PATTERNS)\n"
            << "================================================================\n";
}

}  // namespace vosim::bench
