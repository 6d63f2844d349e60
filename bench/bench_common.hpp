// Shared plumbing for the benchmark harness binaries: the four paper
// benchmarks, their synthesis reports and triad sweeps, plus pattern
// budget control via the VOSIM_PATTERNS environment variable.
#ifndef VOSIM_BENCH_BENCH_COMMON_HPP
#define VOSIM_BENCH_BENCH_COMMON_HPP

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/characterize/characterizer.hpp"
#include "src/characterize/triads.hpp"
#include "src/netlist/adders.hpp"
#include "src/netlist/dut.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/library.hpp"

namespace vosim::bench {

/// One of the paper's four benchmark operators. `adder` keeps the
/// architecture-specific view for the carry-chain/energy model benches;
/// `dut` is the same netlist as the generic DUT every simulator and
/// sweep consumes.
struct Benchmark {
  std::string name;  ///< e.g. "8-bit RCA"
  AdderArch arch;
  int width;
  AdderNetlist adder;
  DutNetlist dut;
  SynthesisReport report;
  std::vector<OperatingTriad> triads;  ///< Table III sweep (43 triads)
};

/// Builds the paper's benchmark set: 8/16-bit RCA and BKA.
std::vector<Benchmark> paper_benchmarks();

/// Pattern count per triad: paper uses 20000; override with the
/// VOSIM_PATTERNS environment variable (min 200) to trade fidelity for
/// runtime.
std::size_t pattern_budget();

/// Default characterization config for benches (paper settings, with
/// pattern_budget() applied).
CharacterizeConfig bench_config();

/// Median of a non-empty sample (the upper middle for an even count).
double median(std::vector<double> v);

/// Times `reps` interleaved (event, levelized) runs of `sweep(kind)`,
/// prints one row per pair and returns the median event/levelized
/// wall-clock ratio. One pair alone swings several-fold on a shared
/// host, so a gate reads the median; warm both engines first.
double median_levelized_speedup(
    int reps, const std::function<void(EngineKind)>& sweep);

/// Prints a section header for harness output.
void print_header(const std::string& title, const std::string& paper_ref);

/// Registers the exit-time BENCH_METRICS_JSON telemetry line (once per
/// process). print_header does this implicitly; benches without a
/// header (google-benchmark mains) call it directly.
void emit_metrics_at_exit();

}  // namespace vosim::bench

#endif  // VOSIM_BENCH_BENCH_COMMON_HPP
