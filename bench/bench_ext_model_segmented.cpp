// Extension bench (ours): the per-segment statistical model (the
// paper's "perspectives" direction — richer parameter sets) against the
// single-window base model, across the full 43-triad sweep of each
// benchmark. Expected: clear gains on the parallel-prefix adders whose
// failure depth varies across the output word.
#include <algorithm>
#include <array>
#include <iostream>

#include "bench/bench_common.hpp"
#include "src/characterize/metrics.hpp"
#include "src/model/evaluation.hpp"
#include "src/model/vos_model.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/util/parallel.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"

int main() {
  using namespace vosim;
  using namespace vosim::bench;
  print_header(
      "Extension — segmented (per-region) statistical model vs base model",
      "paper Section IV model + Section VI perspectives");

  const CellLibrary& lib = make_fdsoi28_lvt();
  const std::size_t budget = pattern_budget() / 2;
  const int segments = 3;

  TextTable t({"Adder", "base SNR [dB]", "seg SNR [dB]",
               "base nHamming", "seg nHamming", "triads"});
  for (const Benchmark& b : paper_benchmarks()) {
    std::vector<std::array<double, 4>> rows(b.triads.size(),
                                            {0.0, 0.0, 0.0, 0.0});
    std::vector<std::uint8_t> informative(b.triads.size(), 0);

    parallel_for(b.triads.size(), [&](std::size_t ti) {
      const OperatingTriad& triad = b.triads[ti];
      TrainerConfig cfg;
      cfg.num_patterns = budget;
      FidelityConfig fcfg;
      fcfg.num_patterns = budget;
      fcfg.pattern_seed = 1729;
      fcfg.model_rng_seed = 9;

      // Each model trains and is scored against its own fresh
      // simulators, so both see the same stimuli from the same state.
      auto fidelity = [&](int num_segments) {
        VosDutSim train(b.dut, lib, triad);
        const VosAdderModel model = train_vos_model(
            b.width, triad, sampled_batch_oracle(train), num_segments, cfg);
        VosDutSim eval(b.dut, lib, triad);
        const HardwareOracle oracle = [&](std::uint64_t x, std::uint64_t y) {
          return eval.apply(x, y).sampled;
        };
        return evaluate_fidelity(model, oracle, fcfg);
      };
      const FidelityResult base = fidelity(1);
      const FidelityResult seg = fidelity(segments);
      if (base.oracle_ber == 0.0) return;
      informative[ti] = 1;
      rows[ti] = {std::min(base.snr_db, snr_display_cap_db),
                  std::min(seg.snr_db, snr_display_cap_db),
                  base.normalized_hamming, seg.normalized_hamming};
    });

    RunningStats base_snr;
    RunningStats seg_snr;
    RunningStats base_h;
    RunningStats seg_h;
    for (std::size_t ti = 0; ti < rows.size(); ++ti) {
      if (!informative[ti]) continue;
      base_snr.add(rows[ti][0]);
      seg_snr.add(rows[ti][1]);
      base_h.add(rows[ti][2]);
      seg_h.add(rows[ti][3]);
    }
    t.add_row({b.name, format_double(base_snr.mean(), 1),
               format_double(seg_snr.mean(), 1),
               format_double(base_h.mean(), 4),
               format_double(seg_h.mean(), 4),
               std::to_string(base_snr.count())});
  }
  t.print(std::cout);
  write_csv(t, "ext_model_segmented.csv");
  std::cout << "\nreading: per-segment windows recover the fidelity the"
               " single-parameter model loses on parallel-prefix adders,"
               " at the cost of S tables instead of one — the natural"
               " next step the paper's Section VI sketches.\n"
            << "CSV: ext_model_segmented.csv\n";
  return 0;
}
