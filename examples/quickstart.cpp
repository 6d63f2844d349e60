// Quickstart: the library's whole flow on one page.
//
//   1. build an 8-bit ripple-carry adder netlist
//   2. "synthesize" it (area / power / critical path report)
//   3. run it at a voltage-over-scaled triad in the timing simulator
//   4. train the paper's statistical model (Algorithm 1) against it
//   5. use the model as a drop-in approximate adder at algorithm level
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "src/vosim.hpp"

int main() {
  using namespace vosim;
  std::cout << "== vosim quickstart ==\n\n";

  // 1. The operator under study, wrapped as a generic DUT.
  const DutNetlist adder = to_dut(build_rca(8));
  const CellLibrary& lib = make_fdsoi28_lvt();

  // 2. Synthesis-style report (paper Table II flavour).
  const SynthesisReport rep = synthesize_report(adder.netlist, lib);
  std::cout << "design " << rep.design << ": " << rep.num_gates
            << " gates, " << format_double(rep.area_um2, 1) << " um2, "
            << format_double(rep.total_power_uw, 1) << " uW, CP "
            << format_double(rep.critical_path_ns, 3) << " ns\n";

  // 3. Voltage over-scaling: run at the synthesis clock but only 0.6 V.
  const OperatingTriad vos{rep.critical_path_ns, 0.6, 0.0};
  VosDutSim sim(adder, lib, vos);
  std::cout << "\noperating triad " << triad_label(vos) << ":\n";
  ErrorAccumulator acc(9);
  PatternStream patterns(PatternPolicy::kCarryBalanced, 8, 42);
  double energy = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const OperandPair p = patterns.next();
    const VosOpResult r = sim.apply(p.a, p.b);
    acc.add(p.a + p.b, r.sampled);
    energy += r.energy_fj;
  }
  std::cout << "  BER  = " << format_double(acc.ber() * 100.0, 2)
            << " %   (errors are timing errors: the circuit settles to"
               " the right answer, too late)\n"
            << "  E/op = " << format_double(energy / 5000.0, 2) << " fJ\n";

  // 4. Train the statistical model against the simulator (Algorithm 1).
  const HardwareOracle oracle = [&sim](std::uint64_t a, std::uint64_t b) {
    return sim.apply(a, b).sampled;
  };
  TrainerConfig tcfg;
  tcfg.num_patterns = 10000;
  const VosAdderModel model = train_vos_model(8, vos, oracle, tcfg);
  std::cout << "\ntrained P(Cmax|Cth) table:\n";
  model.table().to_table(2).print(std::cout);

  // 5. Use the model at algorithm level: fast approximate additions.
  Rng rng(7);
  std::cout << "\nmodel in action (a + b -> sampled-like result):\n";
  for (const auto& [a, b] : {std::pair<std::uint64_t, std::uint64_t>{
                                 0xFF, 0x01},
                             {0x55, 0x55},
                             {0x0F, 0x11}}) {
    std::cout << "  " << a << " + " << b << " = " << (a + b)
              << "  ->  model: " << model.add(a, b, rng) << "\n";
  }

  // Fidelity of the model against held-out simulator behaviour.
  VosDutSim eval_sim(adder, lib, vos);
  const HardwareOracle eval_oracle = [&eval_sim](std::uint64_t a,
                                                 std::uint64_t b) {
    return eval_sim.apply(a, b).sampled;
  };
  FidelityConfig fcfg;
  fcfg.num_patterns = 5000;
  const FidelityResult fr = evaluate_fidelity(model, eval_oracle, fcfg);
  std::cout << "\nmodel vs simulator on held-out patterns: SNR "
            << format_double(fr.snr_db, 1) << " dB, normalized Hamming "
            << format_double(fr.normalized_hamming, 3) << "\n";
  std::cout << "\ndone — see examples/image_blur, examples/fir_filter,"
               " examples/closed_loop_pipeline,"
               " examples/design_space.\n";
  return 0;
}
