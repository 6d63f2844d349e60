// Debugging workflow demo: export a netlist to structural Verilog and a
// single voltage-over-scaled operation to a VCD waveform, to inspect in
// a standard viewer exactly which transition missed the clock edge.
#include <fstream>
#include <iostream>

#include "src/vosim.hpp"

int main() {
  using namespace vosim;
  std::cout << "== netlist + waveform export ==\n";

  const CellLibrary& lib = make_fdsoi28_lvt();
  const AdderNetlist adder = build_rca(8);
  const SynthesisReport rep = synthesize_report(adder.netlist, lib);

  // 1. Structural Verilog of the operator.
  {
    std::ofstream f("rca8.v");
    write_verilog(adder.netlist, f);
  }
  std::cout << "wrote rca8.v (" << adder.netlist.num_gates()
            << " cell instances)\n";

  // 2. One worst-case operation at a VOS triad, with a TraceRecorder
  //    attached: 0x00+0x00 -> 0xFF+0x01 excites the full carry ripple.
  const OperatingTriad triad{rep.critical_path_ns, 0.7, 0.0};
  TimingSimulator sim(adder.netlist, lib, triad);
  TraceRecorder rec;
  sim.attach_observer(&rec);
  std::vector<std::uint8_t> zeros(adder.netlist.primary_inputs().size(), 0);
  sim.settle(zeros);
  std::vector<std::uint8_t> stim(adder.netlist.primary_inputs().size(), 0);
  for (int i = 0; i < 8; ++i) stim[static_cast<std::size_t>(i)] = 1;  // a=0xFF
  stim[8] = 1;                                                        // b=0x01
  const StepResult r = sim.step(stim);

  {
    std::ofstream f("rca8_vos.vcd");
    write_vcd(adder.netlist, triad.tclk_ns * 1e3, rec.initial_values(),
              rec.trace(), f);
  }
  const std::uint64_t sampled = pack_word(sim.sampled_values(), adder.sum);
  std::cout << "wrote rca8_vos.vcd: " << r.toggles_total
            << " transitions, settle "
            << format_double(r.settle_time_ps, 1) << " ps vs Tclk "
            << format_double(triad.tclk_ns * 1e3, 1) << " ps\n"
            << "sampled 0xFF+0x01 = " << sampled << " (exact 256): the "
            << (sampled == 256 ? "capture made it" : "carry was cut off")
            << "\n"
            << "open rca8_vos.vcd in GTKWave and watch the carry chain"
               " race the clk_sample marker.\n";
  return 0;
}
