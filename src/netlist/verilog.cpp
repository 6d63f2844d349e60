#include "src/netlist/verilog.hpp"

#include <ostream>
#include <sstream>

#include "src/util/contracts.hpp"

namespace vosim {

namespace {

/// Verilog identifiers cannot contain arbitrary characters; the netlist
/// generator only produces [A-Za-z0-9_] names, which we assert.
std::string sanitized(const std::string& name) {
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    VOSIM_EXPECTS(ok);
  }
  VOSIM_EXPECTS(!name.empty());
  return name;
}

const char* pin_name(int index) {
  switch (index) {
    case 0: return "A";
    case 1: return "B";
    default: return "C";
  }
}

}  // namespace

void write_verilog(const Netlist& netlist, std::ostream& os) {
  VOSIM_EXPECTS(netlist.finalized());

  os << "// generated by vosim — structural netlist\n";
  os << "module " << sanitized(netlist.name()) << " (\n";
  const char* sep = "    ";  // before each port: indent, then ",\n" too
  for (const NetId pi : netlist.primary_inputs()) {
    os << sep << "input  wire " << sanitized(netlist.net_name(pi));
    sep = ",\n    ";
  }
  for (const NetId po : netlist.primary_outputs()) {
    os << sep << "output wire " << sanitized(netlist.net_name(po));
    sep = ",\n    ";
  }
  os << "\n);\n\n";

  // Internal wires: every gate output that is not a primary output.
  for (GateId gid = 0; gid < netlist.num_gates(); ++gid) {
    const NetId out = netlist.gate(gid).out;
    bool is_po = false;
    for (const NetId po : netlist.primary_outputs()) is_po |= (po == out);
    if (!is_po)
      os << "  wire " << sanitized(netlist.net_name(out)) << ";\n";
  }
  os << "\n";

  for (GateId gid = 0; gid < netlist.num_gates(); ++gid) {
    const Gate& g = netlist.gate(gid);
    if (g.kind == CellKind::kTieLo || g.kind == CellKind::kTieHi) {
      os << "  assign " << sanitized(netlist.net_name(g.out)) << " = 1'b"
         << (g.kind == CellKind::kTieHi ? 1 : 0) << ";\n";
      continue;
    }
    os << "  " << cell_kind_name(g.kind) << " u" << gid << " (";
    for (std::uint8_t i = 0; i < g.num_inputs; ++i) {
      os << "." << pin_name(i) << "("
         << sanitized(netlist.net_name(g.in[i])) << "), ";
    }
    os << ".Y(" << sanitized(netlist.net_name(g.out)) << "));\n";
  }
  os << "\nendmodule\n";
}

std::string to_verilog(const Netlist& netlist) {
  std::ostringstream os;
  write_verilog(netlist, os);
  return os.str();
}

}  // namespace vosim
