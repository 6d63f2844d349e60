// FNV-1a digest behind the golden-digest tests: 64-bit words hashed
// byte by byte (little end first), doubles by their bit patterns.
#ifndef VOSIM_TESTS_FNV_DIGEST_HPP
#define VOSIM_TESTS_FNV_DIGEST_HPP

#include <bit>
#include <cstdint>

#include "src/characterize/characterizer.hpp"

namespace vosim {

struct FnvDigest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  /// Every TriadResult field.
  void add(const TriadResult& r) {
    add(r.triad.tclk_ns);
    add(r.triad.vdd_v);
    add(r.triad.vbb_v);
    add(r.ber);
    add(static_cast<std::uint64_t>(r.bitwise_ber.size()));
    for (const double p : r.bitwise_ber) add(p);
    add(r.op_error_rate);
    add(r.mse);
    add(r.mred);
    add(r.energy_per_op_fj);
    add(r.dynamic_energy_fj);
    add(r.leakage_energy_fj);
    add(r.mean_settle_ps);
    add(static_cast<std::uint64_t>(r.patterns));
    const ProvenanceSummary& pv = r.provenance;
    add(pv.ops);
    add(pv.erroneous_ops);
    add(pv.attributed_bits);
    add(pv.lane_words);
    add(static_cast<std::uint64_t>(pv.bitwise_ber.size()));
    add(static_cast<std::uint64_t>(pv.culprits.size()));
    add(pv.slack_p50_ps);
    add(pv.slack_p95_ps);
    add(pv.slack_max_ps);
  }
};

}  // namespace vosim

#endif  // VOSIM_TESTS_FNV_DIGEST_HPP
