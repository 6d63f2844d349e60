// Input-pattern generation for operator characterization.
//
// The paper stimulates each triad with 20 000 patterns "chosen in such a
// way that all the input bits carry equal probability to propagate carry
// in the chain" (Section IV). kCarryBalanced implements that intent by
// stratifying the per-pattern propagate density, which spreads the
// theoretical carry-chain length over its whole range. A carry-balanced
// pair takes one draw for its density and exactly two per bit (propagate
// or not, then which operand or generate-vs-kill), so a stream's draws
// do not depend on its words and the per-bit body is branch-free.
#ifndef VOSIM_CHARACTERIZE_PATTERNS_HPP
#define VOSIM_CHARACTERIZE_PATTERNS_HPP

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/util/rng.hpp"

namespace vosim {

/// Stimulus policies.
enum class PatternPolicy {
  kUniform,        ///< independent uniform operands
  kCarryBalanced,  ///< stratified propagate density (paper-style)
  kCorrelatedWalk, ///< operands follow a random walk (application-like)
};

/// An operand pair.
struct OperandPair {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Deterministic pattern stream: same (policy, width, seed) => same
/// sequence, so every triad of a sweep sees identical stimuli, as in the
/// paper's testbench.
class PatternStream {
 public:
  PatternStream(PatternPolicy policy, int width, std::uint64_t seed);

  OperandPair next();

  int width() const noexcept { return width_; }
  PatternPolicy policy() const noexcept { return policy_; }

 private:
  OperandPair next_uniform();
  OperandPair next_carry_balanced();
  OperandPair next_walk();

  PatternPolicy policy_;
  int width_;
  Rng rng_;
  OperandPair last_{};  // for the correlated walk
};

/// Deterministic multi-operand stimulus for DUT characterization.
/// Operand buses are consumed in adjacent pairs; pair k (equal widths)
/// draws an OperandPair from its own PatternStream seeded seed + k, so
/// the carry-balanced policy keeps its pairwise propagate semantics on
/// every operand pair of a tree or MAC. A plain two-operand DUT (adder,
/// multiplier) therefore sees exactly the classic PatternStream(policy,
/// width, seed) sequence. A trailing or width-mismatched bus draws a
/// pair of its own and keeps the first word.
class DutPatternStream {
 public:
  DutPatternStream(PatternPolicy policy, std::vector<int> operand_widths,
                   std::uint64_t seed);

  /// Fills operands[0..num_operands()).
  void next(std::span<std::uint64_t> operands);

  std::size_t num_operands() const noexcept { return widths_.size(); }
  PatternPolicy policy() const noexcept { return policy_; }

 private:
  struct Source {
    PatternStream stream;
    std::size_t first;  ///< operand index the pair lands in
    bool paired;        ///< fills operands first and first+1
  };

  PatternPolicy policy_;
  std::vector<int> widths_;
  std::vector<Source> sources_;
};

}  // namespace vosim

#endif  // VOSIM_CHARACTERIZE_PATTERNS_HPP
