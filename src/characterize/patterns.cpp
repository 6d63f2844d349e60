#include "src/characterize/patterns.hpp"

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

PatternStream::PatternStream(PatternPolicy policy, int width,
                             std::uint64_t seed)
    : policy_(policy), width_(width), rng_(seed) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
}

OperandPair PatternStream::next() {
  switch (policy_) {
    case PatternPolicy::kUniform: return next_uniform();
    case PatternPolicy::kCarryBalanced: return next_carry_balanced();
    case PatternPolicy::kCorrelatedWalk: return next_walk();
  }
  return {};
}

OperandPair PatternStream::next_uniform() {
  return OperandPair{rng_.bits(width_), rng_.bits(width_)};
}

OperandPair PatternStream::next_carry_balanced() {
  // Draw a per-pattern propagate density q, then classify each bit as
  // propagate (a^b = 1), generate (a = b = 1) or kill (a = b = 0).
  // Sweeping q in [0.2, 0.95] makes long and short carry chains equally
  // well represented in the stimulus set. Every bit takes two draws,
  // p = flip(q) then h = flip(0.5): a carries h, b carries h ^ p, so a
  // propagate bit lands in a or b by h and a non-propagate bit is
  // generate or kill by h — branch-free.
  const double q = 0.2 + 0.75 * rng_.uniform();
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  for (int i = 0; i < width_; ++i) {
    const std::uint64_t p = rng_.flip(q) ? 1 : 0;
    const std::uint64_t h = rng_.flip(0.5) ? 1 : 0;
    a |= h << i;
    b |= (h ^ p) << i;
  }
  return OperandPair{a, b};
}

DutPatternStream::DutPatternStream(PatternPolicy policy,
                                   std::vector<int> operand_widths,
                                   std::uint64_t seed)
    : policy_(policy), widths_(std::move(operand_widths)) {
  VOSIM_EXPECTS(!widths_.empty());
  std::size_t i = 0;
  std::uint64_t k = 0;
  while (i < widths_.size()) {
    const bool paired =
        i + 1 < widths_.size() && widths_[i + 1] == widths_[i];
    sources_.push_back(
        Source{PatternStream(policy, widths_[i], seed + k), i, paired});
    i += paired ? 2 : 1;
    ++k;
  }
}

void DutPatternStream::next(std::span<std::uint64_t> operands) {
  VOSIM_EXPECTS(operands.size() == widths_.size());
  for (Source& src : sources_) {
    const OperandPair p = src.stream.next();
    operands[src.first] = p.a;
    if (src.paired) operands[src.first + 1] = p.b;
  }
}

OperandPair PatternStream::next_walk() {
  const std::uint64_t m = mask_n(width_);
  // Small signed increments emulate slowly-varying application data.
  const std::uint64_t step = 1ULL << (width_ >= 8 ? width_ - 6 : 1);
  const std::uint64_t da = rng_.below(2 * step + 1);
  const std::uint64_t db = rng_.below(2 * step + 1);
  last_.a = (last_.a + da + (m + 1) - step) & m;
  last_.b = (last_.b + db + (m + 1) - step) & m;
  return last_;
}

}  // namespace vosim
