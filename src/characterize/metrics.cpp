#include "src/characterize/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

ErrorAccumulator::ErrorAccumulator(int nbits)
    : nbits_(nbits),
      bit_err_count_(static_cast<std::size_t>(nbits), 0) {
  VOSIM_EXPECTS(nbits >= 1 && nbits <= 64);
}

LaneReferences LaneReferences::from_values(
    std::span<const std::uint64_t> values, int nbits) {
  VOSIM_EXPECTS(values.size() <= lanes::kWordLanes);
  LaneReferences ref;
  ref.lanes = values.size();
  const std::uint64_t compared = mask_n(nbits);
  for (std::size_t k = 0; k < values.size(); ++k) {
    const std::uint64_t v = values[k];
    ref.value[k] = v;
    for (int i = 0; i < nbits; ++i)
      ref.bit[static_cast<std::size_t>(i)] |= ((v >> i) & 1ULL) << k;
    if ((v & ~compared) != 0) lanes::set_lane(ref.wide, k);
  }
  return ref;
}

LaneReferences LaneReferences::from_bits(std::span<const std::uint64_t> bits,
                                         std::size_t lanes) {
  VOSIM_EXPECTS(bits.size() <= 64 && lanes <= lanes::kWordLanes);
  LaneReferences ref;
  ref.lanes = lanes;
  const lanes::Word used = lanes::mask(lanes);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const lanes::Word w = bits[i] & used;
    ref.bit[i] = w;
    lanes::for_each_lane(w, [&](std::size_t k) { ref.value[k] |= 1ULL << i; });
  }
  return ref;
}

void ErrorAccumulator::add(std::uint64_t reference, std::uint64_t actual) {
  ++ops_;
  const std::uint64_t diff = (reference ^ actual) & mask_n(nbits_);
  if (diff != 0) {
    ++err_ops_;
    const int h = popcount_u64(diff);
    bit_errors_ += static_cast<std::uint64_t>(h);
    hamming_total_ += static_cast<std::uint64_t>(h);
    for (int i = 0; i < nbits_; ++i)
      if (bit_of(diff, i) != 0) ++bit_err_count_[static_cast<std::size_t>(i)];
  }
  const double r = static_cast<double>(reference);
  sum_ref_sq_ += r * r;
  add_numeric(r, static_cast<double>(actual));
}

void ErrorAccumulator::add_lanes(const LaneReferences& ref,
                                 std::span<const std::uint64_t> actual_bits) {
  VOSIM_EXPECTS(actual_bits.size() == static_cast<std::size_t>(nbits_));
  VOSIM_EXPECTS(ref.lanes <= lanes::kWordLanes);
  const lanes::Word used = lanes::mask(ref.lanes);
  ops_ += ref.lanes;
  lanes::Word wrong = 0;  // lanes with at least one wrong compared bit
  std::uint64_t wrong_bits = 0;
  for (std::size_t i = 0; i < actual_bits.size(); ++i) {
    const lanes::Word d = (ref.bit[i] ^ actual_bits[i]) & used;
    const auto h = static_cast<std::uint64_t>(lanes::popcount(d));
    bit_err_count_[i] += h;
    wrong_bits += h;
    wrong |= d;
  }
  bit_errors_ += wrong_bits;
  hamming_total_ += wrong_bits;
  err_ops_ += static_cast<std::uint64_t>(lanes::popcount(wrong));
  for (std::size_t k = 0; k < ref.lanes; ++k) {
    const double r = static_cast<double>(ref.value[k]);
    sum_ref_sq_ += r * r;
  }
  // A lane whose actual word equals its reference would add +0.0 to
  // each numeric sum (never -0.0: they only grow from +0.0) and leave
  // the max alone, so only the others are visited, in lane order. A
  // wide reference differs from every nbits-bit actual word.
  lanes::for_each_lane((wrong | ref.wide) & used, [&](std::size_t k) {
    std::uint64_t actual = 0;
    for (std::size_t i = 0; i < actual_bits.size(); ++i)
      actual |= ((actual_bits[i] >> k) & 1ULL) << i;
    add_numeric(static_cast<double>(ref.value[k]),
                static_cast<double>(actual));
  });
}

void ErrorAccumulator::add_numeric(double reference, double actual) {
  const double e = actual - reference;
  sum_sq_err_ += e * e;
  sum_abs_err_ += std::abs(e);
  sum_rel_err_ += std::abs(e) / std::max(reference, 1.0);
  max_abs_err_ = std::max(max_abs_err_, std::abs(e));
}

void ErrorAccumulator::merge(const ErrorAccumulator& other) {
  VOSIM_EXPECTS(nbits_ == other.nbits_);
  ops_ += other.ops_;
  bit_errors_ += other.bit_errors_;
  err_ops_ += other.err_ops_;
  for (std::size_t i = 0; i < bit_err_count_.size(); ++i)
    bit_err_count_[i] += other.bit_err_count_[i];
  sum_sq_err_ += other.sum_sq_err_;
  sum_ref_sq_ += other.sum_ref_sq_;
  sum_abs_err_ += other.sum_abs_err_;
  sum_rel_err_ += other.sum_rel_err_;
  max_abs_err_ = std::max(max_abs_err_, other.max_abs_err_);
  hamming_total_ += other.hamming_total_;
}

double ErrorAccumulator::ber() const noexcept {
  if (ops_ == 0) return 0.0;
  return static_cast<double>(bit_errors_) /
         (static_cast<double>(ops_) * nbits_);
}

std::vector<double> ErrorAccumulator::bitwise_error_probability() const {
  std::vector<double> out(bit_err_count_.size(), 0.0);
  if (ops_ == 0) return out;
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<double>(bit_err_count_[i]) /
             static_cast<double>(ops_);
  return out;
}

double ErrorAccumulator::op_error_rate() const noexcept {
  if (ops_ == 0) return 0.0;
  return static_cast<double>(err_ops_) / static_cast<double>(ops_);
}

double ErrorAccumulator::mse() const noexcept {
  if (ops_ == 0) return 0.0;
  return sum_sq_err_ / static_cast<double>(ops_);
}

double ErrorAccumulator::snr_db() const noexcept {
  if (sum_sq_err_ <= 0.0)
    return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(sum_ref_sq_ / sum_sq_err_);
}

double ErrorAccumulator::mean_hamming() const noexcept {
  if (ops_ == 0) return 0.0;
  return static_cast<double>(hamming_total_) / static_cast<double>(ops_);
}

double ErrorAccumulator::normalized_hamming() const noexcept {
  return mean_hamming() / nbits_;
}

double ErrorAccumulator::mean_abs_error() const noexcept {
  if (ops_ == 0) return 0.0;
  return sum_abs_err_ / static_cast<double>(ops_);
}

double ErrorAccumulator::mred() const noexcept {
  if (ops_ == 0) return 0.0;
  return sum_rel_err_ / static_cast<double>(ops_);
}

}  // namespace vosim
