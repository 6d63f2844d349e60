// Error metrics for characterization: BER, per-bit error probability,
// MSE, SNR, Hamming distances (paper Sections IV-V definitions).
#ifndef VOSIM_CHARACTERIZE_METRICS_HPP
#define VOSIM_CHARACTERIZE_METRICS_HPP

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace vosim {

/// The references of one lane word of ops (lane k is op k), transposed
/// once so that ErrorAccumulator::add_lanes can score many actual
/// words against them — the levelized grid sweep scores one per triad.
struct LaneReferences {
  std::size_t lanes = 0;
  std::array<std::uint64_t, 64> value{};  ///< reference of lane k
  std::array<std::uint64_t, 64> bit{};    ///< lane word of bit i
  /// Lanes whose reference has a bit at or above the compared width:
  /// numerically wrong whatever their compared bits are.
  std::uint64_t wide = 0;

  /// From per-lane reference words (lanes = values.size() ≤ 64)
  /// compared over `nbits` bits.
  static LaneReferences from_values(std::span<const std::uint64_t> values,
                                    int nbits);
  /// From reference bit words: bit i of lane k is lane k of bits[i];
  /// lanes at or above `lanes` are ignored. No lane is wide.
  static LaneReferences from_bits(std::span<const std::uint64_t> bits,
                                  std::size_t lanes);
};

/// Accumulates reference/actual word pairs and derives the paper's
/// statistics. `nbits` is the compared word width (adders: width+1,
/// including the carry-out — Fig. 5 plots 9 positions for 8-bit adders).
class ErrorAccumulator {
 public:
  explicit ErrorAccumulator(int nbits);

  void add(std::uint64_t reference, std::uint64_t actual);
  /// Adds the ops of one lane word: lane k's reference is ref.value[k]
  /// and bit i of its actual word is lane k of actual_bits[i] (nbits
  /// words). Bit-identical to add() per lane in ascending lane order.
  void add_lanes(const LaneReferences& ref,
                 std::span<const std::uint64_t> actual_bits);
  void merge(const ErrorAccumulator& other);

  int nbits() const noexcept { return nbits_; }
  std::uint64_t ops() const noexcept { return ops_; }

  /// Bit Error Rate: faulty output bits / total output bits.
  double ber() const noexcept;
  /// Per-position error probability (index 0 = LSB), size nbits.
  std::vector<double> bitwise_error_probability() const;
  /// Fraction of operations with at least one wrong bit.
  double op_error_rate() const noexcept;
  /// Mean squared numerical error.
  double mse() const noexcept;
  /// Signal-to-noise ratio treating the reference as signal:
  /// 10·log10(Σ ref² / Σ (ref-actual)²). Returns +infinity when
  /// error-free; callers cap for display.
  double snr_db() const noexcept;
  /// Mean Hamming distance per op.
  double mean_hamming() const noexcept;
  /// Mean Hamming distance normalized by word width (paper Fig. 7b).
  double normalized_hamming() const noexcept;
  /// Mean absolute numerical error.
  double mean_abs_error() const noexcept;
  double max_abs_error() const noexcept { return max_abs_err_; }
  /// Mean relative error distance: mean of |ref − actual| / max(ref, 1)
  /// — the approximate-multiplier literature's MRED, with the zero-
  /// reference convention that divides by one.
  double mred() const noexcept;

 private:
  /// The error terms of one op: squared, absolute and relative error
  /// and the max (sum_ref_sq_ is the caller's).
  void add_numeric(double reference, double actual);

  int nbits_;
  std::uint64_t ops_ = 0;
  std::uint64_t bit_errors_ = 0;
  std::uint64_t err_ops_ = 0;
  std::vector<std::uint64_t> bit_err_count_;
  double sum_sq_err_ = 0.0;
  double sum_ref_sq_ = 0.0;
  double sum_abs_err_ = 0.0;
  double sum_rel_err_ = 0.0;
  double max_abs_err_ = 0.0;
  std::uint64_t hamming_total_ = 0;
};

/// SNR display cap (dB) used by reports when a model is error-free.
inline constexpr double snr_display_cap_db = 60.0;

}  // namespace vosim

#endif  // VOSIM_CHARACTERIZE_METRICS_HPP
