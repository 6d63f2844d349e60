// Runtime error estimation, emulating the double-sampling (Razor)
// shadow registers of the paper's dynamic speculation reference [17]:
// the main register samples at Tclk, the shadow register samples after
// the circuit settled; a mismatch flags a timing error. SeqSim keeps one
// monitor per pipeline stage, and the closed-loop controller
// (src/runtime/closed_loop.hpp) regulates on their windowed rates.
#ifndef VOSIM_RUNTIME_ERROR_MONITOR_HPP
#define VOSIM_RUNTIME_ERROR_MONITOR_HPP

#include <cstdint>
#include <deque>

namespace vosim {

/// Sliding-window flagged-operation-rate estimator over double-sampled
/// outputs.
class DoubleSamplingMonitor {
 public:
  /// `word_bits` compared bits per operation; `window_ops` sliding
  /// window length used for the running estimate.
  DoubleSamplingMonitor(int word_bits, std::size_t window_ops);

  /// Feeds one operation given the main-vs-shadow XOR difference: the
  /// operation is flagged when any bit within the compared width
  /// differs.
  void record_word(std::uint64_t diff);

  /// Fraction of operations in the window with any flagged bit.
  double window_op_error_rate() const noexcept;
  /// Lifetime counters.
  std::uint64_t total_ops() const noexcept { return total_ops_; }
  std::uint64_t total_flagged_ops() const noexcept { return total_err_ops_; }

  std::size_t window_fill() const noexcept { return window_.size(); }
  std::size_t window_capacity() const noexcept { return window_ops_; }
  bool window_full() const noexcept { return window_.size() == window_ops_; }
  /// Clears the sliding window (used after a triad switch).
  void reset_window();

 private:
  std::uint64_t word_mask_;
  std::size_t window_ops_;
  std::deque<bool> window_;  // flagged or not, per op
  std::uint64_t window_err_ops_ = 0;
  std::uint64_t total_ops_ = 0;
  std::uint64_t total_err_ops_ = 0;
};

}  // namespace vosim

#endif  // VOSIM_RUNTIME_ERROR_MONITOR_HPP
