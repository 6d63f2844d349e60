#include "src/runtime/error_monitor.hpp"

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

DoubleSamplingMonitor::DoubleSamplingMonitor(int word_bits,
                                             std::size_t window_ops)
    : window_ops_(window_ops) {
  VOSIM_EXPECTS(word_bits >= 1 && word_bits <= 64);
  VOSIM_EXPECTS(window_ops >= 1);
  word_mask_ = mask_n(word_bits);
}

void DoubleSamplingMonitor::record_word(std::uint64_t diff) {
  const bool flagged = (diff & word_mask_) != 0;
  ++total_ops_;
  total_err_ops_ += flagged;

  window_.push_back(flagged);
  window_err_ops_ += flagged;
  if (window_.size() > window_ops_) {
    window_err_ops_ -= window_.front();
    window_.pop_front();
  }
}

double DoubleSamplingMonitor::window_op_error_rate() const noexcept {
  if (window_.empty()) return 0.0;
  return static_cast<double>(window_err_ops_) /
         static_cast<double>(window_.size());
}

void DoubleSamplingMonitor::reset_window() {
  window_.clear();
  window_err_ops_ = 0;
}

}  // namespace vosim
