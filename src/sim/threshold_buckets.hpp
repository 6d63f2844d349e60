// Threshold buckets of the levelized multi-threshold sweep: which of an
// ascending set of capture thresholds a commit at time tc lands before.
#ifndef VOSIM_SIM_THRESHOLD_BUCKETS_HPP
#define VOSIM_SIM_THRESHOLD_BUCKETS_HPP

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

namespace vosim {

/// Bucket of a commit time on an ascending threshold set: the number of
/// thresholds at or below tc — exactly std::upper_bound's index — so a
/// commit in bucket b is inside the window of every threshold from b
/// on. A uniform grid of kCells cells over [front, back] records, per
/// cell, how many thresholds lie in earlier cells; a lookup starts
/// there and steps over the few thresholds in tc's own cell. The
/// result is exact for any time: a time's cell is monotone in the time
/// (one subtraction, one multiplication by a non-negative factor, a
/// clamp), so a threshold in an earlier cell than tc's is below tc and
/// one in a later cell is above it. The set is borrowed, not copied.
class ThresholdBuckets {
 public:
  static constexpr std::size_t kCells = 256;

  explicit ThresholdBuckets(std::span<const double> thresholds_ps)
      : thr_(thresholds_ps) {
    if (thr_.empty()) return;
    lo_ = thr_.front();
    const double span = thr_.back() - lo_;
    scale_ = span > 0.0 ? static_cast<double>(kCells) / span : 0.0;
    if (!std::isfinite(scale_)) scale_ = 0.0;  // every time in cell 0
    for (const double t : thr_) ++before_[cell(t)];
    std::uint32_t sum = 0;  // per-cell counts -> counts of earlier cells
    for (std::uint32_t& n : before_) {
      const std::uint32_t in_cell = n;
      n = sum;
      sum += in_cell;
    }
  }

  std::size_t operator()(double tc) const {
    std::size_t b = before_[cell(tc)];
    while (b < thr_.size() && thr_[b] <= tc) ++b;
    return b;
  }

 private:
  /// Grid cell of time t; NaN (an infinite time on a zero scale) and
  /// times below the set go to cell 0.
  std::size_t cell(double t) const {
    const double x = (t - lo_) * scale_;
    if (!(x > 0.0)) return 0;
    return x < static_cast<double>(kCells - 1) ? static_cast<std::size_t>(x)
                                               : kCells - 1;
  }

  std::span<const double> thr_;
  double lo_ = 0.0;
  double scale_ = 0.0;
  std::array<std::uint32_t, kCells> before_{};
};

}  // namespace vosim

#endif  // VOSIM_SIM_THRESHOLD_BUCKETS_HPP
