#include "src/model/trainer.hpp"

#include <algorithm>

#include "src/model/carry_chain.hpp"
#include "src/model/windowed_add.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

int best_window(std::uint64_t a, std::uint64_t b, int width,
                std::uint64_t observed, DistanceMetric metric, int lo,
                int hi) {
  const int cth = max_carry_chain(a, b, width, lo, hi);
  // Algorithm 1 iterates C from Cth_max down to 0 and keeps the last
  // window with dist <= best, so ties resolve to the smallest window —
  // the most pessimistic chain truncation consistent with the output.
  // Only bits [lo, hi) are scored, shifted down so the MSE metric weighs
  // their significance within the segment.
  double best = -1.0;
  int best_c = cth;
  for (int c = cth; c >= 0; --c) {
    const std::uint64_t x = windowed_add(a, b, width, c);
    const double d = distance(observed >> lo, x >> lo, hi - lo, metric);
    if (best < 0.0 || d <= best) {
      best = d;
      best_c = c;
    }
  }
  return best_c;
}

std::vector<CarryChainProbTable> train_carry_tables(
    int width, std::span<const int> bounds,
    const BatchHardwareOracle& oracle, const TrainerConfig& config) {
  VOSIM_EXPECTS(config.num_patterns > 0);
  expect_segment_bounds(width, bounds);
  const std::size_t segments = bounds.size() - 1;
  const auto n = static_cast<std::size_t>(width) + 1;
  // counts[s][cth][c]: segment s's chosen window c against its Cth.
  std::vector<std::vector<std::vector<std::uint64_t>>> counts(
      segments, std::vector<std::vector<std::uint64_t>>(
                    n, std::vector<std::uint64_t>(n, 0)));

  PatternStream patterns(config.policy, width, config.pattern_seed);
  const std::size_t batch = std::min(kTrainBatch, config.num_patterns);
  std::vector<std::uint64_t> a(batch);
  std::vector<std::uint64_t> b(batch);
  std::vector<std::uint64_t> observed(batch);
  for (std::size_t done = 0; done < config.num_patterns; done += batch) {
    const std::size_t m = std::min(batch, config.num_patterns - done);
    for (std::size_t k = 0; k < m; ++k) {
      const OperandPair pat = patterns.next();
      a[k] = pat.a;
      b[k] = pat.b;
    }
    oracle(std::span(a).first(m), std::span(b).first(m),
           std::span(observed).first(m));
    for (std::size_t k = 0; k < m; ++k)
      for (std::size_t s = 0; s < segments; ++s) {
        const int lo = bounds[s];
        const int hi = bounds[s + 1];
        const int cth = max_carry_chain(a[k], b[k], width, lo, hi);
        const int c =
            best_window(a[k], b[k], width, observed[k], config.metric, lo, hi);
        ++counts[s][static_cast<std::size_t>(cth)][static_cast<std::size_t>(c)];
      }
  }
  std::vector<CarryChainProbTable> tables;
  for (const auto& c : counts)
    tables.push_back(CarryChainProbTable::from_counts(width, c));
  return tables;
}

}  // namespace vosim
