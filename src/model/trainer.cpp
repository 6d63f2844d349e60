#include "src/model/trainer.hpp"

#include <algorithm>
#include <vector>

#include "src/model/carry_chain.hpp"
#include "src/model/windowed_add.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

int best_window(std::uint64_t a, std::uint64_t b, int width,
                std::uint64_t observed, DistanceMetric metric) {
  const int cth = theoretical_max_carry_chain(a, b, width);
  // Algorithm 1 iterates C from Cth_max down to 0 and keeps the last
  // window with dist <= best, so ties resolve to the smallest window —
  // the most pessimistic chain truncation consistent with the output.
  double best = -1.0;
  int best_c = cth;
  for (int c = cth; c >= 0; --c) {
    const std::uint64_t x = windowed_add(a, b, width, c);
    const double d = distance(observed, x, width + 1, metric);
    if (best < 0.0 || d <= best) {
      best = d;
      best_c = c;
    }
  }
  return best_c;
}

CarryChainProbTable train_carry_table(int width,
                                      const BatchHardwareOracle& oracle,
                                      const TrainerConfig& config) {
  VOSIM_EXPECTS(config.num_patterns > 0);
  const auto n = static_cast<std::size_t>(width) + 1;
  std::vector<std::vector<std::uint64_t>> counts(
      n, std::vector<std::uint64_t>(n, 0));

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
    for (std::size_t k = 0; k < m; ++k) {
      const int cth = theoretical_max_carry_chain(a[k], b[k], width);
      const int c = best_window(a[k], b[k], width, observed[k], config.metric);
      ++counts[static_cast<std::size_t>(cth)][static_cast<std::size_t>(c)];
    }
  }
  return CarryChainProbTable::from_counts(width, counts);
}

CarryChainProbTable train_carry_table(int width, const HardwareOracle& oracle,
                                      const TrainerConfig& config) {
  const BatchHardwareOracle batch =
      [&oracle](std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b,
                std::span<std::uint64_t> observed) {
        for (std::size_t k = 0; k < a.size(); ++k)
          observed[k] = oracle(a[k], b[k]);
      };
  return train_carry_table(width, batch, config);
}

}  // namespace vosim
