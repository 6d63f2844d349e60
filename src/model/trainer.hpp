// Offline optimization constructing the probability table (paper
// Algorithm 1): for each training pair, find the carry window whose
// modified addition best matches the hardware output under the chosen
// distance metric, and histogram it against the theoretical chain.
#ifndef VOSIM_MODEL_TRAINER_HPP
#define VOSIM_MODEL_TRAINER_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/characterize/patterns.hpp"
#include "src/model/distance.hpp"
#include "src/model/prob_table.hpp"

namespace vosim {

/// The "hardware adder" of Algorithm 1: returns the sampled (width+1)-bit
/// output for an operand pair. In this reproduction it is usually a
/// VosDutSim closure, but it can wrap a silicon trace or another model.
using HardwareOracle =
    std::function<std::uint64_t(std::uint64_t a, std::uint64_t b)>;

/// Batched hardware adder: fills observed[k] with the sampled output for
/// (a[k], b[k]), with the state semantics of consecutive HardwareOracle
/// calls (e.g. VosDutSim::apply_batch). The three spans have one length.
using BatchHardwareOracle =
    std::function<void(std::span<const std::uint64_t> a,
                       std::span<const std::uint64_t> b,
                       std::span<std::uint64_t> observed)>;

/// Longest batch train_carry_tables hands a BatchHardwareOracle: one
/// levelized lane word, which already fills every lane of a packed pass
/// while keeping the oracle's per-call buffers (one set per training
/// thread) to a few KB.
inline constexpr std::size_t kTrainBatch = 64;

/// Training knobs.
struct TrainerConfig {
  std::size_t num_patterns = 20000;
  DistanceMetric metric = DistanceMetric::kMse;
  PatternPolicy policy = PatternPolicy::kCarryBalanced;
  std::uint64_t pattern_seed = 42;
};

/// Runs Algorithm 1 once per segment of `bounds` (windowed_add.hpp) and
/// returns one normalized probability table per segment: each pattern
/// scores each segment's bits from that segment's own Cth, so one
/// segment {0, width+1} gives the paper's table. The training stream
/// never depends on the observed outputs, so it is handed to the oracle
/// in batches of at most kTrainBatch patterns.
std::vector<CarryChainProbTable> train_carry_tables(
    int width, std::span<const int> bounds,
    const BatchHardwareOracle& oracle, const TrainerConfig& config);

/// Single-pair inner step of Algorithm 1 over output bits [lo, hi)
/// (exposed for tests): the smallest window, from the Cth of those bits
/// down to 0, whose modified addition minimizes the distance to the
/// observed output on those bits. [0, width+1) is the whole word.
int best_window(std::uint64_t a, std::uint64_t b, int width,
                std::uint64_t observed, DistanceMetric metric, int lo,
                int hi);

}  // namespace vosim

#endif  // VOSIM_MODEL_TRAINER_HPP
