// The statistical VOS operator model (paper Fig. 6 right-hand side):
// a drop-in functional stand-in for the hardware adder at a given triad,
// usable at algorithm level without any timing simulation.
#ifndef VOSIM_MODEL_VOS_MODEL_HPP
#define VOSIM_MODEL_VOS_MODEL_HPP

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/model/distance.hpp"
#include "src/model/prob_table.hpp"
#include "src/model/trainer.hpp"
#include "src/netlist/adders.hpp"
#include "src/sim/event_sim.hpp"
#include "src/tech/operating_point.hpp"

namespace vosim {

/// Statistical approximate adder for one operating triad.
///
/// add(): extract Cth_max of the operands, sample the achieved chain
/// Cmax from the trained table, and return the window-limited sum
/// (the three inference steps of Section IV). Segments (windowed_add.hpp)
/// each get a table conditioned on the longest carry into their bits,
/// sampled in segment order: the per-region extension for prefix adders,
/// whose output regions fail at different depths. One segment, bits
/// [0, width+1), is the paper's model.
class VosAdderModel {
 public:
  /// The paper's one-segment model.
  VosAdderModel(int width, OperatingTriad triad, DistanceMetric metric,
                CarryChainProbTable table);
  /// One table per segment of `bounds`.
  VosAdderModel(int width, OperatingTriad triad, DistanceMetric metric,
                std::vector<int> bounds,
                std::vector<CarryChainProbTable> tables);

  std::uint64_t add(std::uint64_t a, std::uint64_t b, Rng& rng) const;

  int width() const noexcept { return width_; }
  const OperatingTriad& triad() const noexcept { return triad_; }
  DistanceMetric metric() const noexcept { return metric_; }
  int num_segments() const noexcept { return static_cast<int>(tables_.size()); }
  const std::vector<int>& bounds() const noexcept { return bounds_; }
  const CarryChainProbTable& table(int segment = 0) const;
  /// True when the model degenerates to an exact adder.
  bool is_exact() const;

  /// Plain text: a `vos_adder_model v1` header line and the table; more
  /// segments write `v2`, the bounds ending the header line, and one
  /// table per segment.
  void save(std::ostream& os) const;
  static VosAdderModel load(std::istream& is);

 private:
  int width_;
  OperatingTriad triad_;
  DistanceMetric metric_;
  std::vector<int> bounds_;
  std::vector<CarryChainProbTable> tables_;
};

/// Trains a model against a hardware oracle at one triad, with
/// `num_segments` equal segments (equal_segments()).
VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const BatchHardwareOracle& oracle,
                              int num_segments,
                              const TrainerConfig& config = {});
VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const HardwareOracle& oracle, int num_segments,
                              const TrainerConfig& config = {});
/// The paper's one-segment model.
VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const HardwareOracle& oracle,
                              const TrainerConfig& config = {});
VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const BatchHardwareOracle& oracle,
                              const TrainerConfig& config = {});

class VosDutSim;
/// Batch oracle over a two-operand simulator: the sampled outputs of
/// VosDutSim::apply_batch. `sim` must outlive the oracle.
BatchHardwareOracle sampled_batch_oracle(VosDutSim& sim);

/// A family of models for one adder across a triad sweep.
class ModelLibrary {
 public:
  ModelLibrary() = default;

  void insert(VosAdderModel model);
  std::size_t size() const noexcept { return models_.size(); }
  const std::vector<VosAdderModel>& models() const noexcept {
    return models_;
  }
  /// Model for an exact triad match, if present.
  const VosAdderModel* find(const OperatingTriad& triad) const;

  void save(std::ostream& os) const;
  static ModelLibrary load(std::istream& is);

 private:
  std::vector<VosAdderModel> models_;
};

/// Trains one model per triad against the event-driven simulator
/// (parallel over triads, deterministic).
ModelLibrary train_model_library(const AdderNetlist& adder,
                                 const CellLibrary& lib,
                                 const std::vector<OperatingTriad>& triads,
                                 const TrainerConfig& config = {},
                                 const TimingSimConfig& sim_config = {},
                                 unsigned threads = 0);

}  // namespace vosim

#endif  // VOSIM_MODEL_VOS_MODEL_HPP
