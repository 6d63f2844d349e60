#include "src/model/vos_model.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "src/model/carry_chain.hpp"
#include "src/model/windowed_add.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/util/contracts.hpp"
#include "src/util/parallel.hpp"

namespace vosim {

VosAdderModel::VosAdderModel(int width, OperatingTriad triad,
                             DistanceMetric metric, CarryChainProbTable table)
    : width_(width), triad_(triad), metric_(metric), table_(std::move(table)) {
  VOSIM_EXPECTS(table_.width() == width_);
}

std::uint64_t VosAdderModel::add(std::uint64_t a, std::uint64_t b,
                                 Rng& rng) const {
  const int cth = theoretical_max_carry_chain(a, b, width_);
  const int cmax = table_.sample(cth, rng);
  return windowed_add(a, b, width_, cmax);
}

void VosAdderModel::save(std::ostream& os) const {
  // max_digits10 so the triad doubles round-trip bit-exactly and
  // ModelLibrary::find() matches after load.
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "vos_adder_model v1 " << width_ << " " << triad_.tclk_ns << " "
     << triad_.vdd_v << " " << triad_.vbb_v << " "
     << static_cast<int>(metric_) << "\n";
  os.precision(old_precision);
  table_.save(os);
}

VosAdderModel VosAdderModel::load(std::istream& is) {
  std::string magic;
  std::string version;
  int width = 0;
  OperatingTriad triad;
  int metric = 0;
  is >> magic >> version >> width >> triad.tclk_ns >> triad.vdd_v >>
      triad.vbb_v >> metric;
  if (!is || magic != "vos_adder_model" || version != "v1")
    throw std::runtime_error("bad VOS model header");
  CarryChainProbTable table = CarryChainProbTable::load(is);
  return VosAdderModel(width, triad, static_cast<DistanceMetric>(metric),
                       std::move(table));
}

VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const HardwareOracle& oracle,
                              const TrainerConfig& config) {
  return VosAdderModel(width, triad, config.metric,
                       train_carry_table(width, oracle, config));
}

VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const BatchHardwareOracle& oracle,
                              const TrainerConfig& config) {
  return VosAdderModel(width, triad, config.metric,
                       train_carry_table(width, oracle, config));
}

BatchHardwareOracle sampled_batch_oracle(VosDutSim& sim) {
  return [&sim, results = std::vector<VosOpResult>()](
             std::span<const std::uint64_t> a,
             std::span<const std::uint64_t> b,
             std::span<std::uint64_t> observed) mutable {
    results.resize(a.size());
    sim.apply_batch(a, b, results);
    for (std::size_t k = 0; k < a.size(); ++k)
      observed[k] = results[k].sampled;
  };
}

void ModelLibrary::insert(VosAdderModel model) {
  models_.push_back(std::move(model));
}

const VosAdderModel* ModelLibrary::find(const OperatingTriad& triad) const {
  for (const VosAdderModel& m : models_)
    if (m.triad() == triad) return &m;
  return nullptr;
}

void ModelLibrary::save(std::ostream& os) const {
  os << "vos_model_library v1 " << models_.size() << "\n";
  for (const VosAdderModel& m : models_) m.save(os);
}

ModelLibrary ModelLibrary::load(std::istream& is) {
  std::string magic;
  std::string version;
  std::size_t count = 0;
  is >> magic >> version >> count;
  if (!is || magic != "vos_model_library" || version != "v1")
    throw std::runtime_error("bad model library header");
  ModelLibrary lib;
  for (std::size_t i = 0; i < count; ++i)
    lib.insert(VosAdderModel::load(is));
  return lib;
}

ModelLibrary train_model_library(const AdderNetlist& adder,
                                 const CellLibrary& lib,
                                 const std::vector<OperatingTriad>& triads,
                                 const TrainerConfig& config,
                                 const TimingSimConfig& sim_config,
                                 unsigned threads) {
  std::vector<std::optional<VosAdderModel>> slots(triads.size());
  parallel_for(
      triads.size(),
      [&](std::size_t t) {
        const DutNetlist dut = to_dut(adder);
        VosDutSim sim(dut, lib, triads[t], sim_config);
        slots[t] = train_vos_model(adder.width, triads[t],
                                   sampled_batch_oracle(sim), config);
      },
      threads);

  ModelLibrary out;
  for (auto& slot : slots) {
    VOSIM_ENSURES(slot.has_value());
    out.insert(std::move(*slot));
  }
  return out;
}

}  // namespace vosim
