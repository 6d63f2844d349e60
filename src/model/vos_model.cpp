#include "src/model/vos_model.hpp"

#include <array>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/model/carry_chain.hpp"
#include "src/model/windowed_add.hpp"
#include "src/netlist/dut.hpp"
#include "src/sim/vos_dut.hpp"
#include "src/util/contracts.hpp"
#include "src/util/parallel.hpp"

namespace vosim {

namespace {

/// Most segments a model can have: one per output bit of a 63-bit adder.
constexpr std::size_t kMaxSegments = 64;

}  // namespace

VosAdderModel::VosAdderModel(int width, OperatingTriad triad,
                             DistanceMetric metric, CarryChainProbTable table)
    : VosAdderModel(width, triad, metric, {0, width + 1}, {std::move(table)}) {
}

VosAdderModel::VosAdderModel(int width, OperatingTriad triad,
                             DistanceMetric metric, std::vector<int> bounds,
                             std::vector<CarryChainProbTable> tables)
    : width_(width),
      triad_(triad),
      metric_(metric),
      bounds_(std::move(bounds)),
      tables_(std::move(tables)) {
  expect_segment_bounds(width_, bounds_);
  VOSIM_EXPECTS(tables_.size() + 1 == bounds_.size());
  for (const CarryChainProbTable& t : tables_)
    VOSIM_EXPECTS(t.width() == width_);
}

const CarryChainProbTable& VosAdderModel::table(int segment) const {
  VOSIM_EXPECTS(segment >= 0 && segment < num_segments());
  return tables_[static_cast<std::size_t>(segment)];
}

bool VosAdderModel::is_exact() const {
  for (const CarryChainProbTable& t : tables_)
    if (!t.is_identity()) return false;
  return true;
}

std::uint64_t VosAdderModel::add(std::uint64_t a, std::uint64_t b,
                                 Rng& rng) const {
  std::array<int, kMaxSegments> windows{};
  for (std::size_t s = 0; s < tables_.size(); ++s) {
    const int cth = max_carry_chain(a, b, width_, bounds_[s], bounds_[s + 1]);
    windows[s] = tables_[s].sample(cth, rng);
  }
  return windowed_add(a, b, width_, bounds_,
                      std::span(windows).first(tables_.size()));
}

void VosAdderModel::save(std::ostream& os) const {
  // max_digits10 so the triad doubles round-trip bit-exactly and
  // ModelLibrary::find() matches after load.
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  const bool one = tables_.size() == 1;
  os << "vos_adder_model " << (one ? "v1 " : "v2 ") << width_ << " "
     << triad_.tclk_ns << " " << triad_.vdd_v << " " << triad_.vbb_v << " "
     << static_cast<int>(metric_);
  if (!one)
    for (const int b : bounds_) os << " " << b;
  os << "\n";
  os.precision(old_precision);
  for (const CarryChainProbTable& t : tables_) t.save(os);
}

VosAdderModel VosAdderModel::load(std::istream& is) {
  std::string magic;
  std::string version;
  int width = 0;
  OperatingTriad triad;
  int metric = 0;
  is >> magic >> version >> width >> triad.tclk_ns >> triad.vdd_v >>
      triad.vbb_v >> metric;
  if (!is || magic != "vos_adder_model" ||
      (version != "v1" && version != "v2"))
    throw std::runtime_error("bad VOS model header");
  std::vector<int> bounds{0, width + 1};
  if (version == "v2") {  // the rest of the header line: the bounds
    std::string line;
    std::getline(is, line);
    std::istringstream ls(line);
    bounds.clear();
    for (int b = 0; ls >> b;) bounds.push_back(b);
  }
  std::vector<CarryChainProbTable> tables;
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s)
    tables.push_back(CarryChainProbTable::load(is));
  return VosAdderModel(width, triad, static_cast<DistanceMetric>(metric),
                       std::move(bounds), std::move(tables));
}

VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const BatchHardwareOracle& oracle,
                              int num_segments,
                              const TrainerConfig& config) {
  std::vector<int> bounds = equal_segments(width, num_segments);
  auto tables = train_carry_tables(width, bounds, oracle, config);
  return VosAdderModel(width, triad, config.metric, std::move(bounds),
                       std::move(tables));
}

VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const HardwareOracle& oracle, int num_segments,
                              const TrainerConfig& config) {
  // One call per pattern, in stream order.
  const BatchHardwareOracle batch =
      [&oracle](std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b,
                std::span<std::uint64_t> observed) {
        for (std::size_t k = 0; k < a.size(); ++k)
          observed[k] = oracle(a[k], b[k]);
      };
  return train_vos_model(width, triad, batch, num_segments, config);
}

VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const HardwareOracle& oracle,
                              const TrainerConfig& config) {
  return train_vos_model(width, triad, oracle, 1, config);
}

VosAdderModel train_vos_model(int width, const OperatingTriad& triad,
                              const BatchHardwareOracle& oracle,
                              const TrainerConfig& config) {
  return train_vos_model(width, triad, oracle, 1, config);
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
