// Cross-architecture property tests: invariants that must hold for every
// adder generator under the VOS flow, parameterized over architectures.
#include <gtest/gtest.h>

#include "src/characterize/characterizer.hpp"
#include "src/netlist/dut.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

class ArchPropertyTest : public ::testing::TestWithParam<AdderArch> {
 protected:
  static CharacterizeConfig config() {
    CharacterizeConfig cfg;
    cfg.num_patterns = 800;
    cfg.variation_sigma = 0.0;
    return cfg;
  }
};

TEST_P(ArchPropertyTest, BerMonotoneInSupply) {
  const DutNetlist adder = to_dut(build_adder(GetParam(), 8));
  const double cp = synthesize_report(adder.netlist, lib()).critical_path_ns;
  std::vector<OperatingTriad> triads;
  for (const double vdd : {1.0, 0.9, 0.8, 0.7, 0.6, 0.5})
    triads.push_back({cp, vdd, 0.0});
  const auto res = characterize_dut(adder, lib(), triads, config());
  for (std::size_t i = 1; i < res.size(); ++i)
    EXPECT_GE(res[i].ber, res[i - 1].ber)
        << adder_arch_name(GetParam()) << " step " << i;
  EXPECT_EQ(res[0].ber, 0.0);   // nominal must close timing
  EXPECT_GT(res.back().ber, 0.0);  // deep VOS must not
}

TEST_P(ArchPropertyTest, ForwardBodyBiasNeverHurtsAccuracy) {
  const DutNetlist adder = to_dut(build_adder(GetParam(), 8));
  const double cp = synthesize_report(adder.netlist, lib()).critical_path_ns;
  for (const double vdd : {0.8, 0.6, 0.5}) {
    const auto res = characterize_dut(
        adder, lib(), {{cp, vdd, 0.0}, {cp, vdd, 2.0}}, config());
    EXPECT_LE(res[1].ber, res[0].ber)
        << adder_arch_name(GetParam()) << " at " << vdd;
  }
}

TEST_P(ArchPropertyTest, EnergyDropsWithSupplyWhileErrorFree) {
  const DutNetlist adder = to_dut(build_adder(GetParam(), 8));
  const double cp = synthesize_report(adder.netlist, lib()).critical_path_ns;
  const auto res = characterize_dut(
      adder, lib(), {{cp, 1.0, 0.0}, {cp, 0.9, 0.0}, {cp, 0.6, 2.0}},
      config());
  ASSERT_EQ(res[0].ber, 0.0);
  ASSERT_EQ(res[1].ber, 0.0);
  EXPECT_LT(res[1].energy_per_op_fj, res[0].energy_per_op_fj);
  if (res[2].ber == 0.0) {
    EXPECT_LT(res[2].energy_per_op_fj, res[1].energy_per_op_fj);
  }
}

TEST_P(ArchPropertyTest, BitwiseBerAveragesToTotalBer) {
  const DutNetlist adder = to_dut(build_adder(GetParam(), 8));
  const double cp = synthesize_report(adder.netlist, lib()).critical_path_ns;
  const auto res =
      characterize_dut(adder, lib(), {{cp, 0.65, 0.0}}, config());
  const TriadResult& r = res[0];
  double sum = 0.0;
  for (const double b : r.bitwise_ber) sum += b;
  EXPECT_NEAR(sum / static_cast<double>(r.bitwise_ber.size()), r.ber,
              1e-12);
}

TEST_P(ArchPropertyTest, LeakagePlusDynamicEqualsTotal) {
  const DutNetlist adder = to_dut(build_adder(GetParam(), 8));
  const double cp = synthesize_report(adder.netlist, lib()).critical_path_ns;
  const auto res =
      characterize_dut(adder, lib(), {{cp, 0.8, 0.0}}, config());
  EXPECT_NEAR(res[0].dynamic_energy_fj + res[0].leakage_energy_fj,
              res[0].energy_per_op_fj, 1e-9);
  EXPECT_GT(res[0].dynamic_energy_fj, res[0].leakage_energy_fj);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, ArchPropertyTest,
    ::testing::Values(AdderArch::kRipple, AdderArch::kBrentKung,
                      AdderArch::kKoggeStone, AdderArch::kSklansky,
                      AdderArch::kCarrySelect, AdderArch::kCarrySkip,
                      AdderArch::kHanCarlson),
    [](const ::testing::TestParamInfo<AdderArch>& info) {
      return adder_arch_name(info.param);
    });

}  // namespace
}  // namespace vosim
