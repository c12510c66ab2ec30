#include "analysis/energy_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace spms::analysis {
namespace {

TEST(EnergyModelTest, RatioIsOneForSingleHop) {
  // k = 1: SPMS degenerates into SPIN (one hop at the "max" level):
  // (1 + 1) / (1 * (f + 2 - f)) = 1.
  EXPECT_DOUBLE_EQ(spin_to_spms_energy_ratio(1.0, {}), 1.0);
}

TEST(EnergyModelTest, ClosedFormMatchesDefinition) {
  const EnergyRatioParams p;
  for (double k = 1.0; k <= 32.0; k += 1.0) {
    const double ka = std::pow(k, p.alpha);
    const double expected = (ka + 1.0) / (k * (p.f * ka + 2.0 - p.f));
    EXPECT_NEAR(spin_to_spms_energy_ratio(k, p), expected, 1e-12);
  }
}

TEST(EnergyModelTest, ClosedFormMatchesAbsoluteModel) {
  // The paper's printed ratio must equal E_SPIN / E_SPMS computed from the
  // absolute chain energies with E1 = k^alpha Em, Er = Em and the unit
  // normalization A + D + R = 1, A = f.
  const EnergyRatioParams p;
  for (double k = 2.0; k <= 16.0; k += 1.0) {
    const double em = 1.0;
    const double e1 = std::pow(k, p.alpha) * em;
    const double adv = p.f, data_req = 1.0 - p.f;
    const double spin = spin_chain_energy(adv, data_req, 0.0, e1, em);
    const double spms = spms_chain_energy(k, adv, data_req, 0.0, e1, em, em);
    EXPECT_NEAR(spin_to_spms_energy_ratio(k, p), spin / spms, 1e-12) << "k=" << k;
  }
}

TEST(EnergyModelTest, SpinChainIndependentOfHopCount) {
  // "In case of SPIN it does not matter how many relay nodes there are."
  const double e = spin_chain_energy(1, 30, 1, 100.0, 1.0);
  EXPECT_DOUBLE_EQ(e, 32.0 * 101.0);
}

TEST(EnergyModelTest, SpmsChainScalesWithHops) {
  const double one = spms_chain_energy(1, 1, 30, 1, 100.0, 1.0, 1.0);
  const double two = spms_chain_energy(2, 1, 30, 1, 100.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(two, 2.0 * one);
}

TEST(EnergyModelTest, RatioRisesThenFallsWithRadius) {
  // Fig. 5's shape under the full formula: the per-hop ADV at maximum power
  // (k f k^alpha term) eventually dominates, so the ratio peaks and then
  // decays.  Around the peak SPMS wins by several x.
  const EnergyRatioParams p;
  const double peak_k = energy_ratio_peak_k(p);
  EXPECT_GT(peak_k, 2.0);
  EXPECT_LT(peak_k, 16.0);
  const double at_peak = spin_to_spms_energy_ratio(peak_k, p);
  EXPECT_GT(at_peak, 3.0);
  // The peak on the 0.01 scan: k = 4.28, ratio 5.656.
  EXPECT_NEAR(peak_k, 4.28, 0.005);
  EXPECT_NEAR(at_peak, 5.656, 5e-4);
  EXPECT_GT(at_peak, spin_to_spms_energy_ratio(1.0, p));
  EXPECT_GT(at_peak, spin_to_spms_energy_ratio(64.0, p));
}

TEST(EnergyModelTest, SmallerMetadataHelpsSpms) {
  // f = A/(A+D+R): the smaller the advertisement relative to the data, the
  // better SPMS's ratio (its per-hop full-power cost is the ADV).
  EnergyRatioParams big_meta{3.5, 0.2};
  EnergyRatioParams small_meta{3.5, 0.01};
  EXPECT_GT(spin_to_spms_energy_ratio(8.0, small_meta),
            spin_to_spms_energy_ratio(8.0, big_meta));
}

TEST(EnergyModelTest, MobilityBreakeven) {
  EXPECT_DOUBLE_EQ(mobility_breakeven_packets(1000.0, 20.0, 10.0), 100.0);
  // No per-packet gain -> SPMS can never amortize the DBF cost.
  EXPECT_TRUE(std::isinf(mobility_breakeven_packets(1000.0, 10.0, 10.0)));
  EXPECT_TRUE(std::isinf(mobility_breakeven_packets(1000.0, 5.0, 10.0)));
}

TEST(EnergyModelTest, BreakevenScalesWithDbfCost) {
  const double b1 = mobility_breakeven_packets(500.0, 20.0, 10.0);
  const double b2 = mobility_breakeven_packets(1000.0, 20.0, 10.0);
  EXPECT_DOUBLE_EQ(b2, 2.0 * b1);
}

}  // namespace
}  // namespace spms::analysis
