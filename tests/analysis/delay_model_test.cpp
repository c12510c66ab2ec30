#include "analysis/delay_model.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

namespace spms::analysis {
namespace {

TEST(DelayModelTest, CsmaDelayIsQuadratic) {
  DelayParams p;
  EXPECT_DOUBLE_EQ(csma_delay(p, 10.0), 0.01 * 100.0);
  EXPECT_DOUBLE_EQ(csma_delay(p, 0.0), 0.0);
}

TEST(DelayModelTest, PaperSpotValue_2_7865) {
  // Section 4.1: "DelaySPIN : DelaySPMS = 2.7865" at Ttx=0.05, Tproc=0.02,
  // A:D=1:30, G=0.01, n1=45, ns=5.
  DelayParams p;  // defaults are exactly those values
  EXPECT_NEAR(spin_to_spms_delay_ratio(p, 45.0, 5.0), 2.7865, 5e-4);
}

TEST(DelayModelTest, Equation1Terms) {
  // Eq. (1): three max-power channel accesses + airtime + 2 Tproc.
  DelayParams p;
  const double expected = 3 * 0.01 * 45 * 45 + (1 + 1 + 30) * 0.05 + 2 * 0.02;
  EXPECT_DOUBLE_EQ(spin_pair_delay(p, 45.0), expected);
}

TEST(DelayModelTest, Equation2Terms) {
  DelayParams p;
  const double expected = 0.01 * 45 * 45 + 2 * 0.01 * 25 + (1 + 1 + 30) * 0.05 + 2 * 0.02;
  EXPECT_DOUBLE_EQ(spms_pair_delay(p, 45.0, 5.0), expected);
}

TEST(DelayModelTest, SpmsNeverSlowerThanSpinOnePair) {
  // With ns <= n1 the SPMS pair delay can never exceed SPIN's (it saves two
  // max-power channel accesses).
  DelayParams p;
  for (double n1 = 2; n1 <= 200; n1 += 7) {
    for (double ns = 1; ns <= n1; ns += 3) {
      EXPECT_LE(spms_pair_delay(p, n1, ns), spin_pair_delay(p, n1) + 1e-12);
    }
  }
}

TEST(DelayModelTest, RatioApproachesThreeForLargeZones) {
  // As n1 -> inf with ns fixed, contention dominates and the ratio tends to
  // the 3-access/1-access limit of 3.
  DelayParams p;
  EXPECT_NEAR(spin_to_spms_delay_ratio(p, 2000.0, 5.0), 3.0, 0.01);
  EXPECT_GT(spin_to_spms_delay_ratio(p, 2000.0, 5.0),
            spin_to_spms_delay_ratio(p, 45.0, 5.0));
}

TEST(DelayModelTest, TwoHopIsTwoRounds) {
  DelayParams p;
  EXPECT_DOUBLE_EQ(spms_two_hop_delay(p, 45, 5), 2.0 * spms_round_time(p, 45, 5));
}

TEST(DelayModelTest, RelayNoRequestAddsTimeoutAndExtraHops) {
  DelayParams p;
  const double with_request = spms_two_hop_delay(p, 45, 5);
  const double without = spms_relay_no_request_delay(p, 45, 5);
  // Case a.b pays TOutADV but skips the relay's own REQ/DATA round; with the
  // paper constants it is the slower path for the destination.
  EXPECT_GT(without, p.tout_adv);
  EXPECT_NE(without, with_request);
}

TEST(DelayModelTest, KRelayWorstCaseGrowsLinearly) {
  DelayParams p;
  // One relay is case a.b: 20.25 + 4 * 0.25 + 63 * 0.05 + 4 * 0.02 + 1.0 ms.
  EXPECT_NEAR(spms_k_relay_worst_delay(p, 1, 45, 5), 25.48, 1e-9);
  const double k2 = spms_k_relay_worst_delay(p, 2, 45, 5);
  const double k3 = spms_k_relay_worst_delay(p, 3, 45, 5);
  const double k4 = spms_k_relay_worst_delay(p, 4, 45, 5);
  EXPECT_NEAR(k3 - k2, spms_round_time(p, 45, 5), 1e-12);
  EXPECT_NEAR(k4 - k3, spms_round_time(p, 45, 5), 1e-12);
}

TEST(DelayModelTest, FailureCasesCostMoreThanTheEquivalentCleanExchange) {
  // Note the baseline: with the paper's constants a full extra T_round (two
  // max-power channel accesses) can cost MORE than a failure recovery, so
  // the meaningful comparison is against the clean exchange at the same
  // power levels.
  DelayParams p;
  EXPECT_GT(spms_failure_before_adv_delay(p, 45, 25, 5), spms_pair_delay(p, 45, 25));
  EXPECT_GT(spms_failure_after_adv_delay(p, 45, 25, 5), spms_round_time(p, 45, 5));
}

TEST(DelayModelTest, FailureBeforeAdvIncludesBothTimeouts) {
  DelayParams p;
  const double d = spms_failure_before_adv_delay(p, 45, 25, 5);
  EXPECT_GT(d, p.tout_adv + p.tout_dat);
}

TEST(DelayModelTest, JthFromLastFailure) {
  DelayParams p;
  // Failing nearer the destination (small j) wastes more completed rounds.
  const double early = spms_failure_jth_from_last_delay(p, 6, 5, 45, 5, 25);
  const double late = spms_failure_jth_from_last_delay(p, 6, 1, 45, 5, 25);
  EXPECT_GT(late, early);
}

TEST(DelayModelTest, GridDiscCountMatchesPaperDensities) {
  // 5 m pitch: 20 m radius covers 48 lattice points, 5.48 m covers 4 —
  // the deployment behind the n1/ns calibration note in EXPERIMENTS.md.
  EXPECT_EQ(grid_disc_count(20.0, 5.0), 48u);
  EXPECT_EQ(grid_disc_count(5.48, 5.0), 4u);
  EXPECT_EQ(grid_disc_count(1.0, 5.0), 0u);
  EXPECT_EQ(grid_disc_count(5.0, 5.0), 4u);
  // Unit grid: r=1 -> 4 neighbors, r=sqrt(2) -> 8.
  EXPECT_EQ(grid_disc_count(1.0, 1.0), 4u);
  EXPECT_EQ(grid_disc_count(1.5, 1.0), 8u);
}

TEST(DelayModelTest, Fig3GridRatioRisesFromOneTowardThree) {
  // Fig. 3 on the 5 m grid: n1 = grid_disc_count(r) for r = 5, 7.5, ... 30 m
  // and ns = grid_disc_count(5.48) = 4, the weakest level's station count.
  const DelayParams p;
  const std::size_t ns = grid_disc_count(5.48, 5.0);
  ASSERT_EQ(ns, 4u);
  const std::size_t n1_at[] = {4, 8, 12, 20, 28, 36, 48, 68, 80, 96, 112};
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::size(n1_at); ++i) {
    const double r = 5.0 + 2.5 * static_cast<double>(i);
    const std::size_t n1 = grid_disc_count(r, 5.0);
    EXPECT_EQ(n1, n1_at[i]) << "r=" << r;
    ratios.push_back(spin_pair_delay(p, static_cast<double>(n1)) /
                     spms_pair_delay(p, static_cast<double>(n1), static_cast<double>(ns)));
  }
  // At 5 m n1 = ns: both protocols pay the same three accesses.
  EXPECT_NEAR(ratios.front(), 1.0, 1e-12);
  for (std::size_t i = 1; i < ratios.size(); ++i) {
    EXPECT_GT(ratios[i], ratios[i - 1]) << "r=" << 5.0 + 2.5 * static_cast<double>(i);
  }
  EXPECT_LT(ratios.back(), 3.0);
  EXPECT_NEAR(ratios.back(), 2.9667, 5e-5);
}

TEST(DelayModelTest, GridDiscCountApproachesContinuum) {
  // For large r the count approaches the disc area divided by cell area.
  const double r = 50.0, pitch = 1.0;
  const auto count = static_cast<double>(grid_disc_count(r, pitch));
  const double area = 3.14159265358979 * r * r;
  EXPECT_NEAR(count / area, 1.0, 0.01);
}

}  // namespace
}  // namespace spms::analysis
