#include <gtest/gtest.h>

#include <tuple>

#include "exp/runner.hpp"

/// Cross-module property sweeps: full protocol stacks on real deployments.
/// These are the repository's end-to-end invariants — delivery completeness,
/// energy ordering, fault survival — parameterized over protocol, network
/// size and zone radius.

namespace spms::exp {
namespace {

using StackParam = std::tuple<ProtocolKind, std::size_t /*nodes*/, double /*radius*/>;

class FullStackSweep : public ::testing::TestWithParam<StackParam> {};

TEST_P(FullStackSweep, FailureFreeRunsDeliverEverythingDeterministically) {
  const auto [kind, nodes, radius] = GetParam();
  ExperimentConfig cfg;
  cfg.protocol = kind;
  cfg.node_count = nodes;
  cfg.zone_radius_m = radius;
  cfg.traffic.packets_per_node = 2;
  cfg.seed = 11;

  const auto r = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 1.0)
      << r.protocol << " nodes=" << nodes << " r=" << radius;
  EXPECT_EQ(r.given_up, 0u);
  EXPECT_FALSE(r.event_limit_hit);
  EXPECT_GT(r.mean_delay_ms, 0.0);
  EXPECT_GT(r.protocol_energy_per_item_uj, 0.0);

  // Determinism across identical configs.
  const auto again = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(r.mean_delay_ms, again.mean_delay_ms);
  EXPECT_DOUBLE_EQ(r.energy_per_item_uj, again.energy_per_item_uj);
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsSizesRadii, FullStackSweep,
    ::testing::Combine(::testing::Values(ProtocolKind::kSpms, ProtocolKind::kSpin,
                                         ProtocolKind::kFlooding),
                       ::testing::Values(std::size_t{9}, std::size_t{25}),
                       ::testing::Values(12.0, 20.0)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "n_" +
             std::to_string(static_cast<int>(std::get<2>(info.param))) + "m";
    });

class FailureSweep : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(FailureSweep, SurvivesTransientFailureChurn) {
  ExperimentConfig cfg;
  cfg.protocol = GetParam();
  cfg.node_count = 16;
  cfg.zone_radius_m = 12.0;
  cfg.traffic.packets_per_node = 1;
  cfg.faults.crash.enabled = true;
  cfg.activity_horizon = sim::Duration::ms(300);
  cfg.seed = 3;

  const auto r = run_experiment(cfg);
  EXPECT_GT(r.fault_stats.node_downs, 0u);
  // Transient churn costs some deliveries but the protocol must not collapse.
  EXPECT_GT(r.delivery_ratio, 0.5) << r.protocol;
  EXPECT_FALSE(r.event_limit_hit);
}

INSTANTIATE_TEST_SUITE_P(Protocols, FailureSweep,
                         ::testing::Values(ProtocolKind::kSpms, ProtocolKind::kSpin),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(HeadlineComparison, SpmsBeatsSpinOnEnergyInTheReferenceSetup) {
  // The paper's headline: on the static failure-free all-to-all workload
  // SPMS consumes substantially less dissemination energy than SPIN.
  ExperimentConfig cfg;
  cfg.node_count = 49;
  cfg.zone_radius_m = 20.0;
  cfg.traffic.packets_per_node = 2;
  cfg.seed = 21;

  cfg.protocol = ProtocolKind::kSpms;
  const auto spms_run = run_experiment(cfg);
  cfg.protocol = ProtocolKind::kSpin;
  const auto spin_run = run_experiment(cfg);

  ASSERT_DOUBLE_EQ(spms_run.delivery_ratio, 1.0);
  ASSERT_DOUBLE_EQ(spin_run.delivery_ratio, 1.0);
  EXPECT_LT(spms_run.protocol_energy_per_item_uj, spin_run.protocol_energy_per_item_uj);
  // And on delay ("somewhat counter-intuitively, SPMS reduces the end-to-end
  // data latency").
  EXPECT_LT(spms_run.mean_delay_ms, spin_run.mean_delay_ms);
}

TEST(HeadlineComparison, SpinBeatsFloodingOnEnergy) {
  // Sanity of the baseline ordering: metadata negotiation saves energy over
  // blind flooding (SPIN's raison d'etre).
  ExperimentConfig cfg;
  cfg.node_count = 25;
  cfg.zone_radius_m = 20.0;
  cfg.traffic.packets_per_node = 2;
  cfg.seed = 21;

  cfg.protocol = ProtocolKind::kSpin;
  const auto spin_run = run_experiment(cfg);
  cfg.protocol = ProtocolKind::kFlooding;
  const auto flood_run = run_experiment(cfg);

  ASSERT_DOUBLE_EQ(spin_run.delivery_ratio, 1.0);
  ASSERT_DOUBLE_EQ(flood_run.delivery_ratio, 1.0);
  // Flooding transmits the full DATA from every node; with all-to-all
  // interest both deliver everywhere, but flooding pays DATA airtime per
  // node without any unicast targeting.
  EXPECT_LT(spin_run.net_counters.tx_data, flood_run.net_counters.tx_data * 2);
}

TEST(HeadlineComparison, FailuresIncreaseDelay) {
  // Fig. 10/11's qualitative claim: transient failures push delay up.
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kSpms;
  cfg.node_count = 25;
  cfg.zone_radius_m = 20.0;
  cfg.traffic.packets_per_node = 2;
  cfg.seed = 13;

  const auto clean = run_experiment(cfg);
  cfg.faults.crash.enabled = true;
  cfg.activity_horizon = sim::Duration::ms(500);
  const auto faulty = run_experiment(cfg);
  ASSERT_GT(faulty.fault_stats.node_downs, 0u);
  EXPECT_GT(faulty.mean_delay_ms, clean.mean_delay_ms);
}

}  // namespace
}  // namespace spms::exp
