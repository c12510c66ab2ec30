#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include "exp/scenario_registry.hpp"

namespace spms::exp {
namespace {

ExperimentConfig tiny(ProtocolKind kind) {
  ExperimentConfig cfg;
  cfg.protocol = kind;
  cfg.node_count = 9;
  cfg.zone_radius_m = 12.0;
  cfg.traffic.packets_per_node = 1;
  return cfg;
}

TEST(ScenarioTest, BuildsAllComponentsForSpms) {
  Scenario s{tiny(ProtocolKind::kSpms)};
  EXPECT_EQ(s.network().size(), 9u);
  EXPECT_NE(s.routing(), nullptr);
  EXPECT_EQ(s.protocol().name(), "SPMS");
  EXPECT_EQ(s.faults(), nullptr);
  EXPECT_EQ(s.mobility(), nullptr);
  // 3x3 grid at 5 m pitch spans 10 m.
  EXPECT_DOUBLE_EQ(s.field_side_m(), 10.0);
  // The initial DBF build ran in the constructor.
  EXPECT_GT(s.routing()->total_stats().rounds, 0u);
  EXPECT_GT(s.network().energy().routing_uj(), 0.0);
}

TEST(ScenarioTest, SpinHasNoRoutingService) {
  Scenario s{tiny(ProtocolKind::kSpin)};
  EXPECT_EQ(s.routing(), nullptr);
  EXPECT_EQ(s.protocol().name(), "SPIN");
  EXPECT_DOUBLE_EQ(s.network().energy().routing_uj(), 0.0);
}

TEST(ScenarioTest, NonSquareNodeCountTruncatesGrid) {
  auto cfg = tiny(ProtocolKind::kSpin);
  cfg.node_count = 7;  // grid side 3, last two slots unpopulated
  Scenario s{cfg};
  EXPECT_EQ(s.network().size(), 7u);
}

TEST(ScenarioTest, StartThenRunDeliversTraffic) {
  auto cfg = tiny(ProtocolKind::kSpms);
  Scenario s{cfg};
  s.start();
  const auto events = s.run();
  EXPECT_GT(events, 0u);
  EXPECT_TRUE(s.collector().all_delivered());
  EXPECT_EQ(s.collector().published(), 9u);
}

TEST(ScenarioTest, FaultControllerWiredWhenConfigured) {
  auto cfg = tiny(ProtocolKind::kSpms);
  cfg.faults.crash.enabled = true;
  cfg.activity_horizon = sim::Duration::ms(300);
  Scenario s{cfg};
  ASSERT_NE(s.faults(), nullptr);
  s.start();
  s.run();
  EXPECT_GT(s.faults()->stats().node_downs, 0u);
  // All repairs completed: network ends fully up.
  for (std::uint32_t i = 0; i < s.network().size(); ++i) {
    EXPECT_TRUE(s.network().is_up(net::NodeId{i}));
  }
}

TEST(ScenarioTest, FiniteBudgetAloneKillsDrainedNodes) {
  // No plan entry: the finite budget is the run's only source of faults,
  // and every battery that runs dry still dies for good.
  auto cfg = tiny(ProtocolKind::kSpms);
  energy_budget(cfg, 15.0);  // dries out more than half of the nine nodes
  ASSERT_FALSE(cfg.faults.any());
  Scenario s{cfg};
  ASSERT_NE(s.faults(), nullptr);
  s.start();
  s.run();
  s.faults()->finalize();
  const auto& stats = s.faults()->stats();
  const auto drained = s.network().depleted_count();
  ASSERT_GT(drained, 0u);
  EXPECT_EQ(stats.permanent_deaths, drained);
  EXPECT_EQ(stats.node_repairs, 0u);
  for (std::uint32_t i = 0; i < s.network().size(); ++i) {
    const net::NodeId id{i};
    const bool dry = s.network().battery(id).depleted();
    EXPECT_EQ(s.faults()->permanently_dead(id), dry) << i;
    EXPECT_EQ(s.network().is_up(id), !dry) << i;
  }
  EXPECT_GT(stats.time_to_first_death_ms, 0.0);
  EXPECT_GE(stats.time_to_10pct_dead_ms, stats.time_to_first_death_ms);
  EXPECT_GE(stats.half_life_ms, stats.time_to_10pct_dead_ms);
}

TEST(ScenarioTest, MobilityRebuildsRouting) {
  auto cfg = tiny(ProtocolKind::kSpms);
  cfg.mobility = true;
  cfg.mobility_params.epoch_interval = sim::Duration::ms(20);
  cfg.activity_horizon = sim::Duration::ms(70);
  Scenario s{cfg};
  ASSERT_NE(s.mobility(), nullptr);
  const auto initial_rounds = s.routing()->total_stats().rounds;
  s.start();
  s.run();
  EXPECT_GE(s.mobility()->epochs(), 3u);
  EXPECT_GT(s.routing()->total_stats().rounds, initial_rounds);
}

TEST(ScenarioTest, SpmsExtensionsReachTheProtocol) {
  auto cfg = tiny(ProtocolKind::kSpms);
  cfg.spms_ext.relay_caching = true;
  cfg.spms_ext.num_scones = 3;
  Scenario s{cfg};  // must construct cleanly and run
  s.start();
  s.run();
  EXPECT_TRUE(s.collector().all_delivered());
}

TEST(ScenarioTest, PaperMacModeRuns) {
  auto cfg = tiny(ProtocolKind::kSpms);
  cfg.mac.infinite_parallelism = true;
  cfg.mac.contention_g_ms = 0.01;
  cfg.proto.tout_adv = sim::Duration::ms(60.0);
  cfg.proto.tout_dat = sim::Duration::ms(120.0);
  Scenario s{cfg};
  s.start();
  s.run();
  EXPECT_TRUE(s.collector().all_delivered());
}

}  // namespace
}  // namespace spms::exp
