#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"

/// Tests for the sink traffic pattern (§5.1's "source to sink" special
/// case) and the uniform-random deployment variant.

namespace spms::exp {
namespace {

TEST(SinkPatternTest, CentralSinkCollectsEverythingInOneZone) {
  // 25 nodes on a 20 m-wide field with a 20 m zone: every source reaches the
  // central sink's zone, so the published protocol suffices.
  ExperimentConfig cfg;
  cfg.pattern = TrafficPattern::kSink;
  cfg.node_count = 25;
  cfg.zone_radius_m = 20.0;
  cfg.traffic.packets_per_node = 1;
  cfg.seed = 3;
  for (const auto kind : {ProtocolKind::kSpms, ProtocolKind::kSpin}) {
    cfg.protocol = kind;
    const auto r = run_experiment(cfg);
    EXPECT_EQ(r.expected_deliveries, 24u) << to_string(kind);  // sink's own item excluded
    EXPECT_DOUBLE_EQ(r.delivery_ratio, 1.0) << to_string(kind);
  }
}

TEST(SinkPatternTest, InterestIsSinkOnly) {
  ExperimentConfig cfg;
  cfg.pattern = TrafficPattern::kSink;
  cfg.node_count = 25;
  cfg.zone_radius_m = 20.0;
  Scenario s{cfg};
  const core::Interest& interest = s.interest();
  // One node, the sink, wants every other node's item; nobody wants the
  // sink's own.
  const std::uint32_t n = static_cast<std::uint32_t>(s.network().size());
  std::vector<std::uint32_t> wanted(n, 0);
  for (std::uint32_t origin = 0; origin < n; ++origin) {
    for (std::uint32_t i = 0; i < n; ++i) {
      wanted[i] += interest.wants(net::NodeId{i}, {net::NodeId{origin}, 0});
    }
  }
  const auto sink = static_cast<std::uint32_t>(
      std::max_element(wanted.begin(), wanted.end()) - wanted.begin());
  EXPECT_EQ(wanted[sink], n - 1);
  EXPECT_EQ(std::accumulate(wanted.begin(), wanted.end(), 0u), n - 1);
  EXPECT_EQ(interest.expected_count({net::NodeId{sink}, 0}), 0u);
}

TEST(SinkPatternTest, FarSourcesNeedTheCrossZoneExtension) {
  // A 60 m-wide field with a 15 m zone: corner sources cannot reach the
  // central sink under the published protocol; the cross-zone couriers fix
  // it.  This is exactly the scenario the paper's Section 6 motivates.
  ExperimentConfig cfg;
  cfg.pattern = TrafficPattern::kSink;
  cfg.protocol = ProtocolKind::kSpms;
  cfg.node_count = 169;
  cfg.zone_radius_m = 15.0;
  cfg.traffic.packets_per_node = 1;
  cfg.seed = 3;

  const auto published = run_experiment(cfg);
  EXPECT_LT(published.delivery_ratio, 0.5) << "published SPMS should strand far sources";

  cfg.spms_ext.cross_zone_ttl = 6;
  const auto extended = run_experiment(cfg);
  EXPECT_GT(extended.delivery_ratio, 0.95)
      << "couriered metadata should reach the sink from everywhere";
}

TEST(RandomDeploymentTest, RunsDeliverOnDenseRandomFields) {
  ExperimentConfig cfg;
  cfg.deployment = Deployment::kUniformRandom;
  cfg.node_count = 49;
  cfg.zone_radius_m = 20.0;
  cfg.traffic.packets_per_node = 1;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    cfg.seed = seed;
    cfg.protocol = ProtocolKind::kSpms;
    const auto r = run_experiment(cfg);
    // Random fields can have isolated corners; demand near-complete
    // delivery rather than bitwise 100%.
    EXPECT_GT(r.delivery_ratio, 0.95) << "seed " << seed;
    EXPECT_FALSE(r.event_limit_hit);
  }
}

TEST(RandomDeploymentTest, DeterministicPerSeed) {
  ExperimentConfig cfg;
  cfg.deployment = Deployment::kUniformRandom;
  cfg.node_count = 36;
  cfg.zone_radius_m = 20.0;
  cfg.traffic.packets_per_node = 1;
  cfg.seed = 9;
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(a.mean_delay_ms, b.mean_delay_ms);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(RandomDeploymentTest, DiffersFromGrid) {
  ExperimentConfig cfg;
  cfg.node_count = 36;
  cfg.zone_radius_m = 20.0;
  cfg.traffic.packets_per_node = 1;
  cfg.seed = 9;
  cfg.deployment = Deployment::kGrid;
  const auto grid = run_experiment(cfg);
  cfg.deployment = Deployment::kUniformRandom;
  const auto random = run_experiment(cfg);
  EXPECT_NE(grid.mean_delay_ms, random.mean_delay_ms);
}

}  // namespace
}  // namespace spms::exp
