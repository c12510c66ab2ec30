#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "exp/batch.hpp"
#include "exp/columns.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/store/canonical.hpp"

/// Fault-campaign invariants at the experiment layer: every fault parameter
/// feeds the store's config key, the faults-* scenarios are registered and
/// deterministic at any worker count, stacked plans exercise every fault
/// process and battery deaths, and the recovery metrics surface through
/// RunResult.

namespace spms::exp {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.node_count = 16;
  cfg.zone_radius_m = 12.0;
  cfg.traffic.packets_per_node = 1;
  cfg.seed = 5;
  return cfg;
}

TEST(FaultCampaignTest, ConfigKeyReactsToEveryFaultProcessParameter) {
  // Acceptance pin: all four fault processes round-trip through config_key
  // — changing any parameter of any process changes the key.
  const ExperimentConfig base;
  const auto mutated_key = [&](auto&& mutate) {
    ExperimentConfig c = base;
    mutate(c.faults);
    return store::config_key(c);
  };
  std::set<std::string> keys{store::config_key(base)};
  keys.insert(mutated_key([](auto& f) { f.crash.enabled = true; }));
  keys.insert(mutated_key([](auto& f) {
    f.crash.mean_time_between_failures = sim::Duration::ms(51.0);
  }));
  keys.insert(mutated_key([](auto& f) { f.crash.repair_min = sim::Duration::ms(6.0); }));
  keys.insert(mutated_key([](auto& f) { f.crash.repair_max = sim::Duration::ms(16.0); }));
  keys.insert(mutated_key([](auto& f) { f.region.enabled = true; }));
  keys.insert(mutated_key([](auto& f) {
    f.region.mean_time_between_outages = sim::Duration::ms(201.0);
  }));
  keys.insert(mutated_key([](auto& f) { f.region.radius_m = 10.5; }));
  keys.insert(mutated_key([](auto& f) { f.region.repair_min = sim::Duration::ms(11.0); }));
  keys.insert(mutated_key([](auto& f) { f.region.repair_max = sim::Duration::ms(31.0); }));
  keys.insert(mutated_key([](auto& f) { f.link.enabled = true; }));
  keys.insert(mutated_key([](auto& f) { f.link.drop_start = 0.01; }));
  keys.insert(mutated_key([](auto& f) { f.link.drop_end = 0.21; }));
  keys.insert(mutated_key([](auto& f) { f.sink_churn.enabled = true; }));
  keys.insert(mutated_key([](auto& f) { f.sink_churn.hops = 3; }));
  keys.insert(mutated_key([](auto& f) {
    f.sink_churn.mean_time_between_failures = sim::Duration::ms(51.0);
  }));
  keys.insert(mutated_key([](auto& f) { f.sink_churn.repair_min = sim::Duration::ms(6.0); }));
  keys.insert(mutated_key([](auto& f) { f.sink_churn.repair_max = sim::Duration::ms(16.0); }));
  EXPECT_EQ(keys.size(), 18u) << "some fault parameter did not change the config key";
  // The battery *budget* parameters live in ExperimentConfig::battery and
  // are covered by the canonical key test in tests/exp/store_test.cpp.
}

TEST(FaultCampaignTest, FaultsScenariosAreRegistered) {
  for (const char* name : {"faults-smoke", "faults-models", "faults-intensity"}) {
    const auto* info = find_scenario(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_GT(info->make().job_count(), 0u) << name;
  }
  // The smoke grid carries one variant per model plus the stacked case.
  const auto spec = find_scenario("faults-smoke")->make();
  std::set<std::string> variants;
  for (const auto& v : spec.variants) variants.insert(v.name);
  EXPECT_EQ(variants, (std::set<std::string>{"crash", "region", "battery", "link",
                                             "sink-churn", "stacked"}));
}

TEST(FaultCampaignTest, FaultsSmokeIsBitIdenticalAtAnyWorkerCount) {
  // Same seed + same FaultPlan => byte-identical serialized RunResult at
  // --jobs 1 vs --jobs 8 (the canonical JSON covers every field, so byte
  // equality is full bit equality).
  auto spec = find_scenario("faults-smoke")->make();
  spec.seeds = {2004, 2005};
  BatchOptions serial;
  serial.jobs = 1;
  BatchOptions parallel;
  parallel.jobs = 8;
  const auto a = BatchRunner{serial}.run(spec);
  const auto b = BatchRunner{parallel}.run(spec);
  ASSERT_EQ(a.runs().size(), b.runs().size());
  ASSERT_EQ(a.runs().size(), spec.job_count());
  for (std::size_t i = 0; i < a.runs().size(); ++i) {
    EXPECT_EQ(store::result_to_json(a.runs()[i]), store::result_to_json(b.runs()[i]))
        << a.runs()[i].label;
  }
}

TEST(FaultCampaignTest, StackedPlanExercisesAllFiveModels) {
  auto cfg = tiny_config();
  cfg.faults.crash.enabled = true;
  cfg.faults.crash.mean_time_between_failures = sim::Duration::ms(60.0);
  cfg.faults.crash.repair_min = sim::Duration::ms(10.0);
  cfg.faults.crash.repair_max = sim::Duration::ms(20.0);
  cfg.faults.region.enabled = true;
  cfg.faults.region.mean_time_between_outages = sim::Duration::ms(80.0);
  cfg.faults.region.radius_m = 8.0;
  energy_budget(cfg, 30.0);  // finite budget: batteries die too
  cfg.faults.link.enabled = true;
  cfg.faults.link.drop_start = 0.05;
  cfg.faults.link.drop_end = 0.3;
  cfg.faults.sink_churn.enabled = true;
  cfg.faults.sink_churn.mean_time_between_failures = sim::Duration::ms(60.0);
  cfg.activity_horizon = sim::Duration::ms(500);

  Scenario s{cfg};
  ASSERT_NE(s.faults(), nullptr);
  s.start();
  s.run();
  s.faults()->finalize();
  // Every process logged events, and the link fade dropped receptions.
  std::set<std::string> logged;
  for (const auto& e : s.faults()->observer().events()) logged.insert(e.model);
  EXPECT_EQ(logged, (std::set<std::string>{"battery", "crash", "region", "sink-churn"}));
  EXPECT_GT(s.network().counters().dropped_link_fault, 0u);
  const auto& stats = s.faults()->stats();
  EXPECT_GT(stats.node_downs, 0u);
  EXPECT_GT(stats.total_downtime_ms, 0.0);
  // Energy-driven deaths: the 30 uJ budget dries out at least one node, and
  // every death carries a lifetime timestamp.
  EXPECT_GT(stats.permanent_deaths, 0u);
  EXPECT_GT(stats.time_to_first_death_ms, 0.0);
}

TEST(FaultCampaignTest, LinkDegradationDropsFramesButTrafficSurvives) {
  auto cfg = tiny_config();
  cfg.faults.link.enabled = true;
  cfg.faults.link.drop_start = 0.3;
  cfg.faults.link.drop_end = 0.3;
  cfg.activity_horizon = sim::Duration::ms(500);
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.net_counters.dropped_link_fault, 0u);
  // The channel heals at the horizon, so retries eventually get through.
  EXPECT_GT(r.delivery_ratio, 0.3);
  const auto clean = run_experiment(tiny_config());
  EXPECT_EQ(clean.net_counters.dropped_link_fault, 0u);
}

TEST(FaultCampaignTest, RecoveryMetricsSurfaceThroughRunResult) {
  auto cfg = tiny_config();
  cfg.faults.crash.enabled = true;
  cfg.faults.crash.mean_time_between_failures = sim::Duration::ms(50.0);
  cfg.faults.crash.repair_min = sim::Duration::ms(10.0);
  cfg.faults.crash.repair_max = sim::Duration::ms(20.0);
  cfg.traffic.packets_per_node = 2;
  cfg.activity_horizon = sim::Duration::ms(400);
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.fault_stats.node_downs, 0u);
  EXPECT_GT(r.fault_stats.node_repairs, 0u);
  EXPECT_GT(r.fault_stats.total_downtime_ms, 0.0);
  EXPECT_GE(r.fault_stats.outage_time_ms, r.fault_stats.total_downtime_ms /
                                              static_cast<double>(r.nodes));
  EXPECT_GE(r.fault_stats.max_concurrent_down, 1u);
  // Transient-only plan: every down transition eventually repaired.
  EXPECT_EQ(r.fault_stats.node_downs, r.fault_stats.node_repairs);
  EXPECT_EQ(r.fault_stats.permanent_deaths, 0u);
  // With traffic in flight during churn, some repairs see later deliveries.
  EXPECT_GT(r.fault_stats.recoveries_sampled, 0u);
  EXPECT_GT(r.fault_stats.mean_recovery_latency_ms, 0.0);
}

TEST(FaultCampaignTest, FaultStatsAggregateAcrossSeeds) {
  auto spec = find_scenario("faults-smoke")->make();
  spec.seeds = {1, 2, 3};
  BatchOptions opts;
  opts.jobs = 4;
  const auto batch = BatchRunner{opts}.run(spec);
  // Read the cells the aggregate table prints.
  const auto headers = table_headers(TableKind::kAggregate);
  const auto cell = [&](const std::vector<std::string>& row, const std::string& column) {
    const auto it = std::find(headers.begin(), headers.end(), column);
    EXPECT_NE(it, headers.end()) << column;
    return std::stod(row.at(static_cast<std::size_t>(it - headers.begin())));
  };
  bool saw_faulty_point = false;
  for (const auto& p : batch.points()) {
    const auto row = point_row(p);
    if (cell(row, "failures") > 0.0 || cell(row, "dead") > 0.0) {
      saw_faulty_point = true;
      EXPECT_GE(cell(row, "downtime_ms"), 0.0);
    }
  }
  EXPECT_TRUE(saw_faulty_point);
}

}  // namespace
}  // namespace spms::exp
