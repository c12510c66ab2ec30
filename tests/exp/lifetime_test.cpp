#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "exp/batch.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/store/canonical.hpp"
#include "exp/store/result_store.hpp"

/// Lifetime-family invariants at the experiment layer: energy-driven deaths
/// actually fire (the ISSUE 4 acceptance pin), network-wide energy is
/// conserved to floating-point rounding, lifetime metrics flow through RunResult into the
/// canonical store and back bit-exactly, runs are byte-identical at any
/// worker count, and battery configuration can never perturb another fault
/// model's RNG timeline.

namespace spms::exp {
namespace {

/// The lifetime-smoke base cell: small, fast, and lethal to a few nodes.
ExperimentConfig smoke_config() {
  auto spec = find_scenario("lifetime-smoke")->make();
  const auto jobs = spec.expand();
  return jobs.front().config;  // SPMS cell
}

TEST(LifetimeScenarioTest, LifetimeFamilyIsRegistered) {
  for (const char* name :
       {"lifetime-capacity", "lifetime-hetero", "lifetime-race", "lifetime-smoke"}) {
    const auto* info = find_scenario(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_GT(info->make().job_count(), 0u) << name;
  }
  // The race covers all three protocols on one finite budget.
  const auto race = find_scenario("lifetime-race")->make();
  std::set<ProtocolKind> protos(race.protocols.begin(), race.protocols.end());
  EXPECT_EQ(protos.size(), 3u);
  EXPECT_TRUE(race.base.battery.finite);
}

TEST(LifetimeScenarioTest, EnergyDrivenDeathsFireAndSurfaceEverywhere) {
  // Acceptance pin: with a finite budget, nodes die of *depletion* — the
  // deaths show up in the fault observer's permanent-death count, in the
  // lifetime metrics, and in the battery summary, and they are energy-driven
  // (the depleted-node count matches the death count).
  const auto r = run_experiment(smoke_config());
  EXPECT_GT(r.fault_stats.permanent_deaths, 0u);
  EXPECT_EQ(r.fault_stats.permanent_deaths, r.battery.depleted_nodes);
  EXPECT_GT(r.fault_stats.time_to_first_death_ms, 0.0);
  EXPECT_GE(r.fault_stats.time_to_10pct_dead_ms, r.fault_stats.time_to_first_death_ms);
  EXPECT_GT(r.battery.initial_total_uj, 0.0);
  EXPECT_GT(r.battery.spent_total_uj, 0.0);
  EXPECT_GE(r.battery.residual_gini, 0.0);
  EXPECT_LE(r.battery.residual_gini, 1.0);
  // The run is degraded but alive: deaths did not take delivery to zero.
  EXPECT_GT(r.delivery_ratio, 0.0);
  // And the metrics serialize: the canonical JSON carries the lifetime block.
  const auto json = store::result_to_json(r);
  EXPECT_NE(json.find("faults.time_to_first_death_ms"), std::string::npos);
  EXPECT_NE(json.find("battery.residual_gini"), std::string::npos);
}

TEST(LifetimeScenarioTest, NetworkWideEnergyConservationIsExact) {
  // Sum of per-node spend + residual equals the fleet's initial charge,
  // to floating-point rounding: clamped spending can lose at most
  // accumulation error, never energy.
  auto cfg = smoke_config();
  Scenario s{cfg};
  s.start();
  s.run();
  double initial = 0.0;
  double spent = 0.0;
  double residual = 0.0;
  for (std::uint32_t i = 0; i < s.network().size(); ++i) {
    const auto& b = s.network().battery(net::NodeId{i});
    EXPECT_NEAR(b.spent_uj() + b.remaining_uj(), b.initial_charge_uj(),
                1e-9 * b.initial_charge_uj())
        << i;
    initial += b.initial_charge_uj();
    spent += b.spent_uj();
    residual += b.remaining_uj();
  }
  EXPECT_NEAR(spent + residual, initial, 1e-9 * initial);
  // The breakdown's idle bucket matches the batteries' idle spend, and the
  // summary agrees with the hand-computed totals.
  const auto summary = s.network().battery_summary();
  EXPECT_DOUBLE_EQ(summary.initial_total_uj, initial);
  EXPECT_DOUBLE_EQ(summary.spent_total_uj, spent);
  EXPECT_GT(s.network().energy().idle_uj, 0.0);
}

TEST(LifetimeScenarioTest, LifetimeSmokeIsBitIdenticalAtAnyWorkerCount) {
  auto spec = find_scenario("lifetime-smoke")->make();
  spec.seeds = {2004, 2005};
  BatchOptions serial;
  serial.jobs = 1;
  BatchOptions parallel;
  parallel.jobs = 8;
  const auto a = BatchRunner{serial}.run(spec);
  const auto b = BatchRunner{parallel}.run(spec);
  ASSERT_EQ(a.runs().size(), b.runs().size());
  ASSERT_EQ(a.runs().size(), spec.job_count());
  bool saw_death = false;
  for (std::size_t i = 0; i < a.runs().size(); ++i) {
    EXPECT_EQ(store::result_to_json(a.runs()[i]), store::result_to_json(b.runs()[i]))
        << a.runs()[i].label;
    if (a.runs()[i].fault_stats.permanent_deaths > 0) saw_death = true;
  }
  EXPECT_TRUE(saw_death);
}

TEST(LifetimeScenarioTest, WarmStoreRerunIsByteIdenticalWithZeroExecutions) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path{::testing::TempDir()} / "spms_lifetime_store";
  fs::remove_all(dir);
  auto spec = find_scenario("lifetime-smoke")->make();
  spec.seeds = {2004};
  store::ResultStore store{dir};
  BatchOptions opts;
  opts.jobs = 2;
  opts.store = &store;
  const auto cold = BatchRunner{opts}.run(spec);
  EXPECT_EQ(cold.cached(), 0u);
  const auto warm = BatchRunner{opts}.run(spec);
  EXPECT_EQ(warm.executed(), 0u);
  ASSERT_EQ(cold.runs().size(), warm.runs().size());
  for (std::size_t i = 0; i < cold.runs().size(); ++i) {
    EXPECT_EQ(store::result_to_json(cold.runs()[i]), store::result_to_json(warm.runs()[i]));
  }
  fs::remove_all(dir);
}

TEST(LifetimeScenarioTest, BatteryConfigNeverPerturbsOtherModelsTimelines) {
  // Stream discipline: battery deaths draw nothing and the initial charges
  // come from a dedicated fork, so switching the whole battery subsystem on
  // cannot move a single crash/region event.
  auto base = smoke_config();
  base.faults.crash.enabled = true;
  base.faults.crash.mean_time_between_failures = sim::Duration::ms(200.0);
  base.faults.region.enabled = true;
  base.faults.region.mean_time_between_outages = sim::Duration::ms(250.0);

  const auto event_times = [](const ExperimentConfig& cfg, std::string_view model) {
    Scenario s{cfg};
    s.start();
    s.run();
    std::vector<double> times;
    for (const auto& e : s.faults()->observer().events()) {
      if (e.model == model) times.push_back(e.at.to_ms());
    }
    return times;
  };

  auto without_battery = base;
  without_battery.battery = net::BatteryParams{};  // infinite again

  ASSERT_FALSE(event_times(base, "crash").empty());
  EXPECT_EQ(event_times(base, "crash"), event_times(without_battery, "crash"));
  EXPECT_EQ(event_times(base, "region"), event_times(without_battery, "region"));
}

}  // namespace
}  // namespace spms::exp
