#include "exp/scenario_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/store/canonical.hpp"
#include "net/radio.hpp"

/// Registry-wide guarantees: the reference config is the paper's Table 1,
/// every scenario expands to a usable, duplicate-free job list (distinct
/// labels AND distinct store keys — the result cache depends on the
/// latter), each scenario's smallest grid point actually runs end to end
/// under a tight event budget, and --variant/--set narrow a scenario the
/// way the CLI relies on.

namespace spms::exp {
namespace {

TEST(ReferenceConfigTest, MatchesTable1) {
  const auto cfg = reference_config();
  // Poisson arrivals (exponential gaps) with a 1 ms mean.
  EXPECT_EQ(cfg.traffic.mean_interarrival, sim::Duration::ms(1.0));
  // Table 1 sends 10 packets per node; the reference config sends 2, and
  // --set traffic.packets_per_node=10 runs the paper's load.
  EXPECT_EQ(cfg.traffic.packets_per_node, 2);
  EXPECT_EQ(cfg.mac.num_slots, 20);
  EXPECT_EQ(cfg.mac.slot_time, sim::Duration::ms(0.1));
  EXPECT_EQ(cfg.mac.t_tx_per_byte, sim::Duration::ms(0.05));
  EXPECT_EQ(cfg.mac.t_proc, sim::Duration::ms(0.02));
  EXPECT_EQ(cfg.proto.adv_bytes, 2u);
  EXPECT_EQ(cfg.proto.req_bytes, 2u);
  EXPECT_EQ(cfg.proto.data_bytes, 40u);
  EXPECT_EQ(cfg.proto.tout_adv, sim::Duration::ms(1.0));
  EXPECT_EQ(cfg.proto.tout_dat, sim::Duration::ms(2.5));
  EXPECT_EQ(cfg.faults.crash.mean_time_between_failures, sim::Duration::ms(50.0));
  EXPECT_EQ(cfg.faults.crash.repair_min, sim::Duration::ms(5.0));
  EXPECT_EQ(cfg.faults.crash.repair_max, sim::Duration::ms(15.0));
  // The deployment behind Figs. 6, 8 and 10 (EXPERIMENTS.md "Calibration notes").
  EXPECT_EQ(cfg.grid_pitch_m, 5.0);
  EXPECT_EQ(cfg.zone_radius_m, 20.0);

  // The five MICA2 power levels, strongest first: (mW, range m).
  const std::pair<double, double> mica2[] = {
      {3.1622, 91.44}, {0.7943, 45.72}, {0.1995, 22.86}, {0.05, 11.28}, {0.0125, 5.48}};
  const auto radio = net::RadioTable::mica2();
  ASSERT_EQ(radio.num_levels(), std::size(mica2));
  for (std::size_t i = 0; i < radio.num_levels(); ++i) {
    EXPECT_DOUBLE_EQ(radio.level(i).power_mw, mica2[i].first) << "level " << i + 1;
    EXPECT_DOUBLE_EQ(radio.level(i).range_m, mica2[i].second) << "level " << i + 1;
  }
}

TEST(RegistryExpansionTest, EveryScenarioExpandsNonEmptyAndDuplicateFree) {
  for (const auto& info : scenario_registry()) {
    const auto jobs = info.make().expand();
    ASSERT_FALSE(jobs.empty()) << info.name;
    std::set<std::string> labels;
    std::set<std::string> keys;
    for (const auto& job : jobs) {
      labels.insert(job.config.label);
      keys.insert(store::config_key(job.config));
    }
    EXPECT_EQ(labels.size(), jobs.size()) << info.name << ": duplicate job labels";
    EXPECT_EQ(keys.size(), jobs.size())
        << info.name << ": duplicate config keys — the result store would collapse cells";
  }
}

TEST(RegistrySmokeTest, SmallestGridPointRunsUnderATightEventBudget) {
  for (const auto& info : scenario_registry()) {
    auto spec = info.make();
    // The runaway guard under test doubles as the budget that keeps this
    // sweep-of-sweeps fast: truncation is fine, crashing is not.
    spec.set("max_events", "150000");
    const auto jobs = spec.expand();
    const auto smallest = std::min_element(
        jobs.begin(), jobs.end(), [](const SweepJob& a, const SweepJob& b) {
          return std::tie(a.node_count, a.zone_radius_m) < std::tie(b.node_count, b.zone_radius_m);
        });
    ASSERT_NE(smallest, jobs.end()) << info.name;
    EXPECT_EQ(smallest->config.max_events, 150'000u) << info.name;
    const auto r = run_experiment(smallest->config);
    EXPECT_EQ(r.nodes, smallest->config.node_count) << info.name;
    EXPECT_GT(r.events_executed, 0u) << info.name;
    EXPECT_LE(r.events_executed, 150'000u) << info.name;
  }
}

TEST(RegistrySmokeTest, SettingsBeatVariants) {
  SweepSpec spec;
  spec.variants = {{"greedy", [](ExperimentConfig& c) { c.max_events = 77; }}};
  auto set = spec;
  set.set("max_events", "1234");
  const auto jobs = set.expand();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].config.max_events, 1234u);
  // And without the setting the variant's value stands.
  EXPECT_EQ(spec.expand()[0].config.max_events, 77u);
}

TEST(SweepSelectionTest, SetNarrowsEachSweptAxisEvenOffTheGrid) {
  SweepSpec spec;
  spec.name = "grid";
  spec.base.pattern = TrafficPattern::kCluster;
  spec.protocols = {ProtocolKind::kSpms, ProtocolKind::kSpin};
  spec.node_counts = {25, 49};
  spec.zone_radii = {10.0, 20.0};
  spec.variants = {{"a", nullptr}, {"b", nullptr}};
  spec.seeds = {1, 2};
  spec.set("protocol", "SPIN");
  spec.set("node_count", "4096");
  spec.set("zone_radius_m", "12.5");
  spec.set("seed", "7");
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 2u);  // only the variant axis is left
  for (const auto& job : jobs) {
    EXPECT_EQ(job.protocol, ProtocolKind::kSpin);
    EXPECT_EQ(job.config.protocol, ProtocolKind::kSpin);
    EXPECT_EQ(job.config.node_count, 4096u);
    EXPECT_EQ(job.config.zone_radius_m, 12.5);
    EXPECT_EQ(job.config.seed, 7u);
    EXPECT_EQ(job.config.pattern, TrafficPattern::kCluster);  // the base stays
  }
  EXPECT_EQ(jobs[1].config.label, "grid/SPIN/n4096/r12.5/b/s7");
}

TEST(SweepSelectionTest, NarrowedJobIsTheFullSweepsJobByteForByte) {
  auto full = find_scenario("faults-smoke")->make();
  full.use_consecutive_seeds(2);
  auto one = find_scenario("faults-smoke")->make();
  one.select_variant("link");
  one.set("protocol", "SPMS");
  one.set("seed", "2005");
  const auto narrowed = one.expand();
  ASSERT_EQ(narrowed.size(), 1u);
  const auto all = full.expand();
  const auto match = std::find_if(all.begin(), all.end(), [&](const SweepJob& j) {
    return j.config.label == narrowed[0].config.label;
  });
  ASSERT_NE(match, all.end()) << narrowed[0].config.label;
  EXPECT_EQ(store::canonical_config_json(match->config),
            store::canonical_config_json(narrowed[0].config));
}

TEST(SweepSelectionTest, SetRejectsLabelAndBadInputWithoutChangingTheSpec) {
  auto spec = find_scenario("smoke")->make();
  const auto before = spec.expand();
  EXPECT_THROW(spec.set("label", "mine"), std::invalid_argument);
  EXPECT_THROW(spec.set("no_such_key", "1"), std::invalid_argument);
  EXPECT_THROW(spec.set("node_count", "-1"), std::invalid_argument);
  EXPECT_THROW(spec.set("protocol", "spin"), std::invalid_argument);
  EXPECT_TRUE(spec.settings.empty());
  const auto after = spec.expand();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(store::canonical_config_json(after[i].config),
              store::canonical_config_json(before[i].config));
  }
}

TEST(SweepSelectionTest, SeedsCountFromASetSeed) {
  auto spec = find_scenario("smoke")->make();
  spec.set("seed", "40");
  spec.use_consecutive_seeds(3);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{40, 41, 42}));
  EXPECT_EQ(spec.job_count(), 6u);  // SPMS and SPIN x three seeds
}

TEST(SweepSelectionTest, SelectVariantKeepsOneAndNamesTheRestOnATypo) {
  auto spec = find_scenario("fig13")->make();
  try {
    spec.select_variant("failure");
    FAIL() << "an unknown variant was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("clean failures"), std::string::npos) << e.what();
  }
  spec.select_variant("failures");
  ASSERT_EQ(spec.variants.size(), 1u);
  EXPECT_EQ(spec.variants[0].name, "failures");
  EXPECT_EQ(spec.expand()[0].config.faults.crash.enabled, true);
  EXPECT_THROW(find_scenario("fig06")->make().select_variant("clean"), std::invalid_argument);
}

}  // namespace
}  // namespace spms::exp
