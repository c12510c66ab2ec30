#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>

#include "exp/table.hpp"

namespace spms::exp {
namespace {

ExperimentConfig small_config(ProtocolKind kind) {
  ExperimentConfig cfg;
  cfg.protocol = kind;
  cfg.node_count = 16;
  cfg.zone_radius_m = 12.0;
  cfg.traffic.packets_per_node = 1;
  cfg.seed = 5;
  return cfg;
}

TEST(RunnerTest, SpmsRunDeliversEverything) {
  const auto r = run_experiment(small_config(ProtocolKind::kSpms));
  EXPECT_EQ(r.protocol, "SPMS");
  EXPECT_EQ(r.nodes, 16u);
  EXPECT_EQ(r.items_published, 16u);
  EXPECT_EQ(r.expected_deliveries, 16u * 15u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 1.0);
  EXPECT_GT(r.mean_delay_ms, 0.0);
  EXPECT_GE(r.p95_delay_ms, r.mean_delay_ms * 0.1);
  EXPECT_GE(r.max_delay_ms, r.p95_delay_ms);
  EXPECT_GT(r.energy_per_item_uj, 0.0);
  EXPECT_GT(r.energy.routing_uj(), 0.0);  // DBF charged
  EXPECT_GT(r.protocol_energy_per_item_uj, 0.0);
  EXPECT_LT(r.protocol_energy_per_item_uj, r.energy_per_item_uj);
  EXPECT_FALSE(r.event_limit_hit);
  EXPECT_EQ(r.given_up, 0u);
  EXPECT_GT(r.dbf_total.rounds, 0u);
}

TEST(RunnerTest, SpinRunHasNoRoutingCost) {
  const auto r = run_experiment(small_config(ProtocolKind::kSpin));
  EXPECT_EQ(r.protocol, "SPIN");
  EXPECT_DOUBLE_EQ(r.energy.routing_uj(), 0.0);
  EXPECT_DOUBLE_EQ(r.energy_per_item_uj, r.protocol_energy_per_item_uj);
  EXPECT_EQ(r.dbf_total.rounds, 0u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 1.0);
}

TEST(RunnerTest, RunsAreDeterministic) {
  const auto cfg = small_config(ProtocolKind::kSpms);
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(a.mean_delay_ms, b.mean_delay_ms);
  EXPECT_DOUBLE_EQ(a.energy_per_item_uj, b.energy_per_item_uj);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.net_counters.tx_total(), b.net_counters.tx_total());
}

TEST(RunnerTest, SeedsChangeTheRun) {
  auto cfg = small_config(ProtocolKind::kSpms);
  const auto a = run_experiment(cfg);
  cfg.seed = 6;
  const auto b = run_experiment(cfg);
  EXPECT_NE(a.mean_delay_ms, b.mean_delay_ms);
}

TEST(RunnerTest, ClusterPatternRuns) {
  auto cfg = small_config(ProtocolKind::kSpms);
  cfg.pattern = TrafficPattern::kCluster;
  const auto r = run_experiment(cfg);
  // Cluster traffic wants far fewer deliveries than all-to-all.
  EXPECT_LT(r.expected_deliveries, 16u * 15u);
  EXPECT_GT(r.expected_deliveries, 0u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 1.0);
}

TEST(RunnerTest, MobilityWithClusterThrows) {
  auto cfg = small_config(ProtocolKind::kSpms);
  cfg.pattern = TrafficPattern::kCluster;
  cfg.mobility = true;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(RunnerTest, SamplerIntervalMustBeFiniteAndAtLeastOneNanosecond) {
  // The sampler steps its due instant by the interval until it passes the
  // clock; a 0 ns interval (1e-7 ms rounds there) or the unspecified
  // llround of inf never got past it, so such runs hung instead of failing.
  const auto cfg = small_config(ProtocolKind::kSpms);
  for (const double every_ms : {std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(), 1e-7, 1e300}) {
    TelemetryOptions t;
    t.sample_every_ms = every_ms;
    EXPECT_THROW(static_cast<void>(run_experiment(cfg, t)), std::invalid_argument) << every_ms;
  }
  TelemetryOptions one_ns;
  one_ns.sample_every_ms = 1e-6;
  EXPECT_GT(run_experiment(cfg, one_ns).series.samples(), 1u);
}

TEST(RunnerTest, FailureRunReportsInjections) {
  auto cfg = small_config(ProtocolKind::kSpms);
  cfg.faults.crash.enabled = true;
  cfg.activity_horizon = sim::Duration::ms(200);
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.fault_stats.node_downs, 0u);
  EXPECT_GT(r.fault_stats.total_downtime_ms, 0.0);
  EXPECT_GT(r.delivery_ratio, 0.5);
}

TEST(RunnerTest, MobilityRunReportsEpochsAndDbfCost) {
  auto cfg = small_config(ProtocolKind::kSpms);
  cfg.mobility = true;
  cfg.mobility_params.epoch_interval = sim::Duration::ms(30);
  cfg.activity_horizon = sim::Duration::ms(100);
  const auto r = run_experiment(cfg);
  EXPECT_GE(r.mobility_epochs, 3u);
  // Rebuilds accumulate routing energy beyond the initial build.
  const auto base = run_experiment(small_config(ProtocolKind::kSpms));
  EXPECT_GT(r.energy.routing_uj(), base.energy.routing_uj());
}

TEST(TableTest, AlignedOutput) {
  Table t({"col", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "2.5"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("col"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, JsonOutputQuotesOnlyValidJsonNumbers) {
  Table t({"a", "b"});
  // Left cells are valid bare JSON numbers; right cells look numeric to
  // strtod but are not valid JSON and must stay quoted.
  t.add_row({"-1.25e3", "nan"});
  t.add_row({"0.5", "+1"});
  t.add_row({"0", "0123"});
  t.add_row({"12", "1."});
  t.add_row({"3e8", ".5"});
  std::ostringstream os;
  t.print_json(os);
  const auto s = os.str();
  EXPECT_NE(s.find("\"a\": -1.25e3,"), std::string::npos);
  EXPECT_NE(s.find("\"a\": 0.5,"), std::string::npos);
  EXPECT_NE(s.find("\"a\": 0,"), std::string::npos);
  EXPECT_NE(s.find("\"b\": \"nan\""), std::string::npos);
  EXPECT_NE(s.find("\"b\": \"+1\""), std::string::npos);
  EXPECT_NE(s.find("\"b\": \"0123\""), std::string::npos);
  EXPECT_NE(s.find("\"b\": \"1.\""), std::string::npos);
  EXPECT_NE(s.find("\"b\": \".5\""), std::string::npos);
  // Escaping: quotes and backslashes survive round-trippably.
  Table t2({"k"});
  t2.add_row({"say \"hi\"\\now"});
  std::ostringstream os2;
  t2.print_json(os2);
  EXPECT_NE(os2.str().find("\"say \\\"hi\\\"\\\\now\""), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
}

TEST(TableTest, FormattingHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_pct(0.345), "34.5%");
}

}  // namespace
}  // namespace spms::exp
