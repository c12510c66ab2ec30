#include "exp/columns.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

/// The aggregate table's cells: each column reads its own RunResult value,
/// folds it and prints it with its own decimals.  The goldens pin the same
/// cells on real runs; this point gives every column a value no other
/// column holds.

namespace spms::exp {
namespace {

using Row = std::vector<std::string>;

TEST(AggregateTest, MatchesHandComputedStatistics) {
  // Three synthetic runs.  Every field a column reads holds its own base
  // plus 2, 4 or 9 (so the delays are 2, 4, 9 and the protocol energies
  // 404, 408, 418), and the means all differ: a column that reads the
  // wrong field, or prints the wrong decimals, fails below.
  PointResult p;
  p.runs.resize(3);
  const std::uint64_t steps[] = {2, 4, 9};
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    auto& r = p.runs[i];
    const std::uint64_t n = steps[i];
    const auto d = static_cast<double>(n);
    r.protocol = "SPMS";
    r.nodes = 16;
    r.zone_radius_m = 12.5;
    r.delivery_ratio = 100 + d;
    r.mean_delay_ms = d;
    r.p95_delay_ms = 200 + d;
    r.max_delay_ms = 250 + d;
    r.energy_per_item_uj = 300 + d;
    r.protocol_energy_per_item_uj = 400 + 2 * d;
    r.energy.routing_tx_uj = 500 + d;
    r.energy.routing_rx_uj = 550 + d;
    r.net_counters.tx_adv = 600 + n;
    r.net_counters.tx_req = 610 + n;
    r.net_counters.tx_data = 620 + n;
    r.net_counters.tx_route = 630 + n;
    r.mobility_epochs = 700 + n;
    r.given_up = 800 + n;
    r.unknown_item_deliveries = 900 + n;
    r.fault_stats.node_downs = 1000 + n;
    r.fault_stats.total_downtime_ms = 1100 + d;
    r.fault_stats.mean_recovery_latency_ms = 1200 + d;
    r.fault_stats.permanent_deaths = 1300 + n;
    r.fault_stats.deliveries_during_outage = 1400 + n;
    r.fault_stats.time_to_first_death_ms = 1500 + d;
    r.fault_stats.time_to_10pct_dead_ms = 1600 + d;
    r.fault_stats.half_life_ms = 1700 + d;
    r.battery.residual_mean_uj = 1800 + d;
    r.battery.residual_stddev_uj = 1900 + d;
    r.battery.residual_gini = 2000 + d;
    r.events_executed = 2100 + n;
  }
  // Sample variance of the delays: ((2-5)^2 + (4-5)^2 + (9-5)^2) / 2 = 13,
  // so delay_sd is sqrt(13) and energy_sd twice that.
  const Row expected = {
      "SPMS", "16", "12.5", "-", "3",
      "105.0000",    // delivery
      "5.000",       // mean_delay_ms
      "3.606",       // delay_sd
      "205.000",     // p95_delay_ms
      "410.000000",  // uj_per_pkt_proto
      "7.211103",    // energy_sd
      "305.000000",  // uj_per_pkt_total
      "1060.000",    // routing_uj: tx + rx
      "2480.0",      // frames: ADV + REQ + DATA + route
      "705.0",       // epochs
      "1005.0",      // failures
      "1105.000",    // downtime_ms
      "1405.0",      // outage_dlv
      "1205.000",    // recovery_ms
      "1305.0",      // dead
      "1505.000",    // first_death_ms
      "1605.000",    // t10pct_ms
      "1705.000",    // half_life_ms
      "1805.000",    // res_mean_uj
      "1905.000",    // res_sd_uj
      "2005.0000",   // res_gini
      "805.0",       // given_up
  };
  EXPECT_EQ(point_row(p), expected);
  EXPECT_EQ(table_headers(TableKind::kAggregate).size(), expected.size());
  EXPECT_THROW((void)point_row(PointResult{}), std::invalid_argument);
}

}  // namespace
}  // namespace spms::exp
