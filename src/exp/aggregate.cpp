#include "exp/aggregate.hpp"

#include <stdexcept>

#include "stats/summary.hpp"

namespace spms::exp {

namespace {

template <typename Get>
stats::Aggregate over(const std::vector<RunResult>& runs, Get get) {
  stats::Summary s;
  for (const auto& r : runs) s.add(static_cast<double>(get(r)));
  return stats::Aggregate::of(s);
}

}  // namespace

AggregateResult aggregate(const std::vector<RunResult>& runs) {
  if (runs.empty()) throw std::invalid_argument{"aggregate: no runs"};
  AggregateResult a;
  a.protocol = runs.front().protocol;
  a.label = runs.front().label;
  a.nodes = runs.front().nodes;
  a.zone_radius_m = runs.front().zone_radius_m;
  a.runs = runs.size();

  a.delivery_ratio = over(runs, [](const RunResult& r) { return r.delivery_ratio; });
  a.mean_delay_ms = over(runs, [](const RunResult& r) { return r.mean_delay_ms; });
  a.p95_delay_ms = over(runs, [](const RunResult& r) { return r.p95_delay_ms; });
  a.energy_per_item_uj = over(runs, [](const RunResult& r) { return r.energy_per_item_uj; });
  a.protocol_energy_per_item_uj =
      over(runs, [](const RunResult& r) { return r.protocol_energy_per_item_uj; });
  a.routing_energy_uj = over(runs, [](const RunResult& r) { return r.energy.routing_uj(); });
  a.tx_frames = over(runs, [](const RunResult& r) { return r.net_counters.tx_total(); });
  a.mobility_epochs = over(runs, [](const RunResult& r) { return r.mobility_epochs; });
  a.given_up = over(runs, [](const RunResult& r) { return r.given_up; });
  a.unknown_item_deliveries =
      over(runs, [](const RunResult& r) { return r.unknown_item_deliveries; });
  a.fault_node_downs = over(runs, [](const RunResult& r) { return r.fault_stats.node_downs; });
  a.fault_downtime_ms =
      over(runs, [](const RunResult& r) { return r.fault_stats.total_downtime_ms; });
  a.fault_recovery_latency_ms =
      over(runs, [](const RunResult& r) { return r.fault_stats.mean_recovery_latency_ms; });
  a.fault_permanent_deaths =
      over(runs, [](const RunResult& r) { return r.fault_stats.permanent_deaths; });
  a.fault_outage_deliveries =
      over(runs, [](const RunResult& r) { return r.fault_stats.deliveries_during_outage; });
  a.time_to_first_death_ms =
      over(runs, [](const RunResult& r) { return r.fault_stats.time_to_first_death_ms; });
  a.time_to_10pct_dead_ms =
      over(runs, [](const RunResult& r) { return r.fault_stats.time_to_10pct_dead_ms; });
  a.half_life_ms = over(runs, [](const RunResult& r) { return r.fault_stats.half_life_ms; });
  a.residual_mean_uj =
      over(runs, [](const RunResult& r) { return r.battery.residual_mean_uj; });
  a.residual_stddev_uj =
      over(runs, [](const RunResult& r) { return r.battery.residual_stddev_uj; });
  a.residual_gini = over(runs, [](const RunResult& r) { return r.battery.residual_gini; });
  return a;
}

}  // namespace spms::exp
