#include "exp/runner.hpp"

namespace spms::exp {

RunResult run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, TelemetryOptions{});
}

RunResult run_experiment(const ExperimentConfig& config, const TelemetryOptions& telemetry) {
  Scenario s{config};
  // Attached before start() so the very first event is observed; inert (and
  // cost-free on the hot path) when every option is off.
  TelemetrySession session{s, telemetry};
  s.start();
  const std::size_t events = s.run();

  RunResult r;
  r.protocol = std::string{s.protocol().name()};
  r.label = config.label;
  r.nodes = s.network().size();
  r.zone_radius_m = config.zone_radius_m;

  auto& col = s.collector();
  r.items_published = col.published();
  r.expected_deliveries = col.expected_deliveries();
  r.deliveries = col.deliveries();
  r.delivery_ratio = col.delivery_ratio();
  r.unknown_item_deliveries = col.unknown_item_deliveries();
  r.mean_delay_ms = col.delay_ms().mean();
  r.max_delay_ms = col.delay_ms().max();
  // Guarded: quantile() over an empty sample is NaN by contract, and a run
  // with zero deliveries (e.g. everything dead) must still serialize.
  r.p95_delay_ms = col.delay_percentiles().count() > 0 ? col.delay_percentiles().p95() : 0.0;

  r.energy = s.network().energy();
  r.battery = s.network().battery_summary();
  if (r.items_published > 0) {
    r.energy_per_item_uj = r.energy.total_uj() / static_cast<double>(r.items_published);
    r.protocol_energy_per_item_uj =
        r.energy.protocol_uj() / static_cast<double>(r.items_published);
  }

  r.net_counters = s.network().counters();
  if (s.routing() != nullptr) r.dbf_total = s.routing()->total_stats();
  if (s.faults() != nullptr) {
    s.faults()->finalize();  // close open downtime / outage intervals
    r.fault_stats = s.faults()->stats();
  }
  if (s.mobility() != nullptr) r.mobility_epochs = s.mobility()->epochs();
  r.given_up = s.protocol().given_up();
  r.sim_time_ms = s.simulation().now().to_ms();
  r.events_executed = events;
  r.event_limit_hit = s.simulation().scheduler().event_limit_hit();
  if (session.spans() != nullptr) {
    // Captured while the Scenario is still alive; the span assembly's relay
    // attribution needs per-node spend after the network itself is gone.
    r.node_energy_uj.reserve(s.network().size());
    for (std::size_t i = 0; i < s.network().size(); ++i) {
      r.node_energy_uj.push_back(
          s.network().node_energy_uj(net::NodeId{static_cast<std::uint32_t>(i)}));
    }
  }
  session.finish(r);  // moves the sampled series in, writes output files
  return r;
}

}  // namespace spms::exp
