#include "exp/runner.hpp"

#include <stdexcept>

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
    r.failures_injected = r.fault_stats.node_downs;
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

std::vector<RunResult> run_seeds(ExperimentConfig config, const std::vector<std::uint64_t>& seeds) {
  std::vector<RunResult> out;
  out.reserve(seeds.size());
  for (const auto seed : seeds) {
    config.seed = seed;
    out.push_back(run_experiment(config));
  }
  return out;
}

RunResult average(const std::vector<RunResult>& runs) {
  if (runs.empty()) throw std::invalid_argument{"average: no runs"};
  RunResult avg = runs.front();
  const auto n = static_cast<double>(runs.size());
  double delivery = 0, mean_delay = 0, p95 = 0, max_delay = 0, e_item = 0, pe_item = 0;
  net::EnergyBreakdown energy;
  std::uint64_t given_up = 0, failures = 0, unknown = 0;
  for (const auto& r : runs) {
    delivery += r.delivery_ratio;
    mean_delay += r.mean_delay_ms;
    p95 += r.p95_delay_ms;
    max_delay += r.max_delay_ms;
    e_item += r.energy_per_item_uj;
    pe_item += r.protocol_energy_per_item_uj;
    energy.protocol_tx_uj += r.energy.protocol_tx_uj;
    energy.protocol_rx_uj += r.energy.protocol_rx_uj;
    energy.routing_tx_uj += r.energy.routing_tx_uj;
    energy.routing_rx_uj += r.energy.routing_rx_uj;
    given_up += r.given_up;
    failures += r.failures_injected;
    unknown += r.unknown_item_deliveries;
  }
  avg.delivery_ratio = delivery / n;
  avg.mean_delay_ms = mean_delay / n;
  avg.p95_delay_ms = p95 / n;
  avg.max_delay_ms = max_delay / n;
  avg.energy_per_item_uj = e_item / n;
  avg.protocol_energy_per_item_uj = pe_item / n;
  avg.energy.protocol_tx_uj = energy.protocol_tx_uj / n;
  avg.energy.protocol_rx_uj = energy.protocol_rx_uj / n;
  avg.energy.routing_tx_uj = energy.routing_tx_uj / n;
  avg.energy.routing_rx_uj = energy.routing_rx_uj / n;
  avg.given_up = given_up;
  avg.failures_injected = failures;
  avg.unknown_item_deliveries = unknown;
  return avg;
}

}  // namespace spms::exp
