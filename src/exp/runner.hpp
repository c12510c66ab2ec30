#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/config.hpp"
#include "exp/scenario.hpp"
#include "exp/telemetry.hpp"
#include "faults/observer.hpp"
#include "net/energy.hpp"
#include "net/network.hpp"
#include "obs/series.hpp"
#include "routing/bellman_ford.hpp"

/// \file runner.hpp
/// Executes experiments and condenses each run into the numbers the paper's
/// tables and figures report.

namespace spms::exp {

/// Aggregated outcome of one run.
struct RunResult {
  std::string protocol;
  std::string label;
  std::size_t nodes = 0;
  double zone_radius_m = 0.0;

  // Workload / delivery.
  std::size_t items_published = 0;
  std::size_t expected_deliveries = 0;
  std::size_t deliveries = 0;
  double delivery_ratio = 0.0;

  // Delay (ms): the paper's metric — ADV sent at the source to DATA at the
  // destination, averaged over all deliveries.
  double mean_delay_ms = 0.0;
  double p95_delay_ms = 0.0;
  double max_delay_ms = 0.0;

  // Energy (uJ = mW*ms).
  net::EnergyBreakdown energy;
  double energy_per_item_uj = 0.0;           ///< total (incl. routing) / items
  double protocol_energy_per_item_uj = 0.0;  ///< dissemination traffic only

  /// Residual-charge statistics of the finite-battery fleet at the end of
  /// the run (all zeros with the default infinite battery).  Together with
  /// fault_stats' time-to-first-death / half-life these are the
  /// network-lifetime metrics of the lifetime-* scenarios.
  net::BatterySummary battery;

  // Diagnostics.
  net::NetCounters net_counters;
  routing::DbfStats dbf_total;   ///< zeros for protocols without routing
  /// Recovery metrics of the run's FaultPlan (all zeros without faults).
  faults::FaultStats fault_stats;
  std::uint64_t mobility_epochs = 0;
  std::uint64_t given_up = 0;
  /// Deliveries of items the collector never saw published.  Always zero for
  /// a healthy protocol; serialized (schema v4) so a regression shows up in
  /// stored results instead of vanishing into a private counter.
  std::uint64_t unknown_item_deliveries = 0;
  double sim_time_ms = 0.0;
  std::size_t events_executed = 0;
  bool event_limit_hit = false;

  /// Gauge time series sampled by an attached TelemetrySession (empty
  /// without one).  In-memory only — never serialized to the result store,
  /// so cached and fresh results stay byte-identical whatever the telemetry
  /// options were.
  obs::SeriesSet series;

  /// Causal span assembly of the run (nullptr unless the session's
  /// span_assembly() was on).  In-memory only, like `series`.
  std::shared_ptr<const obs::SpanTrace> spans;

  /// Final counter/histogram values (empty unless telemetry.metrics was
  /// on).  In-memory only, like `series`.
  obs::MetricsSnapshot metrics;

  /// Per-node total energy spend (uJ), indexed by node id — the raw input
  /// to relay energy attribution (analysis::build_trace_report).  Filled
  /// only when `spans` is: without an assembly there is nothing to
  /// attribute.  In-memory only, like `series`.
  std::vector<double> node_energy_uj;
};

/// The one list of stored result fields, the result-side twin of
/// visit_fields: calls `f(key, field)` for every field of `r` (const or not)
/// that the result store keeps, under its store key, in stored order.  The
/// store writes and reads results by walking it (store::result_to_json,
/// store::result_from_json); the in-memory telemetry members (`series`,
/// `spans`, `metrics`, `node_energy_uj`) are not on it.
template <class Result, class Fn>
void visit_result_fields(Result& r, Fn&& f) {
  f("protocol", r.protocol);
  f("label", r.label);
  f("nodes", r.nodes);
  f("zone_radius_m", r.zone_radius_m);
  f("items_published", r.items_published);
  f("expected_deliveries", r.expected_deliveries);
  f("deliveries", r.deliveries);
  f("delivery_ratio", r.delivery_ratio);
  f("mean_delay_ms", r.mean_delay_ms);
  f("p95_delay_ms", r.p95_delay_ms);
  f("max_delay_ms", r.max_delay_ms);
  f("energy.protocol_tx_uj", r.energy.protocol_tx_uj);
  f("energy.protocol_rx_uj", r.energy.protocol_rx_uj);
  f("energy.routing_tx_uj", r.energy.routing_tx_uj);
  f("energy.routing_rx_uj", r.energy.routing_rx_uj);
  f("energy.idle_uj", r.energy.idle_uj);
  f("energy_per_item_uj", r.energy_per_item_uj);
  f("protocol_energy_per_item_uj", r.protocol_energy_per_item_uj);
  f("battery.depleted_nodes", r.battery.depleted_nodes);
  f("battery.initial_total_uj", r.battery.initial_total_uj);
  f("battery.spent_total_uj", r.battery.spent_total_uj);
  f("battery.residual_mean_uj", r.battery.residual_mean_uj);
  f("battery.residual_stddev_uj", r.battery.residual_stddev_uj);
  f("battery.residual_min_uj", r.battery.residual_min_uj);
  f("battery.residual_gini", r.battery.residual_gini);
  net::visit_counters(r.net_counters, f);
  f("dbf.rounds", r.dbf_total.rounds);
  f("dbf.messages", r.dbf_total.messages);
  f("dbf.message_bytes", r.dbf_total.message_bytes);
  f("dbf.energy_uj", r.dbf_total.energy_uj);
  f("dbf.converged", r.dbf_total.converged);
  f("faults.events", r.fault_stats.fault_events);
  f("faults.node_downs", r.fault_stats.node_downs);
  f("faults.node_repairs", r.fault_stats.node_repairs);
  f("faults.permanent_deaths", r.fault_stats.permanent_deaths);
  f("faults.max_concurrent_down", r.fault_stats.max_concurrent_down);
  f("faults.total_downtime_ms", r.fault_stats.total_downtime_ms);
  f("faults.outage_time_ms", r.fault_stats.outage_time_ms);
  f("faults.outage_deliveries", r.fault_stats.deliveries_during_outage);
  f("faults.recoveries_sampled", r.fault_stats.recoveries_sampled);
  f("faults.mean_recovery_latency_ms", r.fault_stats.mean_recovery_latency_ms);
  f("faults.repairs_unrecovered", r.fault_stats.repairs_unrecovered);
  f("faults.time_to_first_death_ms", r.fault_stats.time_to_first_death_ms);
  f("faults.time_to_10pct_dead_ms", r.fault_stats.time_to_10pct_dead_ms);
  f("faults.half_life_ms", r.fault_stats.half_life_ms);
  f("mobility_epochs", r.mobility_epochs);
  f("given_up", r.given_up);
  f("unknown_item_deliveries", r.unknown_item_deliveries);
  f("sim_time_ms", r.sim_time_ms);
  f("events_executed", r.events_executed);
  f("event_limit_hit", r.event_limit_hit);
}

/// Builds, runs and summarizes one experiment.
[[nodiscard]] RunResult run_experiment(const ExperimentConfig& config);

/// Same run with telemetry attached for its duration.  Telemetry observes
/// without perturbing — the event stream, and with it every serialized field
/// of the result, is byte-identical to the plain overload; only the
/// in-memory `series` and any requested output files are added.
[[nodiscard]] RunResult run_experiment(const ExperimentConfig& config,
                                       const TelemetryOptions& telemetry);

}  // namespace spms::exp
