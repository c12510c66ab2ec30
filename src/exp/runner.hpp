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
  /// Node-level crash transitions (== fault_stats.node_downs; kept as the
  /// legacy headline metric).
  std::uint64_t failures_injected = 0;
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

/// Builds, runs and summarizes one experiment.
[[nodiscard]] RunResult run_experiment(const ExperimentConfig& config);

/// Same run with telemetry attached for its duration.  Telemetry observes
/// without perturbing — the event stream, and with it every serialized field
/// of the result, is byte-identical to the plain overload; only the
/// in-memory `series` and any requested output files are added.
[[nodiscard]] RunResult run_experiment(const ExperimentConfig& config,
                                       const TelemetryOptions& telemetry);

}  // namespace spms::exp
