#pragma once

#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "stats/aggregate.hpp"

/// \file aggregate.hpp
/// Cross-seed dispersion statistics of a RunResult population: the one way
/// every sweep and the CLI condense the runs of one experiment point.
/// AggregateResult keeps mean / stddev / stderr / min / max per metric so
/// figures can carry error bars, as the multi-seed methodology of the
/// related evaluations requires.

namespace spms::exp {

/// Per-metric statistics across the runs of one experiment point.
/// Identity fields are copied from the first run (all runs of a point share
/// them by construction).
struct AggregateResult {
  std::string protocol;
  std::string label;
  std::size_t nodes = 0;
  double zone_radius_m = 0.0;
  std::size_t runs = 0;

  stats::Aggregate delivery_ratio;
  stats::Aggregate mean_delay_ms;
  stats::Aggregate p95_delay_ms;
  stats::Aggregate energy_per_item_uj;
  stats::Aggregate protocol_energy_per_item_uj;
  stats::Aggregate routing_energy_uj;
  stats::Aggregate tx_frames;  ///< frames sent, every type (NetCounters::tx_total)
  stats::Aggregate mobility_epochs;
  stats::Aggregate given_up;
  stats::Aggregate unknown_item_deliveries;

  // Fault-campaign recovery metrics (all zero-mean without faults).
  stats::Aggregate fault_node_downs;
  stats::Aggregate fault_downtime_ms;
  stats::Aggregate fault_recovery_latency_ms;
  stats::Aggregate fault_permanent_deaths;
  stats::Aggregate fault_outage_deliveries;

  // Network-lifetime metrics (finite-battery runs; the -1 "never happened"
  // sentinel of FaultStats flows through, so means are only meaningful when
  // every seed of the point reached the milestone).
  stats::Aggregate time_to_first_death_ms;
  stats::Aggregate time_to_10pct_dead_ms;
  stats::Aggregate half_life_ms;
  stats::Aggregate residual_mean_uj;
  stats::Aggregate residual_stddev_uj;
  stats::Aggregate residual_gini;
};

/// Computes per-metric statistics across `runs` (typically one per seed).
/// Throws std::invalid_argument on an empty population.
[[nodiscard]] AggregateResult aggregate(const std::vector<RunResult>& runs);

}  // namespace spms::exp
