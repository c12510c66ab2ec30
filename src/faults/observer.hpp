#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/ids.hpp"
#include "sim/time.hpp"

/// \file observer.hpp
/// Recovery-metric bookkeeping for fault campaigns.
///
/// The observer watches node up/down transitions (reported by the
/// FaultController), process-level fault events, and protocol deliveries,
/// and condenses them into the FaultStats block that RunResult carries:
/// downtime, outage-window delivery counts, and post-repair recovery
/// latency (time from a node's repair to its next successful delivery).

namespace spms::faults {

/// Aggregate fault/recovery metrics of one run.  Serialized into the
/// canonical result JSON, so fault campaigns resume from the store like any
/// other sweep.
struct FaultStats {
  /// Process-level fault events initiated (one region blackout = one event,
  /// one battery death = one event).  Link-fade drops are not events — they
  /// are per-reception and counted in NetCounters::dropped_link_fault.
  std::uint64_t fault_events = 0;
  /// Node-level up->down transitions (a blackout over k nodes counts k).
  std::uint64_t node_downs = 0;
  /// Node-level down->up transitions.
  std::uint64_t node_repairs = 0;
  /// Nodes that died permanently (battery depletion).
  std::uint64_t permanent_deaths = 0;
  /// Peak number of simultaneously-down nodes.
  std::uint64_t max_concurrent_down = 0;
  /// Sum over nodes of time spent down (node-milliseconds).
  double total_downtime_ms = 0.0;
  /// Wall-clock time with at least one node down (union of outage windows).
  double outage_time_ms = 0.0;
  /// Protocol deliveries that completed while at least one node was down.
  std::uint64_t deliveries_during_outage = 0;
  /// Repairs whose node received at least one delivery afterwards.
  std::uint64_t recoveries_sampled = 0;
  /// Mean time from a repair to that node's next delivery (over sampled
  /// recoveries; zero when none were sampled).
  double mean_recovery_latency_ms = 0.0;
  /// Repairs still waiting for a first delivery when the run ended.
  std::uint64_t repairs_unrecovered = 0;

  // --- network-lifetime metrics (energy-driven deaths) -----------------------
  // -1 means "never happened during the run"; comparable across protocols
  // only when every compared run shares the battery configuration.
  /// Instant of the first permanent death (the classical time-to-first-death
  /// lifetime definition).
  double time_to_first_death_ms = -1.0;
  /// Instant at which >= 10% of the deployment was permanently dead.
  double time_to_10pct_dead_ms = -1.0;
  /// Instant at which >= 50% of the deployment was permanently dead (the
  /// network half-life).
  double half_life_ms = -1.0;
};

/// One process-level fault event, kept in memory for tests and diagnostics
/// (not serialized — per-event logs are unbounded; FaultStats is the
/// persistent summary).
struct FaultEvent {
  std::string model;  ///< the process: crash, region, battery, sink-churn
  sim::TimePoint at;
  std::size_t nodes_affected = 0;
};

/// Accumulates FaultStats over one run.  finalize() closes open downtime /
/// outage intervals at the end instant and freezes the stats.
class FaultObserver {
 public:
  explicit FaultObserver(std::size_t node_count) : nodes_(node_count) {}

  /// A fault process initiated one event touching `nodes_affected` nodes.
  void record_event(std::string_view model, sim::TimePoint at, std::size_t nodes_affected);

  /// A node actually transitioned (the controller reports each one).
  void on_state_change(net::NodeId id, bool up, sim::TimePoint at);

  /// A node will never come back (battery depletion).  Death instants feed
  /// the lifetime metrics (time-to-first-death / 10%-dead / half-life).
  void on_permanent_death(net::NodeId id, sim::TimePoint at);

  /// A protocol-level delivery completed at `node`.
  void on_delivery(net::NodeId node, sim::TimePoint at);

  /// Closes open intervals at `end` and computes the derived means.
  /// Idempotent; stats() is meaningful only afterwards for interval metrics.
  void finalize(sim::TimePoint end);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }

 private:
  struct NodeState {
    bool down = false;
    sim::TimePoint down_since;
    bool awaiting_recovery = false;
    sim::TimePoint repaired_at;
  };

  FaultStats stats_;
  std::vector<FaultEvent> events_;
  std::vector<NodeState> nodes_;
  std::vector<sim::TimePoint> death_times_;  ///< permanent deaths, death order
  std::size_t down_now_ = 0;
  sim::TimePoint outage_since_;
  double recovery_latency_sum_ms_ = 0.0;
  bool finalized_ = false;
};

}  // namespace spms::faults
