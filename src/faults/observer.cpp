#include "faults/observer.hpp"

#include <algorithm>

namespace spms::faults {

void FaultObserver::record_event(std::string_view model, sim::TimePoint at,
                                 std::size_t nodes_affected) {
  ++stats_.fault_events;
  events_.push_back({std::string{model}, at, nodes_affected});
}

void FaultObserver::on_state_change(net::NodeId id, bool up, sim::TimePoint at) {
  NodeState& n = nodes_.at(id.v);
  if (up == !n.down) return;  // no transition (defensive; the controller filters)
  if (!up) {
    n.down = true;
    n.down_since = at;
    if (down_now_++ == 0) outage_since_ = at;
    stats_.max_concurrent_down = std::max<std::uint64_t>(stats_.max_concurrent_down, down_now_);
    ++stats_.node_downs;
  } else {
    n.down = false;
    stats_.total_downtime_ms += (at - n.down_since).to_ms();
    if (--down_now_ == 0) stats_.outage_time_ms += (at - outage_since_).to_ms();
    ++stats_.node_repairs;
    n.awaiting_recovery = true;
    n.repaired_at = at;
  }
}

void FaultObserver::on_permanent_death(net::NodeId id, sim::TimePoint at) {
  static_cast<void>(id);
  ++stats_.permanent_deaths;
  death_times_.push_back(at);
  // Death order is chronological (the controller reports at kill time), so
  // the k%-dead thresholds are crossed by the k%-th recorded death.
  const auto dead = death_times_.size();
  const auto total = nodes_.size();
  if (dead == 1) stats_.time_to_first_death_ms = at.to_ms();
  if (stats_.time_to_10pct_dead_ms < 0.0 && dead * 10 >= total) {
    stats_.time_to_10pct_dead_ms = at.to_ms();
  }
  if (stats_.half_life_ms < 0.0 && dead * 2 >= total) {
    stats_.half_life_ms = at.to_ms();
  }
}

void FaultObserver::on_delivery(net::NodeId node, sim::TimePoint at) {
  if (down_now_ > 0) ++stats_.deliveries_during_outage;
  NodeState& n = nodes_.at(node.v);
  if (n.awaiting_recovery) {
    n.awaiting_recovery = false;
    recovery_latency_sum_ms_ += (at - n.repaired_at).to_ms();
    ++stats_.recoveries_sampled;
  }
}

void FaultObserver::finalize(sim::TimePoint end) {
  if (finalized_) return;
  finalized_ = true;
  for (NodeState& n : nodes_) {
    if (n.down) stats_.total_downtime_ms += (end - n.down_since).to_ms();
    if (n.awaiting_recovery) ++stats_.repairs_unrecovered;
  }
  if (down_now_ > 0) stats_.outage_time_ms += (end - outage_since_).to_ms();
  if (stats_.recoveries_sampled > 0) {
    stats_.mean_recovery_latency_ms =
        recovery_latency_sum_ms_ / static_cast<double>(stats_.recoveries_sampled);
  }
}

}  // namespace spms::faults
