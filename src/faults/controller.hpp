#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "faults/fault_model.hpp"
#include "faults/observer.hpp"
#include "faults/plan.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

/// \file controller.hpp
/// The FaultPlan runtime: builds one FaultModel per enabled plan entry,
/// composes their node transitions, and feeds the FaultObserver.
///
/// Composition semantics: each node carries a down ref-count.  A model's
/// fail() increments it, its paired repair() decrements it; the node is up
/// iff the count is zero and it has not died permanently.  Two overlapping
/// outages therefore keep the node down until the *last* one repairs, and a
/// battery death wins over any pending repair — models stay oblivious to
/// one another.

namespace spms::faults {

class FaultController {
 public:
  /// \param focus  the sink / field-centre node the sink-churn model
  ///        anchors its k-hop neighborhood on.
  FaultController(sim::Simulation& sim, net::Network& net, const FaultPlan& plan,
                  net::NodeId focus);
  ~FaultController();

  FaultController(const FaultController&) = delete;
  FaultController& operator=(const FaultController&) = delete;

  /// Starts every enabled model (plan order: crash, region, battery, link,
  /// sink-churn).  No model initiates a fault at or after `horizon`.
  void start(sim::TimePoint horizon);

  /// Closes the observer's open intervals at the current simulation time.
  /// Call once after the run drains, before reading stats().
  void finalize();

  /// Forward protocol-level deliveries here (recovery-latency sampling).
  void record_delivery(net::NodeId node, sim::TimePoint at);

  [[nodiscard]] FaultObserver& observer() { return observer_; }
  [[nodiscard]] const FaultObserver& observer() const { return observer_; }
  [[nodiscard]] const FaultStats& stats() const { return observer_.stats(); }

  [[nodiscard]] const std::vector<std::unique_ptr<FaultModel>>& models() const {
    return models_;
  }
  /// The model with the given name(), or nullptr when not enabled.
  [[nodiscard]] FaultModel* model(std::string_view name) const;

  // --- model-facing API -------------------------------------------------------
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] net::Network& network() { return net_; }

  /// One model observed this node fault.  First active fault takes the node
  /// down.  Must be paired with exactly one repair().
  void fail(net::NodeId id);
  /// The matching repair: the node comes back up only when every model's
  /// fault window has closed and it is not permanently dead.
  void repair(net::NodeId id);
  /// Permanent death: the node goes (or stays) down and no repair — from
  /// any model — ever brings it back.
  void kill(net::NodeId id);
  [[nodiscard]] bool permanently_dead(net::NodeId id) const { return permanent_[id.v] != 0; }

 private:
  sim::Simulation& sim_;
  net::Network& net_;
  FaultObserver observer_;
  std::vector<std::unique_ptr<FaultModel>> models_;
  // Dense per-node fault state (index == NodeId.v); permanent_ is bytes, not
  // vector<bool>, so the hot liveness checks stay branch-light loads.
  std::vector<std::uint32_t> down_count_;
  std::vector<std::uint8_t> permanent_;
};

}  // namespace spms::faults
