#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "faults/observer.hpp"
#include "faults/plan.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

/// \file controller.hpp
/// The fault runtime: runs the FaultPlan's processes (crash/repair renewal,
/// region blackouts, link degradation, sink churn), turns every drained
/// finite battery into a permanent death, composes node transitions, and
/// records each transition it causes in the FaultObserver and the trace.
///
/// Composition semantics: each node carries a down ref-count.  A process's
/// fail() increments it, its paired repair() decrements it; the node is up
/// iff the count is zero and it has not died permanently.  Two overlapping
/// outages therefore keep the node down until the *last* one repairs, and a
/// battery death wins over any pending repair — processes stay oblivious to
/// one another.
///
/// Determinism contract: each process owns a private RNG sub-stream forked
/// from the run's root seed with its own stream id, and draws from it
/// unconditionally on its own schedule.  A process's fault-initiation
/// timeline is therefore a pure function of its own stream — enabling or
/// disabling any other process never perturbs it (tests/faults pins this).
/// Battery deaths draw nothing: they follow actual consumption.

namespace spms::faults {

/// RNG sub-stream ids, one per process.  A process's stream fixes its
/// timeline, so changing an id moves every run that enables the process.
inline constexpr std::uint64_t kCrashStream = 0xFA11;
inline constexpr std::uint64_t kRegionStream = 0xFA12;
inline constexpr std::uint64_t kLinkStream = 0xFA14;
inline constexpr std::uint64_t kSinkChurnStream = 0xFA15;

/// The nodes within `hops` zone-radius hops of `sink` (sink excluded),
/// ascending id: BFS over the zone-radius connectivity graph on the
/// deployment as it stands now.  The sink-churn process's targets.
[[nodiscard]] std::vector<net::NodeId> k_hop_neighborhood(const net::Network& net,
                                                          net::NodeId sink, std::uint32_t hops);

class FaultController {
 public:
  /// \param focus  the sink / field-centre node the sink-churn process
  ///        anchors its k-hop neighborhood on.
  FaultController(sim::Simulation& sim, net::Network& net, const FaultPlan& plan,
                  net::NodeId focus);
  ~FaultController();

  FaultController(const FaultController&) = delete;
  FaultController& operator=(const FaultController&) = delete;

  /// Starts every enabled process (order: crash, region, link, sink-churn).
  /// No process initiates a fault at or after `horizon` (repairs in flight
  /// still complete, so transient faults leave the network fully up at the
  /// end of the run).  Battery deaths ignore the horizon: a battery that
  /// dries out while the run drains still dies.
  void start(sim::TimePoint horizon);

  /// Closes the observer's open intervals at the current simulation time.
  /// Call once after the run drains, before reading stats().
  void finalize();

  /// Forward protocol-level deliveries here (recovery-latency sampling).
  void record_delivery(net::NodeId node, sim::TimePoint at);

  [[nodiscard]] FaultObserver& observer() { return observer_; }
  [[nodiscard]] const FaultObserver& observer() const { return observer_; }
  [[nodiscard]] const FaultStats& stats() const { return observer_.stats(); }

  /// The link-fade drop probability at `at`: ramps linearly from
  /// drop_start at start() to drop_end at the horizon, zero outside that
  /// window and when link degradation is off.
  [[nodiscard]] double link_drop_probability(sim::TimePoint at) const;

  /// One fault window opens at this node.  The first open window takes the
  /// node down.  Must be paired with exactly one repair().
  void fail(net::NodeId id);
  /// The matching repair: the node comes back up only when every fault
  /// window has closed and it is not permanently dead.
  void repair(net::NodeId id);
  /// Permanent death: the node goes (or stays) down and no repair ever
  /// brings it back.
  void kill(net::NodeId id);
  [[nodiscard]] bool permanently_dead(net::NodeId id) const { return permanent_[id.v] != 0; }

 private:
  /// A per-node crash/repair renewal (paper Section 5.1.2): each target
  /// fails after an exponential wait, is repaired after ~U(repair_min,
  /// repair_max), and renews.  The crash entry targets every node, sink
  /// churn the sink's k-hop neighborhood.
  struct Renewal {
    std::string_view name;
    CrashRepairParams params;
    sim::Rng rng;
  };

  void schedule_failure(Renewal& r, net::NodeId id);
  void crash(Renewal& r, net::NodeId id);
  void schedule_outage();
  void blackout();
  /// Takes the node up or down and records the transition, if it was one.
  void set_up(net::NodeId id, bool up);

  sim::Simulation& sim_;
  net::Network& net_;
  FaultPlan plan_;
  net::NodeId focus_;
  FaultObserver observer_;
  Renewal crash_;
  sim::Rng region_rng_;
  sim::Rng link_rng_;
  Renewal sink_churn_;
  sim::TimePoint start_;
  sim::TimePoint horizon_;
  // Dense per-node fault state (index == NodeId.v); permanent_ is bytes, not
  // vector<bool>, so the hot liveness checks stay branch-light loads.
  std::vector<std::uint32_t> down_count_;
  std::vector<std::uint8_t> permanent_;
};

}  // namespace spms::faults
