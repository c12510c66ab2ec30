#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault_model.hpp"
#include "faults/plan.hpp"
#include "net/ids.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

/// \file models.hpp
/// The built-in fault models behind the five plan entries (crash and
/// sink-churn share one renewal).  Each is constructed with its plan params
/// and a private RNG (forked by the FaultController with the model's stream
/// id) and drives node state exclusively through the controller.

namespace spms::faults {

class FaultController;

/// (a) and (e) Per-node transient crash/repair renewal, the paper's
/// Section 5.1.2 process: each target node fails after an exponential wait,
/// is repaired after ~U(repair_min, repair_max), and renews.  "crash"
/// targets every node; "sink-churn" targets the nodes within `hops`
/// zone-radius hops of the sink (sink excluded), found by BFS on the
/// deployment at start().
class CrashRepairModel final : public FaultModel {
 public:
  /// "crash": every node.
  CrashRepairModel(FaultController& ctrl, const CrashRepairParams& params, sim::Rng rng);
  /// "sink-churn": the sink's k-hop neighborhood.
  CrashRepairModel(FaultController& ctrl, const SinkChurnParams& params, net::NodeId sink,
                   sim::Rng rng);

  [[nodiscard]] std::string_view name() const override { return name_; }
  void start(sim::TimePoint horizon) override;
  [[nodiscard]] std::uint64_t events_injected() const override { return events_; }

  /// The sink-churn node set, ascending id (known after start(); empty for
  /// "crash", which targets every node).
  [[nodiscard]] const std::vector<net::NodeId>& targets() const { return targets_; }

 private:
  void schedule_failure(net::NodeId id);
  void crash(net::NodeId id);

  FaultController& ctrl_;
  std::string_view name_ = "crash";
  CrashRepairParams params_;
  net::NodeId sink_;        ///< invalid for "crash"
  std::uint32_t hops_ = 0;  ///< sink-churn radius in zone-radius hops
  sim::Rng rng_;
  sim::TimePoint horizon_;
  std::vector<net::NodeId> targets_;
  std::uint64_t events_ = 0;
};

/// (b) Spatially correlated region blackouts: every node inside a disk
/// around a uniformly drawn epicentre fails together and is restored
/// together.
class RegionOutageModel final : public FaultModel {
 public:
  RegionOutageModel(FaultController& ctrl, RegionOutageParams params, sim::Rng rng);

  [[nodiscard]] std::string_view name() const override { return "region"; }
  void start(sim::TimePoint horizon) override;
  [[nodiscard]] std::uint64_t events_injected() const override { return events_; }

 private:
  void schedule_outage();
  void blackout();

  FaultController& ctrl_;
  RegionOutageParams params_;
  sim::Rng rng_;
  sim::TimePoint horizon_;
  std::uint64_t events_ = 0;
};

/// (c) Permanent battery-depletion deaths, energy-driven: the model
/// subscribes to the network's depletion notification and converts every
/// drained battery into a permanent death through the controller — the
/// energy layer pushes deaths *up* into the fault layer, instead of the
/// fault layer sampling victims.  Deaths therefore track actual consumption
/// (airtime + idle drain vs the configured capacity) and the model draws
/// nothing from its sub-stream: toggling it can never perturb another
/// model's timeline, and no other stream can perturb the death order beyond
/// what it does to consumption itself.  The horizon does not apply —
/// batteries that dry out while the run drains still die (physics does not
/// honor the activity horizon); only event *initiating* processes stop.
class BatteryDepletionModel final : public FaultModel {
 public:
  BatteryDepletionModel(FaultController& ctrl, BatteryDepletionParams params, sim::Rng rng);

  [[nodiscard]] std::string_view name() const override { return "battery"; }
  void start(sim::TimePoint horizon) override;
  [[nodiscard]] std::uint64_t events_injected() const override { return events_; }

  /// Nodes that have died of depletion so far, in death order.
  [[nodiscard]] const std::vector<net::NodeId>& deaths() const { return deaths_; }

 private:
  void on_depleted(net::NodeId id);

  FaultController& ctrl_;
  BatteryDepletionParams params_;
  sim::Rng rng_;  ///< reserved sub-stream (kBatteryStream); currently drawless
  std::vector<net::NodeId> deaths_;
  std::uint64_t events_ = 0;
};

/// (d) Link-level degradation: installs a per-reception drop draw on the
/// network whose probability ramps linearly from drop_start (at start) to
/// drop_end (at the horizon), then heals to zero.  events_injected() counts
/// dropped receptions.
class LinkDegradationModel final : public FaultModel {
 public:
  LinkDegradationModel(FaultController& ctrl, LinkDegradationParams params, sim::Rng rng);

  [[nodiscard]] std::string_view name() const override { return "link"; }
  void start(sim::TimePoint horizon) override;
  [[nodiscard]] std::uint64_t events_injected() const override { return drops_; }

  /// The instantaneous drop probability at `at` (zero outside the ramp).
  [[nodiscard]] double drop_probability(sim::TimePoint at) const;

 private:
  FaultController& ctrl_;
  LinkDegradationParams params_;
  sim::Rng rng_;
  sim::TimePoint start_;
  sim::TimePoint horizon_;
  bool started_ = false;
  std::uint64_t drops_ = 0;
};

}  // namespace spms::faults
