#pragma once

#include <memory>

#include "core/collector.hpp"
#include "core/interest.hpp"
#include "core/protocol.hpp"
#include "core/traffic.hpp"
#include "exp/config.hpp"
#include "faults/controller.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "routing/bellman_ford.hpp"
#include "sim/simulation.hpp"

/// \file scenario.hpp
/// Assembles a runnable experiment from an ExperimentConfig: simulation,
/// network, routing (for SPMS), interest, protocol, collector, traffic, and
/// the optional failure/mobility processes — fully wired, ready to start().

namespace spms::exp {

/// Owns every object of one experiment run.  Members are declared in
/// dependency order; destruction runs in reverse, so referees outlive
/// referrers.
class Scenario {
 public:
  /// Builds and wires everything (including the initial DBF run for SPMS).
  explicit Scenario(const ExperimentConfig& config);

  /// Starts traffic and the configured fault/mobility processes.
  void start();

  /// Runs the simulation to quiescence (bounded by config.max_events).
  /// Returns the number of events executed.
  std::size_t run();

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulation& simulation() { return *sim_; }
  [[nodiscard]] net::Network& network() { return *net_; }
  /// Null for protocols without a routing layer (SPIN, flooding).
  [[nodiscard]] routing::RoutingService* routing() { return routing_.get(); }
  [[nodiscard]] core::Interest& interest() { return *interest_; }
  [[nodiscard]] core::DisseminationProtocol& protocol() { return *protocol_; }
  [[nodiscard]] core::Collector& collector() { return *collector_; }
  [[nodiscard]] core::TrafficGenerator& traffic() { return *traffic_; }
  /// Null unless the config's FaultPlan enables a process or its battery is
  /// finite.
  [[nodiscard]] faults::FaultController* faults() { return faults_.get(); }
  [[nodiscard]] net::MobilityProcess* mobility() { return mobility_.get(); }

  /// Side length of the deployed square field, metres.
  [[nodiscard]] double field_side_m() const { return field_side_m_; }

 private:
  ExperimentConfig config_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<routing::RoutingService> routing_;
  std::unique_ptr<core::Interest> interest_;
  std::unique_ptr<core::DisseminationProtocol> protocol_;
  std::unique_ptr<core::Collector> collector_;
  std::unique_ptr<core::TrafficGenerator> traffic_;
  std::unique_ptr<faults::FaultController> faults_;
  std::unique_ptr<net::MobilityProcess> mobility_;
  double field_side_m_ = 0.0;
  /// The node nearest the field centre: the sink of the kSink pattern and
  /// the anchor of the sink-churn fault model.
  net::NodeId central_node_{0};
};

}  // namespace spms::exp
