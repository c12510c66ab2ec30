#pragma once

#include <cstdint>

#include "core/collector.hpp"
#include "core/interest.hpp"
#include "core/protocol.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

/// \file traffic.hpp
/// Workload generation (paper Section 5.1): "each node generates 10 new
/// packets … We consider Poisson arrivals for the new packets" with
/// lambda = 1/ms (Table 1).

namespace spms::core {

/// Poisson data-generation workload.
struct TrafficParams {
  int packets_per_node = 10;
  /// Mean inter-arrival between one node's packets (Table 1: 1 ms).
  sim::Duration mean_interarrival = sim::Duration::ms(1.0);
};

/// Schedules publish() calls on a protocol and records them in a collector.
class TrafficGenerator {
 public:
  TrafficGenerator(sim::Simulation& sim, net::Network& net, DisseminationProtocol& proto,
                   const Interest& interest, Collector& collector, TrafficParams params,
                   std::uint64_t stream = 0x7AF1C);

  /// Schedules every node's arrival process starting at the current time.
  void start();

 private:
  sim::Simulation& sim_;
  net::Network& net_;
  DisseminationProtocol& proto_;
  const Interest& interest_;
  Collector& collector_;
  TrafficParams params_;
  sim::Rng rng_;
};

}  // namespace spms::core
