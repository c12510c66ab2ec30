#pragma once

#include "net/packet.hpp"

/// \file node.hpp
/// The callback interface the protocol layer implements.
///
/// Per-node state itself (position, liveness, battery, MAC bookkeeping)
/// lives in dense structure-of-arrays storage inside net::Network — the
/// scheduler/DBF/spatial-grid hot loops walk contiguous arrays instead of
/// hopping across one heavyweight struct per node (see network.hpp).

namespace spms::net {

/// Interface the protocol layer implements.  Every callback names the node
/// it concerns, so one agent can serve every node: a dissemination protocol
/// installs itself for the whole network.  The network invokes on_receive
/// after the receiver-side processing delay (T_proc); on_down/on_up bracket
/// transient failures.
class Agent {
 public:
  virtual ~Agent() = default;

  /// A frame addressed to `self` (or broadcast) finished arriving and has
  /// been processed by the radio/MAC.  Only called while the node is up.
  virtual void on_receive(NodeId self, const Packet& packet) = 0;

  /// `self` just crashed: all its queued transmissions were discarded and
  /// future receptions will be dropped until on_up().
  virtual void on_down(NodeId /*self*/) {}

  /// `self` just recovered.
  virtual void on_up(NodeId /*self*/) {}

  /// The network is about to raise `self`'s carrier-sense stamp, deliver a
  /// frame to it, or take it down or up, at or after the instant the agent
  /// named through Network::set_watch.  The stamp still reads as it was
  /// just before this instant.
  virtual void on_watch(NodeId /*self*/) {}
};

}  // namespace spms::net
