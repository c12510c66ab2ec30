#pragma once

#include "core/protocol.hpp"

/// \file flooding.hpp
/// Classic flooding — the paper's Section 1 baseline: "each node retransmits
/// the data it receives to all its neighbors … it results in data implosion
/// with the destination getting multiple data packets from multiple paths."
///
/// No negotiation: the full DATA frame floods at maximum power; a node
/// rebroadcasts each item exactly once (the only state kept).  Included for
/// the flooding_baseline and lifetime-race scenarios, which quantify what
/// SPIN's negotiation and SPMS's power control each buy.

namespace spms::core {

/// The flooding baseline over a Network.
class FloodingProtocol final : public DisseminationProtocol {
 public:
  FloodingProtocol(sim::Simulation& sim, net::Network& net, const Interest& interest,
                   ProtocolParams params);

  [[nodiscard]] std::string_view name() const override { return "FLOOD"; }
  void publish(net::NodeId source, net::DataId item) override;

 private:
  struct ItemFlags {
    bool seen = false;         ///< item received (or published here)
    bool rebroadcast = false;  ///< item already re-flooded
  };

  void on_receive(net::NodeId self, const net::Packet& p) override;
  void flood(net::NodeId self, net::DataId item);

  ItemTable<ItemFlags> items_;
};

}  // namespace spms::core
