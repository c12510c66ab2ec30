#pragma once

#include "core/protocol.hpp"

/// \file spin.hpp
/// SPIN-PP baseline (Heinzelman/Kulik/Balakrishnan, as summarized in the
/// paper's Section 3.1).
///
/// Three-stage handshake, all frames at the single maximum power level
/// ("SPIN suffers from the drawback of transmitting all packets at the same
/// power level"):
///   1. a node with new data broadcasts ADV(meta) to its neighbors;
///   2. a neighbor that lacks and wants the data unicasts REQ back;
///   3. the advertiser unicasts DATA to each requester;
///   4. every receiver of DATA re-advertises it once, which spreads the item
///      through the network.
///
/// Failure handling (for the F-SPIN runs): published SPIN has no timers, so
/// a REQ or DATA lost to a transient crash would strand the requester.  We
/// add the minimal liveness mechanism: a requester re-sends its REQ if DATA
/// does not arrive within tout_dat (bounded by max_retries), and a node that
/// recovers from a crash re-issues REQs for items it still misses.  This is
/// a reproduction decision (EXPERIMENTS.md, "Calibration notes": SPIN
/// liveness).

namespace spms::core {

/// The SPIN-PP protocol over a Network.
class SpinProtocol final : public DisseminationProtocol {
 public:
  SpinProtocol(sim::Simulation& sim, net::Network& net, const Interest& interest,
               ProtocolParams params);

  [[nodiscard]] std::string_view name() const override { return "SPIN"; }
  void publish(net::NodeId source, net::DataId item) override;

 private:
  /// Per (node, item) protocol state.
  struct ItemState {
    bool has = false;
    bool advertised = false;     ///< ADV successfully handed to the MAC
    bool pending = false;        ///< REQ outstanding
    net::NodeId advertiser;      ///< who we last heard an ADV from
    sim::EventHandle retry;      ///< re-request timer (kParked while it defers)
    int attempts = 0;
    bool gave_up = false;        ///< retry budget exhausted (counted once)
    Deferral deferral;           ///< the re-request timer's deferrals
  };

  void on_receive(net::NodeId self, const net::Packet& p) override;
  void handle_adv(net::NodeId self, const net::Packet& p);
  void handle_req(net::NodeId self, const net::Packet& p);
  void handle_data(net::NodeId self, const net::Packet& p);
  void on_down(net::NodeId self) override;
  void on_up(net::NodeId self) override;

  void send_req(net::NodeId self, net::DataId item, net::NodeId to);
  void on_retry_timeout(net::NodeId self, net::DataId item);
  /// A parked re-request timer fires: runs its expiry handler.
  void on_wake(net::NodeId self, net::DataId item) override { on_retry_timeout(self, item); }

  ItemTable<ItemState> items_;
};

}  // namespace spms::core
