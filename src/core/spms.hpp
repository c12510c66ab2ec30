#pragma once

#include <vector>

#include "core/protocol.hpp"
#include "routing/bellman_ford.hpp"

/// \file spms.hpp
/// SPMS — Shortest Path Minded SPIN (the paper's contribution, Section 3).
///
/// Like SPIN, a data holder advertises metadata and interested nodes pull
/// the data; unlike SPIN, the REQ and DATA travel along minimum-power
/// multi-hop routes inside the zone (distributed Bellman-Ford tables), and
/// the destination tolerates relay/source failures with two timers and a
/// pair of fallback originators:
///
///  * PRONE (primary originator node): current first choice to request from;
///  * SCONE (secondary): previous PRONE, used when the PRONE is unreachable;
///  * tau_ADV (TOutADV): after hearing an ADV whose sender is not a next-hop
///    neighbor, wait this long for a closer relay to re-advertise before
///    requesting through the shortest path;
///  * tau_DAT (TOutDAT): after sending a REQ, wait this long for DATA, then
///    escalate — multi-hop attempt -> direct to PRONE -> direct to SCONE ->
///    direct to the source (all guaranteed reachable: they are zone
///    neighbors).
///
/// Every node that *receives* the data re-advertises it once in its zone;
/// pure relays do not cache (the paper defers relay caching to future work).

namespace spms::core {

/// Optional SPMS behaviours beyond the published protocol — both flagged in
/// the paper itself as extensions.
struct SpmsExtensions {
  /// Section 6 future work: "data caching at intermediate nodes which route
  /// the data but are not receivers. This can improve the fault tolerant
  /// property of the protocol."  When on, a relay forwarding DATA keeps a
  /// copy and re-advertises it like a receiver.
  bool relay_caching = false;

  /// Section 3.4: "In a general scenario, multiple SCONES may be maintained
  /// for tolerating more than one concurrent failure."  The destination
  /// remembers the PRONE plus this many fallback originators; the
  /// escalation ladder walks all of them before resorting to the source.
  std::size_t num_scones = 1;

  /// Section 6 future work: "an extension to SPMS to disseminate data when
  /// the source and the destination are in separate zones with no
  /// interested nodes in the intermediate zones. This would require the use
  /// of zone routing … and the request phase of the protocol to go across
  /// zones."  When > 0, uninterested border nodes forward the metadata
  /// (ADV) up to this many zone crossings, accumulating a courier trail;
  /// a distant interested node sends its REQ source-routed back along the
  /// trail and the DATA returns the same way.  0 = published protocol.
  std::size_t cross_zone_ttl = 0;
};

/// The SPMS protocol over a Network + RoutingService.
class SpmsProtocol final : public DisseminationProtocol {
 public:
  SpmsProtocol(sim::Simulation& sim, net::Network& net, routing::RoutingService& routing,
               const Interest& interest, ProtocolParams params, SpmsExtensions ext = {});

  [[nodiscard]] std::string_view name() const override { return "SPMS"; }
  void publish(net::NodeId source, net::DataId item) override;

 private:
  /// Per (node, item) acquisition state machine.
  struct ItemState {
    bool has = false;
    bool advertised = false;  ///< ADV successfully handed to the MAC

    /// Known holders, most recently promoted first: [0] is the PRONE, the
    /// rest are SCONEs (capped at 1 + num_scones entries; inline storage —
    /// the default config never heap-allocates per item).
    InlineVec<net::NodeId, 4> originators;

    sim::EventHandle adv_timer;  ///< tau_ADV (kParked while it defers)
    sim::EventHandle dat_timer;  ///< tau_DAT (kParked while it defers)
    bool awaiting = false;       ///< a REQ is outstanding

    bool last_direct = false;   ///< last REQ was one direct transmission
    net::NodeId last_target;    ///< whom the last REQ addressed
    int attempts = 0;           ///< REQs sent for this item
    bool multihop_retried = false;  ///< the ladder's multi-hop re-REQ fired
    bool gave_up = false;           ///< retry budget exhausted (counted once)
    Deferral deferral;              ///< tau_ADV and tau_DAT defer on one count

    // Cross-zone extension state.
    bool adv_forwarded = false;        ///< this node couriered the metadata once
    net::NodeId cross_first_hop;       ///< first hop of the cross-zone source route
    std::vector<net::NodeId> cross_plan;  ///< remaining hops (ends at the holder)
  };

  void on_receive(net::NodeId self, const net::Packet& p) override;
  void handle_adv(net::NodeId self, const net::Packet& p);
  void handle_req(net::NodeId self, const net::Packet& p);
  void handle_data(net::NodeId self, const net::Packet& p);
  /// Crash: stops every timer of the node.
  void on_down(net::NodeId self) override;
  /// Recovery: re-advertises lost ADVs and resumes open acquisitions.
  void on_up(net::NodeId self) override;

  // --- cross-zone extension -------------------------------------------------
  /// Handles a couriered (forwarded) ADV: request along the trail if we are
  /// an interested distant node, else consider couriering it further.
  void handle_forwarded_adv(net::NodeId self, const net::Packet& p);
  /// Re-broadcasts metadata at the zone edge if the budget allows.
  void maybe_forward_metadata(net::NodeId self, const net::Packet& p, net::NodeId holder);

  void on_adv_timeout(net::NodeId self, net::DataId item);
  void on_dat_timeout(net::NodeId self, net::DataId item);
  /// A parked tau_ADV or tau_DAT fires: runs its expiry handler.
  void on_wake(net::NodeId self, net::DataId item) override;

  /// Takes the first copy of DATA at `self` (a requester, or a caching
  /// relay): stops its timers, records the delivery and advertises the item.
  /// Later copies are duplicates and ignored.
  void take_first_copy(net::NodeId self, const net::Packet& data);
  /// The first hop of a REQ from `self` to `target` through the shortest
  /// path: `target` itself when the REQ goes in one transmission.
  [[nodiscard]] net::NodeId first_hop(net::NodeId self, net::NodeId target) const;
  /// Sends `self`'s REQ for `item` to `target` through `hop` and arms
  /// tau_DAT.  The REQ is direct (one transmission) when `hop` is `target`,
  /// multi-hop along the routing tables otherwise, and cross-zone when
  /// `plan` holds the rest of a source route along an ADV courier trail
  /// (ending at `target`); a cross-zone REQ records its route for re-sends.
  void send_req(net::NodeId self, net::DataId item, net::NodeId target, net::NodeId hop,
                std::vector<net::NodeId> plan = {});
  /// Answers a REQ that reached us (we hold the data).
  void answer_req(net::NodeId self, const net::Packet& req);
  /// Relays a REQ that is addressed to someone else.
  void forward_req(net::NodeId self, net::Packet req);
  /// Relays DATA along its source route.
  void forward_data(net::NodeId self, net::Packet data);

  void arm_dat_timer(net::NodeId self, net::DataId item);

  /// Cost of reaching `dest` from `self` per the routing table; +inf when
  /// unknown.  Used for the "closer node" PRONE update rule.
  [[nodiscard]] double route_cost(net::NodeId self, net::NodeId dest) const;

  /// The current PRONE of an item state (invalid when nothing heard yet).
  [[nodiscard]] static net::NodeId prone_of(const ItemState& st) {
    return st.originators.empty() ? net::kNoNode : st.originators.front();
  }

  routing::RoutingService& routing_;
  SpmsExtensions ext_;
  ItemTable<ItemState> items_;
};

}  // namespace spms::core
