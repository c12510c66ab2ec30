#include "core/spms.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/event_trace.hpp"

namespace spms::core {

SpmsProtocol::SpmsProtocol(sim::Simulation& sim, net::Network& net,
                           routing::RoutingService& routing, const Interest& interest,
                           ProtocolParams params, SpmsExtensions ext)
    : DisseminationProtocol(sim, net, interest, params),
      routing_(routing),
      ext_(ext),
      items_(net.size()) {}

double SpmsProtocol::route_cost(net::NodeId self, net::NodeId dest) const {
  const auto r = routing_.route(self, dest);
  return r ? r->cost : std::numeric_limits<double>::infinity();
}

void SpmsProtocol::publish(net::NodeId source, net::DataId item) {
  assert(item.origin == source);
  ItemState& st = items_(source, item);
  st.has = true;
  advertise_once(source, item, st.advertised, obs::TraceKind::kSpmsAdv);
}

void SpmsProtocol::arm_dat_timer(net::NodeId self, net::DataId item) {
  ItemState& st = items_(self, item);
  cancel_timer(self, st.dat_timer, st.deferral);
  st.dat_timer =
      sim_.after(retry_wait(st.attempts), [this, self, item] { on_dat_timeout(self, item); });
  st.awaiting = true;
}

net::NodeId SpmsProtocol::first_hop(net::NodeId self, net::NodeId target) const {
  // No table entry gives a direct request, as does a best path that IS the
  // direct link (its next hop is the target).
  const net::NodeId next = routing_.next_hop(self, target);
  return next.valid() ? next : target;
}

void SpmsProtocol::send_req(net::NodeId self, net::DataId item, net::NodeId target,
                            net::NodeId hop, std::vector<net::NodeId> plan) {
  const bool cross_zone = !plan.empty();
  const bool direct = !cross_zone && hop == target;
  net::Packet req;
  req.type = net::PacketType::kReq;
  req.item = item;
  req.requester = self;
  req.target = target;
  req.direct = direct;
  req.source_route = plan;
  req.size_bytes = params_.req_bytes + 4 * plan.size();  // hop ids on the air
  ItemState& st = items_(self, item);
  req.attempt = static_cast<std::uint16_t>(st.attempts + 1);
  if (net_.send_to(self, std::move(req), hop) && sim_.events().enabled()) {
    const obs::TraceKind kind = cross_zone ? obs::TraceKind::kSpmsReqCrosszone
                                : direct   ? obs::TraceKind::kSpmsReqDirect
                                           : obs::TraceKind::kSpmsReqMultihop;
    sim_.events().emit({.at = sim_.now(), .kind = kind, .node = self, .peer = target,
                        .via = direct ? net::NodeId{} : hop, .item = item});
  }
  ++st.attempts;
  st.last_direct = direct;
  st.last_target = target;
  if (cross_zone) {
    st.cross_first_hop = hop;
    st.cross_plan = std::move(plan);
  }
  // Arm tau_DAT even when the send failed (the hop or the target moved out
  // of range): the timeout drives the escalation ladder on instead of
  // stranding the item.
  arm_dat_timer(self, item);
}

void SpmsProtocol::on_receive(net::NodeId self, const net::Packet& p) {
  switch (p.type) {
    case net::PacketType::kAdv: handle_adv(self, p); break;
    case net::PacketType::kReq: handle_req(self, p); break;
    case net::PacketType::kData: handle_data(self, p); break;
    case net::PacketType::kRouteUpdate: break;  // DBF is accounted analytically
  }
}

void SpmsProtocol::handle_adv(net::NodeId self, const net::Packet& p) {
  if (p.target.valid()) {
    // A couriered cross-zone ADV (extension), not a holder's own broadcast.
    handle_forwarded_adv(self, p);
    return;
  }
  if (!interest_.wants(self, p.item)) {
    // Negotiation: unwanted data is ignored — except that with the
    // cross-zone extension a border bystander couriers the metadata onward.
    maybe_forward_metadata(self, p, p.src);
    return;
  }

  ItemState& st = items_(self, p.item);
  if (st.has) return;

  // PRONE/SCONE bookkeeping.  The first ADV initializes both to its sender
  // (for a source-zone node that is the source itself, matching the paper's
  // "both PRONE and SCONE are initialized to the data source node"); a
  // later ADV from a cheaper-to-reach holder promotes that holder to PRONE
  // and demotes the previous one to SCONE.  With the multiple-SCONEs
  // extension the demotion chain keeps up to num_scones fallbacks.
  bool prone_changed = false;
  if (st.originators.empty()) {
    st.originators.push_back(p.src);
    prone_changed = true;
  } else if (p.src != st.originators.front() &&
             route_cost(self, p.src) < route_cost(self, st.originators.front())) {
    st.originators.erase_value(p.src);  // re-promotion must not duplicate
    st.originators.insert(st.originators.begin(), p.src);
    if (st.originators.size() > ext_.num_scones + 1) {
      st.originators.resize(ext_.num_scones + 1);
    }
    prone_changed = true;
  }

  if (st.awaiting) return;  // a REQ is already outstanding; bookkeeping only

  if (st.attempts >= params_.max_retries) {
    st.attempts = 0;  // fresh holder heard: the retry budget resets
    st.multihop_retried = false;
  }

  const bool adv_armed = st.adv_timer.valid();
  if (routing_.is_next_hop_neighbor(self, prone_of(st))) {
    // The holder is one hop along the shortest path: request immediately.
    cancel_timer(self, st.adv_timer, st.deferral);
    send_req(self, p.item, prone_of(st), prone_of(st));
    return;
  }

  // Multi-hop territory: wait for a relay to re-advertise (tau_ADV).  A
  // PRONE change restarts the countdown ("C … resets its timer tau_ADV").
  if (!adv_armed || prone_changed) {
    cancel_timer(self, st.adv_timer, st.deferral);
    const auto item = p.item;
    st.adv_timer = sim_.after(params_.tout_adv, [this, self, item] { on_adv_timeout(self, item); });
  }
}

void SpmsProtocol::on_adv_timeout(net::NodeId self, net::DataId item) {
  ItemState& st = items_(self, item);
  st.adv_timer = sim::EventHandle{};
  if (st.has || st.awaiting) return;  // raced with a delivery or a request
  // Audible traffic means relays are still working through their queues;
  // defer the verdict instead of prematurely pulling from a distant PRONE.
  if (park_while_audible(self, item, st.deferral, st.adv_timer)) return;
  // No relay re-advertised in time: request from the PRONE through the
  // shortest path.
  send_req(self, item, prone_of(st), first_hop(self, prone_of(st)));
}

void SpmsProtocol::on_dat_timeout(net::NodeId self, net::DataId item) {
  ItemState& st = items_(self, item);
  st.dat_timer = sim::EventHandle{};
  if (st.has) {
    st.awaiting = false;
    return;
  }
  // The reply is plainly queued behind traffic we can hear; keep waiting.
  // tau_ADV and tau_DAT share the item's deferral count.
  if (park_while_audible(self, item, st.deferral, st.dat_timer)) return;
  st.awaiting = false;
  if (out_of_retries(self, item, st.attempts, st.gave_up)) return;

  // Cross-zone acquisitions have no in-zone originators to escalate to; the
  // recovery is a bounded re-send along the same courier route (the holder
  // or a relay may have been down transiently).
  if (!st.cross_plan.empty()) {
    send_req(self, item, st.cross_plan.back(), st.cross_first_hop, st.cross_plan);
    return;
  }

  // Escalation ladder (Sections 3.4/3.5):
  //  * a failed multi-hop attempt first re-sends the REQ to the PRONE over
  //    the shortest path ("sends a REQ packet to its PRONE using multi-hop
  //    routing which may go through NC") — the PRONE may have been promoted
  //    to a closer holder meanwhile;
  //  * if that times out too, request DIRECT from the PRONE ("finally
  //    requests the data directly from the PRONE, using a higher
  //    transmission power");
  //  * a failed direct attempt walks the remaining SCONEs, most recently
  //    promoted first;
  //  * after that, resort to the source — every originator is a zone
  //    neighbor, so a direct transmission reaches it once it is back up.
  net::NodeId target;
  if (!st.last_direct) {
    if (!st.multihop_retried) {
      st.multihop_retried = true;
      send_req(self, item, prone_of(st), first_hop(self, prone_of(st)));
      return;
    }
    target = prone_of(st);
  } else {
    const auto it = std::find(st.originators.begin(), st.originators.end(), st.last_target);
    if (it != st.originators.end() && std::next(it) != st.originators.end()) {
      target = *std::next(it);  // next fallback originator (SCONE, SCONE2, …)
    } else {
      target = item.origin;
      // The origin may be outside our zone (we learned of the item from a
      // relay's ADV); fall back to the PRONE, which never is.
      if (net_.distance_between(self, target) > net_.radio().max_range()) {
        target = prone_of(st);
      }
    }
  }
  send_req(self, item, target, target);
}

void SpmsProtocol::on_wake(net::NodeId self, net::DataId item) {
  if (is_parked(items_(self, item).adv_timer)) {
    on_adv_timeout(self, item);
  } else {
    on_dat_timeout(self, item);
  }
}

void SpmsProtocol::handle_forwarded_adv(net::NodeId self, const net::Packet& p) {
  const net::NodeId holder = p.target;
  if (self == holder || self == p.item.origin) return;
  ItemState& st = items_(self, p.item);
  if (st.has) return;

  if (interest_.wants(self, p.item)) {
    // A distant interested node: the holder is out of our zone, so normal
    // SPMS could never serve us.  Pull along the courier trail — but only
    // when no in-zone acquisition is underway (originators would be set if
    // we had heard a real ADV).
    if (st.awaiting || !st.originators.empty()) return;
    if (st.attempts >= params_.max_retries) return;
    // Plan: reverse the trail (dropping its last element, our immediate
    // courier, which becomes the first hop), then the holder.
    std::vector<net::NodeId> plan(p.route.rbegin(), p.route.rend());
    if (!plan.empty() && plan.front() == p.src) plan.erase(plan.begin());
    plan.push_back(holder);
    send_req(self, p.item, holder, p.src, std::move(plan));
    return;
  }
  maybe_forward_metadata(self, p, holder);
}

void SpmsProtocol::maybe_forward_metadata(net::NodeId self, const net::Packet& p,
                                          net::NodeId holder) {
  if (ext_.cross_zone_ttl == 0) return;
  ItemState& st = items_(self, p.item);
  if (st.has || st.adv_forwarded) return;
  if (p.route.size() >= ext_.cross_zone_ttl) return;  // courier budget spent
  // Only border nodes courier: forwarding from deep inside the sender's
  // zone would mostly re-cover the same area.
  if (net_.distance_between(self, p.src) < 0.6 * net_.zone_radius()) return;

  net::Packet fwd;
  fwd.type = net::PacketType::kAdv;
  fwd.item = p.item;
  fwd.target = holder;
  fwd.route = p.route;
  fwd.route.push_back(self);
  fwd.size_bytes = params_.adv_bytes + 4 * fwd.route.size();  // trail ids on the air
  if (net_.send(self, fwd, net_.zone_radius())) {
    st.adv_forwarded = true;
    if (sim_.events().enabled()) {
      sim_.events().emit(
          {.at = sim_.now(), .kind = obs::TraceKind::kSpmsCourierAdv, .node = self, .item = p.item});
    }
  }
}

void SpmsProtocol::handle_req(net::NodeId self, const net::Packet& p) {
  if (p.target == self) {
    // A stale request (we never had the data, or a crash wiped the
    // advertisement race) is left to the requester's tau_DAT.
    if (items_(self, p.item).has && admit_service(self, p.item, p.requester)) answer_req(self, p);
    return;
  }
  forward_req(self, p);
}

void SpmsProtocol::answer_req(net::NodeId self, const net::Packet& req) {
  net::Packet data;
  data.type = net::PacketType::kData;
  data.item = req.item;
  data.requester = req.requester;
  data.holder = self;
  data.size_bytes = params_.data_bytes;
  if (req.direct) {
    // "r1 … sends the data as direct transmission because that was the
    // route followed by the REQ packet."
    net_.send_to(self, std::move(data), req.requester);
    return;
  }
  // Multi-hop: send the data back along the reverse of the REQ's relay
  // trail ("the data is sent in exactly the same manner as the received
  // request").
  data.route.assign(req.route.rbegin(), req.route.rend());
  const net::NodeId first = data.route.empty() ? req.requester : data.route.front();
  net_.send_to(self, std::move(data), first);
}

void SpmsProtocol::forward_req(net::NodeId self, net::Packet req) {
  if (sim_.events().enabled()) {
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpmsRelayReq, .node = self,
                        .peer = req.requester, .via = req.target, .item = req.item});
  }
  if (!req.source_route.empty()) {
    // Cross-zone REQ: consume the pre-planned hop and keep the trail for the
    // DATA's return trip, exactly like a table-routed relay would.
    const net::NodeId next = req.source_route.front();
    req.source_route.erase(req.source_route.begin());
    req.route.push_back(self);
    net_.send_to(self, std::move(req), next);
    return;
  }
  net::NodeId next = routing_.next_hop(self, req.target);
  if (!next.valid()) {
    // No zone-local route from this relay; fall back to a direct hop when
    // physically possible, otherwise drop and let tau_DAT recover.
    if (net_.distance_between(self, req.target) <= net_.radio().max_range()) {
      next = req.target;
    } else {
      return;
    }
  }
  req.route.push_back(self);
  net_.send_to(self, std::move(req), next);
}

void SpmsProtocol::forward_data(net::NodeId self, net::Packet data) {
  if (sim_.events().enabled()) {
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpmsRelayData, .node = self,
                        .peer = data.requester, .item = data.item});
  }
  assert(!data.route.empty() && data.route.front() == self);
  data.route.erase(data.route.begin());
  const net::NodeId next = data.route.empty() ? data.requester : data.route.front();
  net_.send_to(self, std::move(data), next);
}

void SpmsProtocol::handle_data(net::NodeId self, const net::Packet& p) {
  if (p.requester != self) {
    // We are a relay on the source route.  The published protocol forwards
    // without caching; the relay_caching extension (the paper's Section 6
    // future work) keeps a copy and re-advertises it like a receiver, which
    // shortens recovery paths and adds originator diversity.
    if (ext_.relay_caching) take_first_copy(self, p);
    forward_data(self, p);
    return;
  }
  take_first_copy(self, p);
}

void SpmsProtocol::take_first_copy(net::NodeId self, const net::Packet& data) {
  ItemState& st = items_(self, data.item);
  if (st.has) return;  // duplicate (e.g. an escalated retry raced the original)
  st.has = true;
  st.awaiting = false;
  cancel_timer(self, st.adv_timer, st.deferral);
  cancel_timer(self, st.dat_timer, st.deferral);
  if (sim_.events().enabled()) {
    // A caching relay becomes a holder in its own right; its span needs a
    // data record so downstream journeys it later serves chain through it
    // back to the origin.
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpmsData, .node = self,
                        .peer = data.src, .parent = data.holder, .item = data.item});
  }
  if (interest_.wants(self, data.item)) notify_delivered(self, data.item, sim_.now());
  // "a node [advertises] its own data as well as all received data once."
  advertise_once(self, data.item, st.advertised, obs::TraceKind::kSpmsAdv);
}

void SpmsProtocol::on_down(net::NodeId self) {
  // The MAC queue is already gone; stop every timer so the crashed node
  // takes no autonomous action until repair.
  items_.for_each(self, [this, self](net::DataId, ItemState& st) {
    cancel_timer(self, st.adv_timer, st.deferral);
    cancel_timer(self, st.dat_timer, st.deferral);
    st.awaiting = false;
  });
}

void SpmsProtocol::on_up(net::NodeId self) {
  items_.for_each(self, [this, self](net::DataId item, ItemState& st) {
    if (st.has) {
      // Re-sends an ADV the crash swallowed (a no-op once advertised).
      advertise_once(self, item, st.advertised, obs::TraceKind::kSpmsAdv);
      return;
    }
    if (!interest_.wants(self, item) || st.originators.empty()) return;
    // Recovery resets the retry budget (failures are transient, so a stale
    // cap must not strand the item forever).
    if (st.attempts >= params_.max_retries) {
      st.attempts = 0;
      st.multihop_retried = false;
    }
    // Resume the acquisition: give relays a tau_ADV window to re-advertise
    // (our state may be stale), then fall back to the shortest path.
    cancel_timer(self, st.adv_timer, st.deferral);
    st.adv_timer =
        sim_.after(params_.tout_adv, [this, self, item] { on_adv_timeout(self, item); });
  });
}

}  // namespace spms::core
