#include "core/spms.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/event_trace.hpp"

namespace spms::core {

SpmsProtocol::SpmsProtocol(sim::Simulation& sim, net::Network& net,
                           routing::RoutingService& routing, const Interest& interest,
                           ProtocolParams params, SpmsExtensions ext)
    : sim_(sim),
      net_(net),
      routing_(routing),
      interest_(interest),
      params_(params),
      ext_(ext) {
  // Agents live by value in one reserved vector (stable addresses — the
  // network keeps raw pointers) and their maps share the protocol arena.
  agents_.reserve(net_.size());
  for (std::size_t i = 0; i < net_.size(); ++i) {
    const net::NodeId id{static_cast<std::uint32_t>(i)};
    agents_.emplace_back(*this, id, arena_);
    net_.set_agent(id, &agents_.back());
  }
}

SpmsProtocol::~SpmsProtocol() {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    net_.set_agent(net::NodeId{static_cast<std::uint32_t>(i)}, nullptr);
  }
}

double SpmsProtocol::route_cost(net::NodeId self, net::NodeId dest) const {
  const auto r = routing_.route(self, dest);
  return r ? r->cost : std::numeric_limits<double>::infinity();
}

void SpmsProtocol::publish(net::NodeId source, net::DataId item) {
  assert(item.origin == source);
  ItemState& st = state(source, item);
  st.has = true;
  broadcast_adv(source, item);
}

void SpmsProtocol::broadcast_adv(net::NodeId self, net::DataId item) {
  ItemState& st = state(self, item);
  if (st.advertised) return;  // each node advertises an item once
  net::Packet adv;
  adv.type = net::PacketType::kAdv;
  adv.item = item;
  adv.size_bytes = params_.adv_bytes;
  // The ADV must reach the whole zone, so it goes out at the zone radius
  // (the node's maximum power) — the only SPMS frame that always does.
  if (net_.send(self, adv, net_.zone_radius())) {
    st.advertised = true;
    if (sim_.events().enabled()) {
      sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpmsAdv, .node = self, .item = item});
    }
  }
}

void SpmsProtocol::arm_dat_timer(net::NodeId self, net::DataId item) {
  ItemState& st = state(self, item);
  sim_.cancel(st.dat_timer);
  // Exponential backoff across retries: a spuriously short wait would
  // re-request data whose reply is merely queued behind other frames.
  const int exp = std::min(std::max(st.attempts - 1, 0), params_.max_backoff_exp);
  const auto wait = params_.tout_dat * std::pow(params_.retry_backoff, exp);
  st.dat_timer = sim_.after(wait, [this, self, item] { on_dat_timeout(self, item); });
  st.awaiting = true;
}

void SpmsProtocol::send_req_via_route(net::NodeId self, net::DataId item, net::NodeId target) {
  const net::NodeId next = routing_.next_hop(self, target);
  if (!next.valid() || next == target) {
    // Either the table has no multi-hop entry or the best path IS the direct
    // link; both collapse to a direct request.
    send_req_direct(self, item, target);
    return;
  }
  net::Packet req;
  req.type = net::PacketType::kReq;
  req.item = item;
  req.requester = self;
  req.target = target;
  req.direct = false;
  req.dst = next;
  req.size_bytes = params_.req_bytes;
  ItemState& st = state(self, item);
  req.attempt = static_cast<std::uint16_t>(st.attempts + 1);
  const bool sent = net_.send(self, req, net_.distance_between(self, next));
  if (sent && sim_.events().enabled()) {
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpmsReqMultihop, .node = self,
                        .peer = target, .via = next, .item = item});
  }
  ++st.attempts;
  st.last_direct = false;
  st.last_target = target;
  // Arm tau_DAT even when the send failed (e.g. the hop moved out of range):
  // the timeout drives the escalation ladder to another originator.
  arm_dat_timer(self, item);
  (void)sent;
}

void SpmsProtocol::send_req_direct(net::NodeId self, net::DataId item, net::NodeId target) {
  net::Packet req;
  req.type = net::PacketType::kReq;
  req.item = item;
  req.requester = self;
  req.target = target;
  req.direct = true;
  req.dst = target;
  req.size_bytes = params_.req_bytes;
  ItemState& st = state(self, item);
  req.attempt = static_cast<std::uint16_t>(st.attempts + 1);
  const bool sent = net_.send(self, req, net_.distance_between(self, target));
  if (sent && sim_.events().enabled()) {
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpmsReqDirect, .node = self,
                        .peer = target, .item = item});
  }
  ++st.attempts;
  st.last_direct = true;
  st.last_target = target;
  // A failed send (target out of range after mobility) still arms tau_DAT so
  // the escalation ladder can move on instead of stranding the item.
  arm_dat_timer(self, item);
  (void)sent;
}

void SpmsProtocol::handle_receive(net::NodeId self, const net::Packet& p) {
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

  ItemState& st = state(self, p.item);
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
    sim_.cancel(st.adv_timer);
    st.adv_timer = sim::EventHandle{};
    send_req_direct(self, p.item, prone_of(st));
    return;
  }

  // Multi-hop territory: wait for a relay to re-advertise (tau_ADV).  A
  // PRONE change restarts the countdown ("C … resets its timer tau_ADV").
  if (!adv_armed || prone_changed) {
    sim_.cancel(st.adv_timer);
    const auto item = p.item;
    st.adv_timer = sim_.after(params_.tout_adv, [this, self, item] { on_adv_timeout(self, item); });
  }
}

void SpmsProtocol::on_adv_timeout(net::NodeId self, net::DataId item) {
  ItemState& st = state(self, item);
  st.adv_timer = sim::EventHandle{};
  if (st.has || st.awaiting) return;  // raced with a delivery or a request
  // Audible traffic means relays are still working through their queues;
  // defer the verdict instead of prematurely pulling from a distant PRONE.
  // The proceed-condition uses the window this wake was scheduled with;
  // the next wake is scheduled with the (grown) next window, so a quiet
  // channel always lets the timer fire at its scheduled instant.
  if (net_.channel_quiet_at(self, defer_window(params_.tout_dat, st.deferrals)) > sim_.now() &&
      st.deferrals < params_.timer_defer_limit) {
    ++st.deferrals;
    const auto wake = net_.channel_quiet_at(self, defer_window(params_.tout_dat, st.deferrals));
    st.adv_timer = sim_.at(wake, [this, self, item] { on_adv_timeout(self, item); });
    return;
  }
  // No relay re-advertised in time: request from the PRONE through the
  // shortest path.
  send_req_via_route(self, item, prone_of(st));
}

void SpmsProtocol::on_dat_timeout(net::NodeId self, net::DataId item) {
  ItemState& st = state(self, item);
  st.dat_timer = sim::EventHandle{};
  if (st.has) {
    st.awaiting = false;
    return;
  }
  // The reply is plainly queued behind traffic we can hear; keep waiting.
  // (Same window discipline as on_adv_timeout: check with the current
  // window, schedule the next wake with the grown one.)
  if (net_.channel_quiet_at(self, defer_window(params_.tout_dat, st.deferrals)) > sim_.now() &&
      st.deferrals < params_.timer_defer_limit) {
    ++st.deferrals;
    const auto wake = net_.channel_quiet_at(self, defer_window(params_.tout_dat, st.deferrals));
    st.dat_timer = sim_.at(wake, [this, self, item] { on_dat_timeout(self, item); });
    return;
  }
  st.awaiting = false;

  if (st.attempts >= params_.max_retries) {
    if (!st.gave_up) {
      st.gave_up = true;
      count_give_up();
      if (sim_.events().enabled()) {
        sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kGiveUp, .node = self,
                            .item = item, .value = static_cast<double>(st.attempts)});
      }
    }
    return;
  }

  // Cross-zone acquisitions have no in-zone originators to escalate to; the
  // recovery is a bounded re-send along the same courier route (the holder
  // or a relay may have been down transiently).
  if (!st.cross_plan.empty()) {
    send_req_cross_zone(self, item, st.cross_first_hop, st.cross_plan);
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
      send_req_via_route(self, item, prone_of(st));
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
  send_req_direct(self, item, target);
}

void SpmsProtocol::handle_forwarded_adv(net::NodeId self, const net::Packet& p) {
  const net::NodeId holder = p.target;
  if (self == holder || self == p.item.origin) return;
  ItemState& st = state(self, p.item);
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
    send_req_cross_zone(self, p.item, p.src, std::move(plan));
    return;
  }
  maybe_forward_metadata(self, p, holder);
}

void SpmsProtocol::maybe_forward_metadata(net::NodeId self, const net::Packet& p,
                                          net::NodeId holder) {
  if (ext_.cross_zone_ttl == 0) return;
  ItemState& st = state(self, p.item);
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

void SpmsProtocol::send_req_cross_zone(net::NodeId self, net::DataId item,
                                       net::NodeId first_hop, std::vector<net::NodeId> plan) {
  net::Packet req;
  req.type = net::PacketType::kReq;
  req.item = item;
  req.requester = self;
  req.target = plan.empty() ? first_hop : plan.back();
  req.direct = false;
  req.dst = first_hop;
  req.source_route = plan;
  req.size_bytes = params_.req_bytes + 4 * plan.size();
  ItemState& st = state(self, item);
  req.attempt = static_cast<std::uint16_t>(st.attempts + 1);
  const bool sent = net_.send(self, req, net_.distance_between(self, first_hop));
  if (sent && sim_.events().enabled()) {
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpmsReqCrosszone, .node = self,
                        .peer = req.target, .via = first_hop, .item = item});
  }
  ++st.attempts;
  st.last_direct = false;
  st.last_target = req.target;
  st.cross_first_hop = first_hop;
  st.cross_plan = std::move(plan);
  arm_dat_timer(self, item);
}

void SpmsProtocol::handle_req(net::NodeId self, const net::Packet& p) {
  if (p.target == self) {
    ItemState& st = state(self, p.item);
    if (st.has) {
      // Rate-limit service per requester; a retry whose DATA is still queued
      // here must not enqueue another copy.
      auto& served = agents_[self.v].served[p.item];
      const auto it = served.find(p.requester);
      if (it == served.end() || sim_.now() - it->second >= params_.service_guard) {
        served[p.requester] = sim_.now();
        answer_req(self, p);
      }
    }
    // else: stale request (we never had the data, or a crash wiped the
    // advertisement race); the requester's tau_DAT recovers.
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
    data.dst = req.requester;
    net_.send(self, data, net_.distance_between(self, req.requester));
    return;
  }
  // Multi-hop: send the data back along the reverse of the REQ's relay
  // trail ("the data is sent in exactly the same manner as the received
  // request").
  data.route.assign(req.route.rbegin(), req.route.rend());
  const net::NodeId first = data.route.empty() ? req.requester : data.route.front();
  data.dst = first;
  net_.send(self, data, net_.distance_between(self, first));
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
    req.dst = next;
    net_.send(self, req, net_.distance_between(self, next));
    return;
  }
  net::NodeId next = routing_.next_hop(self, req.target);
  if (!next.valid()) {
    // No zone-local route from this relay; fall back to a direct hop when
    // physically possible, otherwise drop and let tau_DAT recover.
    if (net_.distance_between(self, req.target) <= net_.radio().max_range()) {
      next = req.target;
    } else {
      ++unroutable_;
      return;
    }
  }
  req.route.push_back(self);
  req.dst = next;
  net_.send(self, req, net_.distance_between(self, next));
}

void SpmsProtocol::forward_data(net::NodeId self, net::Packet data) {
  if (sim_.events().enabled()) {
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpmsRelayData, .node = self,
                        .peer = data.requester, .item = data.item});
  }
  assert(!data.route.empty() && data.route.front() == self);
  data.route.erase(data.route.begin());
  const net::NodeId next = data.route.empty() ? data.requester : data.route.front();
  data.dst = next;
  net_.send(self, data, net_.distance_between(self, next));
}

void SpmsProtocol::handle_data(net::NodeId self, const net::Packet& p) {
  if (p.requester != self) {
    // We are a relay on the source route.  The published protocol forwards
    // without caching; the relay_caching extension (the paper's Section 6
    // future work) keeps a copy and re-advertises it like a receiver, which
    // shortens recovery paths and adds originator diversity.
    if (ext_.relay_caching) {
      ItemState& st = state(self, p.item);
      if (!st.has) {
        st.has = true;
        st.awaiting = false;
        sim_.cancel(st.adv_timer);
        sim_.cancel(st.dat_timer);
        st.adv_timer = st.dat_timer = sim::EventHandle{};
        if (sim_.events().enabled()) {
          // The cached copy makes this relay a holder in its own right; its
          // span needs a data record so downstream journeys it later serves
          // chain through it back to the origin.
          sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpmsData, .node = self,
                              .peer = p.src, .parent = p.holder, .item = p.item});
        }
        if (interest_.wants(self, p.item)) notify_delivered(self, p.item, sim_.now());
        broadcast_adv(self, p.item);
      }
    }
    forward_data(self, p);
    return;
  }
  ItemState& st = state(self, p.item);
  if (st.has) return;  // duplicate (e.g. an escalated retry raced the original)
  st.has = true;
  st.awaiting = false;
  sim_.cancel(st.adv_timer);
  sim_.cancel(st.dat_timer);
  st.adv_timer = st.dat_timer = sim::EventHandle{};
  if (sim_.events().enabled()) {
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpmsData, .node = self,
                        .peer = p.src, .parent = p.holder, .item = p.item});
  }
  if (interest_.wants(self, p.item)) notify_delivered(self, p.item, sim_.now());
  // "a node [advertises] its own data as well as all received data once."
  broadcast_adv(self, p.item);
}

void SpmsProtocol::handle_down(net::NodeId self) {
  // The MAC queue is already gone; stop every timer so the crashed node
  // takes no autonomous action until repair.
  for (auto& [item, st] : agents_[self.v].items) {
    sim_.cancel(st.adv_timer);
    sim_.cancel(st.dat_timer);
    st.adv_timer = st.dat_timer = sim::EventHandle{};
    st.awaiting = false;
  }
}

void SpmsProtocol::handle_up(net::NodeId self) {
  for (auto& [item, st] : agents_[self.v].items) {
    if (st.has) {
      if (!st.advertised) broadcast_adv(self, item);  // ADV lost to the crash
      continue;
    }
    if (!interest_.wants(self, item) || st.originators.empty()) continue;
    // Recovery resets the retry budget (failures are transient, so a stale
    // cap must not strand the item forever).
    if (st.attempts >= params_.max_retries) {
      st.attempts = 0;
      st.multihop_retried = false;
    }
    // Resume the acquisition: give relays a tau_ADV window to re-advertise
    // (our state may be stale), then fall back to the shortest path.
    const auto item_copy = item;
    sim_.cancel(st.adv_timer);
    st.adv_timer =
        sim_.after(params_.tout_adv, [this, self, item_copy] { on_adv_timeout(self, item_copy); });
  }
}

}  // namespace spms::core
