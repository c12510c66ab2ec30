#include "core/spin.hpp"

#include <cassert>

#include "obs/event_trace.hpp"

namespace spms::core {

SpinProtocol::SpinProtocol(sim::Simulation& sim, net::Network& net, const Interest& interest,
                           ProtocolParams params)
    : DisseminationProtocol(sim, net, interest, params), items_(net.size()) {}

void SpinProtocol::publish(net::NodeId source, net::DataId item) {
  assert(item.origin == source);
  ItemState& st = items_(source, item);
  st.has = true;
  // "advertise … once amongst its neighbors"
  advertise_once(source, item, st.advertised, obs::TraceKind::kSpinAdv);
}

void SpinProtocol::send_req(net::NodeId self, net::DataId item, net::NodeId to) {
  ItemState& st = items_(self, item);
  ++st.attempts;
  net::Packet req;
  req.type = net::PacketType::kReq;
  req.item = item;
  req.requester = self;
  req.target = to;
  req.direct = true;
  req.attempt = static_cast<std::uint16_t>(st.attempts);
  req.dst = to;
  req.size_bytes = params_.req_bytes;
  // Full-power unicast: SPIN does not adapt the level to the distance.
  if (net_.send(self, req, net_.zone_radius())) {
    st.pending = true;
    st.advertiser = to;
    if (sim_.events().enabled()) {
      sim_.events().emit(
          {.at = sim_.now(), .kind = obs::TraceKind::kSpinReq, .node = self, .peer = to, .item = item});
    }
    sim_.cancel(st.retry);
    st.retry =
        sim_.after(retry_wait(st.attempts), [this, self, item] { on_retry_timeout(self, item); });
  }
}

void SpinProtocol::on_retry_timeout(net::NodeId self, net::DataId item) {
  ItemState& st = items_(self, item);
  st.retry = sim::EventHandle{};
  if (st.has) return;
  // Audible traffic: the DATA is queued somewhere we can hear; keep waiting.
  if (defer_while_audible(self, st.deferrals, st.retry,
                          [this, self, item] { on_retry_timeout(self, item); })) {
    return;
  }
  st.pending = false;
  if (out_of_retries(self, item, st.attempts, st.gave_up)) return;
  // Re-request from the advertiser we last heard; it may have been down
  // transiently when our REQ (or its DATA) was lost.
  if (st.advertiser.valid()) send_req(self, item, st.advertiser);
}

void SpinProtocol::on_receive(net::NodeId self, const net::Packet& p) {
  switch (p.type) {
    case net::PacketType::kAdv: handle_adv(self, p); break;
    case net::PacketType::kReq: handle_req(self, p); break;
    case net::PacketType::kData: handle_data(self, p); break;
    case net::PacketType::kRouteUpdate: break;  // SPIN has no routing layer
  }
}

void SpinProtocol::handle_adv(net::NodeId self, const net::Packet& p) {
  ItemState& st = items_(self, p.item);
  if (st.has || st.pending) return;
  st.advertiser = p.src;
  if (!interest_.wants(self, p.item)) return;  // metadata negotiation: skip unwanted data
  if (st.attempts >= params_.max_retries) st.attempts = 0;  // fresh advertiser: budget resets
  send_req(self, p.item, p.src);
}

void SpinProtocol::handle_req(net::NodeId self, const net::Packet& p) {
  if (!items_(self, p.item).has) return;  // stale request (e.g. we crashed before acquiring it)
  if (!admit_service(self, p.item, p.requester)) return;
  net::Packet data;
  data.type = net::PacketType::kData;
  data.item = p.item;
  data.requester = p.requester;
  data.holder = self;
  data.dst = p.requester;
  data.size_bytes = params_.data_bytes;
  net_.send(self, data, net_.zone_radius());
}

void SpinProtocol::handle_data(net::NodeId self, const net::Packet& p) {
  ItemState& st = items_(self, p.item);
  if (st.has) return;  // duplicate
  st.has = true;
  st.pending = false;
  sim_.cancel(st.retry);
  st.retry = sim::EventHandle{};
  if (sim_.events().enabled()) {
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpinData, .node = self,
                        .peer = p.src, .parent = p.holder, .item = p.item});
  }
  if (interest_.wants(self, p.item)) notify_delivered(self, p.item, sim_.now());
  advertise_once(self, p.item, st.advertised, obs::TraceKind::kSpinAdv);
}

void SpinProtocol::on_down(net::NodeId self) {
  // "Any scheduled packet transfer is cancelled": the network cleared the
  // MAC queue; we additionally stop our timers and forget in-flight REQs.
  items_.for_each(self, [this](net::DataId, ItemState& st) {
    sim_.cancel(st.retry);
    st.retry = sim::EventHandle{};
    st.pending = false;
  });
}

void SpinProtocol::on_up(net::NodeId self) {
  items_.for_each(self, [this, self](net::DataId item, ItemState& st) {
    if (st.has) {
      // A publish or re-advertisement that fell into the down window never
      // made it out; advertise now so the item is not lost to the network.
      advertise_once(self, item, st.advertised, obs::TraceKind::kSpinAdv);
      return;
    }
    if (interest_.wants(self, item) && st.advertiser.valid()) {
      // Recovery resets the retry budget: our counterparts are transient
      // failures too, so the acquisition is worth a fresh wave.
      if (st.attempts >= params_.max_retries) st.attempts = 0;
      send_req(self, item, st.advertiser);
    }
  });
}

}  // namespace spms::core
