#include "core/spin.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/event_trace.hpp"

namespace spms::core {

SpinProtocol::SpinProtocol(sim::Simulation& sim, net::Network& net, const Interest& interest,
                           ProtocolParams params)
    : sim_(sim), net_(net), interest_(interest), params_(params) {
  agents_.reserve(net_.size());
  for (std::size_t i = 0; i < net_.size(); ++i) {
    const net::NodeId id{static_cast<std::uint32_t>(i)};
    agents_.emplace_back(*this, id, arena_);
    net_.set_agent(id, &agents_.back());
  }
}

SpinProtocol::~SpinProtocol() {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    net_.set_agent(net::NodeId{static_cast<std::uint32_t>(i)}, nullptr);
  }
}

void SpinProtocol::publish(net::NodeId source, net::DataId item) {
  assert(item.origin == source);
  ItemState& st = state(source, item);
  st.has = true;
  broadcast_adv(source, item);
}

void SpinProtocol::broadcast_adv(net::NodeId self, net::DataId item) {
  ItemState& st = state(self, item);
  if (st.advertised) return;  // "advertise … once amongst its neighbors"
  net::Packet adv;
  adv.type = net::PacketType::kAdv;
  adv.item = item;
  adv.size_bytes = params_.adv_bytes;
  // SPIN's single power level: everything goes at the zone radius.
  if (net_.send(self, adv, net_.zone_radius())) {
    st.advertised = true;
    if (sim_.events().enabled()) {
      sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kSpinAdv, .node = self, .item = item});
    }
  }
}

void SpinProtocol::send_req(net::NodeId self, net::DataId item, net::NodeId to) {
  ItemState& st = state(self, item);
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
    arm_retry(self, item);
  }
}

void SpinProtocol::arm_retry(net::NodeId self, net::DataId item) {
  ItemState& st = state(self, item);
  sim_.cancel(st.retry);
  // Exponential backoff: under load the reply may simply still be queued.
  const int exp = std::min(std::max(st.attempts - 1, 0), params_.max_backoff_exp);
  const auto wait = params_.tout_dat * std::pow(params_.retry_backoff, exp);
  st.retry = sim_.after(wait, [this, self, item] { on_retry_timeout(self, item); });
}

void SpinProtocol::on_retry_timeout(net::NodeId self, net::DataId item) {
  ItemState& st = state(self, item);
  st.retry = sim::EventHandle{};
  if (st.has) return;
  // Audible traffic: the DATA is queued somewhere we can hear; keep waiting.
  // Check with the current window, schedule the next wake with the grown
  // one, so a quiet channel always lets the timer fire on schedule.
  if (net_.channel_quiet_at(self, defer_window(params_.tout_dat, st.deferrals)) > sim_.now() &&
      st.deferrals < params_.timer_defer_limit) {
    ++st.deferrals;
    const auto wake = net_.channel_quiet_at(self, defer_window(params_.tout_dat, st.deferrals));
    st.retry = sim_.at(wake, [this, self, item] { on_retry_timeout(self, item); });
    return;
  }
  st.pending = false;
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
  // Re-request from the advertiser we last heard; it may have been down
  // transiently when our REQ (or its DATA) was lost.
  if (st.advertiser.valid()) send_req(self, item, st.advertiser);
}

void SpinProtocol::handle_receive(net::NodeId self, const net::Packet& p) {
  switch (p.type) {
    case net::PacketType::kAdv: handle_adv(self, p); break;
    case net::PacketType::kReq: handle_req(self, p); break;
    case net::PacketType::kData: handle_data(self, p); break;
    case net::PacketType::kRouteUpdate: break;  // SPIN has no routing layer
  }
}

void SpinProtocol::handle_adv(net::NodeId self, const net::Packet& p) {
  ItemState& st = state(self, p.item);
  if (st.has || st.pending) return;
  st.advertiser = p.src;
  if (!interest_.wants(self, p.item)) return;  // metadata negotiation: skip unwanted data
  if (st.attempts >= params_.max_retries) st.attempts = 0;  // fresh advertiser: budget resets
  send_req(self, p.item, p.src);
}

void SpinProtocol::handle_req(net::NodeId self, const net::Packet& p) {
  ItemState& st = state(self, p.item);
  if (!st.has) return;  // stale request (e.g. we crashed before acquiring it)
  // Rate-limit service per requester: a spurious retry whose DATA is still
  // in our MAC queue must not enqueue a second copy.
  auto& served = agents_[self.v].served[p.item];
  const auto it = served.find(p.requester);
  if (it != served.end() && sim_.now() - it->second < params_.service_guard) return;
  served[p.requester] = sim_.now();
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
  ItemState& st = state(self, p.item);
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
  broadcast_adv(self, p.item);
}

void SpinProtocol::handle_down(net::NodeId self) {
  // "Any scheduled packet transfer is cancelled": the network cleared the
  // MAC queue; we additionally stop our timers and forget in-flight REQs.
  for (auto& [item, st] : agents_[self.v].items) {
    sim_.cancel(st.retry);
    st.retry = sim::EventHandle{};
    st.pending = false;
  }
}

void SpinProtocol::handle_up(net::NodeId self) {
  for (auto& [item, st] : agents_[self.v].items) {
    if (st.has) {
      // A publish or re-advertisement that fell into the down window never
      // made it out; advertise now so the item is not lost to the network.
      if (!st.advertised) broadcast_adv(self, item);
      continue;
    }
    if (interest_.wants(self, item) && st.advertiser.valid()) {
      // Recovery resets the retry budget: our counterparts are transient
      // failures too, so the acquisition is worth a fresh wave.
      if (st.attempts >= params_.max_retries) st.attempts = 0;
      send_req(self, item, st.advertiser);
    }
  }
}

}  // namespace spms::core
