#include "core/flooding.hpp"

#include <cassert>

#include "obs/event_trace.hpp"

namespace spms::core {

FloodingProtocol::FloodingProtocol(sim::Simulation& sim, net::Network& net,
                                   const Interest& interest, ProtocolParams params)
    : DisseminationProtocol(sim, net, interest, params), items_(net.size()) {}

void FloodingProtocol::publish(net::NodeId source, net::DataId item) {
  assert(item.origin == source);
  items_(source, item).seen = true;
  flood(source, item);
}

void FloodingProtocol::flood(net::NodeId self, net::DataId item) {
  bool& rebroadcast = items_(self, item).rebroadcast;
  if (rebroadcast) return;  // flooded already
  rebroadcast = true;
  net::Packet data;
  data.type = net::PacketType::kData;
  data.item = item;
  data.holder = self;
  data.size_bytes = params_.data_bytes;
  net_.send(self, data, net_.zone_radius());
}

void FloodingProtocol::on_receive(net::NodeId self, const net::Packet& p) {
  if (p.type != net::PacketType::kData) return;
  bool& seen = items_(self, p.item).seen;
  if (seen) return;  // implosion duplicate
  seen = true;
  if (sim_.events().enabled()) {
    // Emitted before the delivery record so the span's causal parent exists
    // by the time kDelivery closes it.
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kFloodData, .node = self,
                        .peer = p.src, .parent = p.holder, .item = p.item});
  }
  if (interest_.wants(self, p.item)) notify_delivered(self, p.item, sim_.now());
  flood(self, p.item);
}

}  // namespace spms::core
