#include "core/protocol.hpp"

namespace spms::core {

DisseminationProtocol::DisseminationProtocol(sim::Simulation& sim, net::Network& net,
                                             const Interest& interest, ProtocolParams params)
    : sim_(sim),
      net_(net),
      interest_(interest),
      params_(params) {
  for (std::uint32_t i = 0; i < net_.size(); ++i) net_.set_agent(net::NodeId{i}, this);
}

DisseminationProtocol::~DisseminationProtocol() {
  for (std::uint32_t i = 0; i < net_.size(); ++i) net_.set_agent(net::NodeId{i}, nullptr);
}

void DisseminationProtocol::advertise_once(net::NodeId self, net::DataId item, bool& advertised,
                                           obs::TraceKind kind) {
  if (advertised) return;
  net::Packet adv;
  adv.type = net::PacketType::kAdv;
  adv.item = item;
  adv.size_bytes = params_.adv_bytes;
  if (net_.send(self, adv, net_.zone_radius())) {
    advertised = true;
    if (sim_.events().enabled()) {
      sim_.events().emit({.at = sim_.now(), .kind = kind, .node = self, .item = item});
    }
  }
}

sim::Duration DisseminationProtocol::retry_wait(int attempts) const {
  const int exp = std::min(std::max(attempts - 1, 0), params_.max_backoff_exp);
  return params_.tout_dat * std::pow(params_.retry_backoff, exp);
}

bool DisseminationProtocol::admit_service(net::NodeId holder, net::DataId item,
                                          net::NodeId requester) {
  const auto [last, first] = served_.try_emplace({holder, item, requester}, sim_.now());
  if (first) return true;
  if (sim_.now() - *last < params_.service_guard) return false;
  *last = sim_.now();
  return true;
}

bool DisseminationProtocol::out_of_retries(net::NodeId self, net::DataId item, int attempts,
                                           bool& gave_up) {
  if (attempts < params_.max_retries) return false;
  if (!gave_up) {
    gave_up = true;
    ++given_up_;
    if (sim_.events().enabled()) {
      sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kGiveUp, .node = self,
                          .item = item, .value = static_cast<double>(attempts)});
    }
  }
  return true;
}

}  // namespace spms::core
