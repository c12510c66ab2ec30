#include "core/traffic.hpp"

#include "obs/event_trace.hpp"

namespace spms::core {

TrafficGenerator::TrafficGenerator(sim::Simulation& sim, net::Network& net,
                                   DisseminationProtocol& proto, const Interest& interest,
                                   Collector& collector, TrafficParams params,
                                   std::uint64_t stream)
    : sim_(sim),
      net_(net),
      proto_(proto),
      interest_(interest),
      collector_(collector),
      params_(params),
      rng_(sim.rng().fork(stream)) {}

void TrafficGenerator::start() {
  // All arrival instants are drawn up front (a renewal process per node), so
  // the schedule is independent of protocol behaviour — SPIN and SPMS see
  // identical workloads for the same seed.
  for (std::size_t i = 0; i < net_.size(); ++i) {
    const net::NodeId node{static_cast<std::uint32_t>(i)};
    auto node_rng = rng_.fork(i);
    sim::TimePoint t = sim_.now();
    for (int k = 0; k < params_.packets_per_node; ++k) {
      t = t + node_rng.exponential(params_.mean_interarrival);
      const net::DataId item{node, static_cast<std::uint32_t>(k)};
      sim_.at(t, [this, node, item] {
        const std::size_t expected = interest_.expected_count(item);
        collector_.record_publish(item, sim_.now(), expected);
        if (sim_.events().enabled()) {
          sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kPublish, .node = node,
                              .item = item, .value = static_cast<double>(expected)});
        }
        proto_.publish(node, item);
      });
    }
  }
}

}  // namespace spms::core
