#include "exp/scenario.hpp"

#include <limits>
#include <stdexcept>

#include "core/flooding.hpp"
#include "core/spin.hpp"
#include "core/spms.hpp"
#include "net/topology.hpp"

namespace spms::exp {

Scenario::Scenario(const ExperimentConfig& config) : config_(config) {
  sim_ = std::make_unique<sim::Simulation>(config_.seed);

  // Uniform-density deployment: a square grid sized to hold node_count
  // points (extra grid slots simply unpopulated), or a uniform random
  // scatter over a field of the same density.
  const std::size_t side = net::grid_side_for(config_.node_count);
  field_side_m_ = static_cast<double>(side - 1) * config_.grid_pitch_m;
  std::vector<net::Point> positions;
  switch (config_.deployment) {
    case Deployment::kGrid:
      positions = net::grid_deployment(side, config_.grid_pitch_m);
      positions.resize(config_.node_count);
      break;
    case Deployment::kUniformRandom: {
      auto rng = sim_->rng().fork(0xDE9107);
      positions = net::random_deployment(config_.node_count, field_side_m_, rng);
      break;
    }
  }

  net_ = std::make_unique<net::Network>(*sim_, net::RadioTable::mica2(), config_.mac,
                                        config_.energy, std::move(positions),
                                        config_.zone_radius_m, config_.battery);

  // The node nearest the field centre: sink of the kSink pattern, anchor of
  // the sink-churn fault model.
  {
    const net::Point centre{field_side_m_ / 2.0, field_side_m_ / 2.0};
    double best = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < net_->size(); ++i) {
      const double d = distance(net_->position(net::NodeId{i}), centre);
      if (d < best) {
        best = d;
        central_node_ = net::NodeId{i};
      }
    }
  }

  switch (config_.pattern) {
    case TrafficPattern::kAllToAll:
      interest_ = std::make_unique<core::AllToAllInterest>(net_->size());
      break;
    case TrafficPattern::kCluster:
      interest_ = std::make_unique<core::ClusterInterest>(*net_, config_.zone_radius_m,
                                                          config_.cluster_p_other,
                                                          config_.seed ^ 0xC1057E8ull);
      break;
    case TrafficPattern::kSink:
      interest_ = std::make_unique<core::SinkInterest>(central_node_);
      break;
  }

  switch (config_.protocol) {
    case ProtocolKind::kSpms:
      // SPMS is the only protocol that runs DBF; the constructor performs
      // the initial table build (charging its energy as kRouting).
      routing_ = std::make_unique<routing::RoutingService>(*net_, config_.dbf);
      protocol_ = std::make_unique<core::SpmsProtocol>(*sim_, *net_, *routing_, *interest_,
                                                       config_.proto, config_.spms_ext);
      break;
    case ProtocolKind::kSpin:
      protocol_ = std::make_unique<core::SpinProtocol>(*sim_, *net_, *interest_, config_.proto);
      break;
    case ProtocolKind::kFlooding:
      protocol_ =
          std::make_unique<core::FloodingProtocol>(*sim_, *net_, *interest_, config_.proto);
      break;
  }

  collector_ = std::make_unique<core::Collector>();
  if (config_.faults.any()) {
    faults_ = std::make_unique<faults::FaultController>(*sim_, *net_, config_.faults,
                                                        central_node_);
  }
  protocol_->set_delivery_callback(
      [sim = sim_.get(), collector = collector_.get(), faults = faults_.get()](
          net::NodeId node, net::DataId item, sim::TimePoint at) {
        const double delay_ms = collector->record_delivery(node, item, at);
        if (sim->events().enabled()) {
          sim->events().emit({.at = at, .kind = obs::TraceKind::kDelivery, .node = node,
                              .item = item, .value = delay_ms});
        }
        if (faults != nullptr) faults->record_delivery(node, at);
      });

  traffic_ = std::make_unique<core::TrafficGenerator>(*sim_, *net_, *protocol_, *interest_,
                                                      *collector_, config_.traffic,
                                                      config_.seed ^ 0x7AFF1Cu);

  if (config_.mobility) {
    if (config_.pattern == TrafficPattern::kCluster) {
      // ClusterInterest::wants() depends on positions; combining it with
      // mobility would make interest time-varying, which the paper never
      // does.
      throw std::invalid_argument{"Scenario: mobility requires the all-to-all pattern"};
    }
    mobility_ = std::make_unique<net::MobilityProcess>(*sim_, *net_, config_.mobility_params,
                                                       field_side_m_);
    mobility_->set_on_moved([this] {
      // "When a node moves …, the routing tables of its zone neighbors get
      // updated through re-execution of the DBF."  SPIN keeps no tables.
      if (routing_) routing_->rebuild();
      protocol_->on_topology_changed();
    });
  }
}

void Scenario::start() {
  const auto horizon = sim_->now() + config_.activity_horizon;
  traffic_->start();
  // Idle/sleep drain ticks until the horizon (a no-op for infinite
  // batteries), after which the run drains to quiescence like any other
  // activity-initiating process.
  net_->start_idle_drain(horizon);
  if (faults_) faults_->start(horizon);
  if (mobility_) mobility_->start(horizon);
}

std::size_t Scenario::run() { return sim_->run(config_.max_events); }

}  // namespace spms::exp
