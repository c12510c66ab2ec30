#include "faults/controller.hpp"

#include "faults/models.hpp"
#include "obs/event_trace.hpp"

namespace spms::faults {

FaultController::FaultController(sim::Simulation& sim, net::Network& net,
                                 const FaultPlan& plan, net::NodeId focus)
    : sim_(sim),
      net_(net),
      observer_(net.size()),
      down_count_(net.size(), 0),
      permanent_(net.size(), 0) {
  net_.set_on_state_change([this](net::NodeId id, bool up) {
    observer_.on_state_change(id, up, sim_.now());
    if (sim_.events().enabled()) {
      sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kFaultTransition,
                          .cause = static_cast<std::uint8_t>(up ? obs::FaultPhase::kRepair
                                                                : obs::FaultPhase::kDown),
                          .node = id});
    }
  });

  // Fixed construction order = fixed start order; each model forks its own
  // sub-stream (fork() is const, so construction consumes no parent draws).
  const auto& root = sim_.rng();
  if (plan.crash.enabled) {
    models_.push_back(
        std::make_unique<CrashRepairModel>(*this, plan.crash, root.fork(kCrashStream)));
  }
  if (plan.region.enabled) {
    models_.push_back(
        std::make_unique<RegionOutageModel>(*this, plan.region, root.fork(kRegionStream)));
  }
  if (plan.battery.enabled) {
    models_.push_back(std::make_unique<BatteryDepletionModel>(*this, plan.battery,
                                                              root.fork(kBatteryStream)));
  }
  if (plan.link.enabled) {
    models_.push_back(
        std::make_unique<LinkDegradationModel>(*this, plan.link, root.fork(kLinkStream)));
  }
  if (plan.sink_churn.enabled) {
    models_.push_back(std::make_unique<CrashRepairModel>(*this, plan.sink_churn, focus,
                                                         root.fork(kSinkChurnStream)));
  }
}

FaultController::~FaultController() {
  // Detach the hooks: the network outlives this controller in Scenario's
  // member order, and the closures capture `this` / the models.
  net_.set_on_state_change(nullptr);
  net_.set_link_fault(nullptr);
  net_.set_on_depleted(nullptr);
}

void FaultController::start(sim::TimePoint horizon) {
  for (auto& model : models_) model->start(horizon);
}

void FaultController::finalize() { observer_.finalize(sim_.now()); }

void FaultController::record_delivery(net::NodeId node, sim::TimePoint at) {
  observer_.on_delivery(node, at);
}

FaultModel* FaultController::model(std::string_view name) const {
  for (const auto& m : models_) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

void FaultController::fail(net::NodeId id) {
  if (down_count_[id.v]++ == 0) net_.set_up(id, false);
}

void FaultController::repair(net::NodeId id) {
  if (down_count_[id.v] == 0) return;  // unpaired repair: defensive no-op
  if (--down_count_[id.v] == 0 && permanent_[id.v] == 0) net_.set_up(id, true);
}

void FaultController::kill(net::NodeId id) {
  if (permanent_[id.v] != 0) return;
  permanent_[id.v] = 1;
  observer_.on_permanent_death(id, sim_.now());
  if (sim_.events().enabled()) {
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kFaultTransition,
                        .cause = static_cast<std::uint8_t>(obs::FaultPhase::kPermanentDeath),
                        .node = id});
  }
  net_.set_up(id, false);
}

}  // namespace spms::faults
