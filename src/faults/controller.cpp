#include "faults/controller.hpp"

#include <algorithm>

#include "obs/event_trace.hpp"

namespace spms::faults {

std::vector<net::NodeId> k_hop_neighborhood(const net::Network& net, net::NodeId sink,
                                            std::uint32_t hops) {
  std::vector<bool> seen(net.size(), false);
  seen[sink.v] = true;
  std::vector<net::NodeId> frontier{sink};
  std::vector<net::NodeId> zone;  // scratch reused across the whole BFS
  std::vector<net::NodeId> found;
  for (std::uint32_t depth = 0; depth < hops && !frontier.empty(); ++depth) {
    std::vector<net::NodeId> next;
    for (const auto id : frontier) {
      net.neighbors_within(id, net.zone_radius(), /*include_down=*/true, zone);
      for (const auto nb : zone) {
        if (seen[nb.v]) continue;
        seen[nb.v] = true;
        next.push_back(nb);
        found.push_back(nb);
      }
    }
    frontier = std::move(next);
  }
  std::sort(found.begin(), found.end(),
            [](net::NodeId a, net::NodeId b) { return a.v < b.v; });
  return found;
}

// Every sub-stream is forked here, whether or not its process is enabled:
// fork() is const, so construction consumes no parent draws.
FaultController::FaultController(sim::Simulation& sim, net::Network& net,
                                 const FaultPlan& plan, net::NodeId focus)
    : sim_(sim),
      net_(net),
      plan_(plan),
      focus_(focus),
      observer_(net.size()),
      crash_{"crash", plan.crash, sim.rng().fork(kCrashStream)},
      region_rng_(sim.rng().fork(kRegionStream)),
      link_rng_(sim.rng().fork(kLinkStream)),
      sink_churn_{"sink-churn",
                  {.enabled = plan.sink_churn.enabled,
                   .mean_time_between_failures = plan.sink_churn.mean_time_between_failures,
                   .repair_min = plan.sink_churn.repair_min,
                   .repair_max = plan.sink_churn.repair_max},
                  sim.rng().fork(kSinkChurnStream)},
      down_count_(net.size(), 0),
      permanent_(net.size(), 0) {
  // Energy-driven deaths: the network reports each drained finite battery
  // (on a zero-delay event, never from inside MAC bookkeeping), and the
  // node dies for good.  With infinite batteries this never fires.
  net_.set_on_depleted([this](net::NodeId id) {
    if (permanently_dead(id)) return;  // defensive: one death per node
    observer_.record_event("battery", sim_.now(), 1);
    kill(id);
  });
}

FaultController::~FaultController() {
  // Detach the hooks: the network outlives this controller in Scenario's
  // member order, and the closures capture `this`.
  net_.set_link_fault(nullptr);
  net_.set_on_depleted(nullptr);
}

void FaultController::start(sim::TimePoint horizon) {
  start_ = sim_.now();
  horizon_ = horizon;
  if (plan_.crash.enabled) {
    for (std::uint32_t i = 0; i < net_.size(); ++i) schedule_failure(crash_, net::NodeId{i});
  }
  if (plan_.region.enabled) schedule_outage();
  if (plan_.link.enabled) {
    net_.set_link_fault([this](net::NodeId /*from*/, net::NodeId /*to*/) {
      const double p = link_drop_probability(sim_.now());
      return p > 0.0 && link_rng_.bernoulli(p);
    });
  }
  if (plan_.sink_churn.enabled) {
    for (const auto id : k_hop_neighborhood(net_, focus_, plan_.sink_churn.hops)) {
      schedule_failure(sink_churn_, id);
    }
  }
}

void FaultController::finalize() { observer_.finalize(sim_.now()); }

void FaultController::record_delivery(net::NodeId node, sim::TimePoint at) {
  observer_.on_delivery(node, at);
}

double FaultController::link_drop_probability(sim::TimePoint at) const {
  if (!plan_.link.enabled || at >= horizon_ || horizon_ <= start_) return 0.0;
  const double f = (at - start_) / (horizon_ - start_);
  return plan_.link.drop_start + (plan_.link.drop_end - plan_.link.drop_start) * f;
}

void FaultController::schedule_failure(Renewal& r, net::NodeId id) {
  const auto when = sim_.now() + r.rng.exponential(r.params.mean_time_between_failures);
  if (when >= horizon_) return;  // never initiate at or past the horizon
  sim_.at(when, [this, &r, id] { crash(r, id); });
}

void FaultController::crash(Renewal& r, net::NodeId id) {
  observer_.record_event(r.name, sim_.now(), 1);
  fail(id);
  const auto repair_after = r.rng.uniform(r.params.repair_min, r.params.repair_max);
  sim_.after(repair_after, [this, &r, id] {
    repair(id);
    schedule_failure(r, id);
  });
}

void FaultController::schedule_outage() {
  const auto when = sim_.now() + region_rng_.exponential(plan_.region.mean_time_between_outages);
  if (when >= horizon_) return;
  sim_.at(when, [this] { blackout(); });
}

void FaultController::blackout() {
  // Epicentre and repair are drawn unconditionally, so the outage timeline
  // is a pure function of this process's stream; only the disk membership
  // depends on (deterministic) world state such as mobility.
  const auto centre = net::NodeId{static_cast<std::uint32_t>(
      region_rng_.uniform_int(0, static_cast<std::int64_t>(net_.size()) - 1))};
  const auto repair_after =
      region_rng_.uniform(plan_.region.repair_min, plan_.region.repair_max);
  auto affected = net_.neighbors_within(centre, plan_.region.radius_m, /*include_down=*/true);
  affected.push_back(centre);
  observer_.record_event("region", sim_.now(), affected.size());
  for (const auto id : affected) fail(id);
  sim_.after(repair_after, [this, affected = std::move(affected)] {
    for (const auto id : affected) repair(id);
  });
  schedule_outage();
}

void FaultController::fail(net::NodeId id) {
  if (down_count_[id.v]++ == 0) set_up(id, false);
}

void FaultController::repair(net::NodeId id) {
  if (down_count_[id.v] == 0) return;  // unpaired repair: defensive no-op
  if (--down_count_[id.v] == 0 && permanent_[id.v] == 0) set_up(id, true);
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
  set_up(id, false);
}

void FaultController::set_up(net::NodeId id, bool up) {
  // Recorded after the network ran the agent hooks.
  if (!net_.set_up(id, up)) return;
  observer_.on_state_change(id, up, sim_.now());
  if (sim_.events().enabled()) {
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kFaultTransition,
                        .cause = static_cast<std::uint8_t>(up ? obs::FaultPhase::kRepair
                                                              : obs::FaultPhase::kDown),
                        .node = id});
  }
}

}  // namespace spms::faults
