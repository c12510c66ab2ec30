#include "faults/models.hpp"

#include <algorithm>
#include <cmath>

#include "faults/controller.hpp"

namespace spms::faults {

// --- CrashRepairModel --------------------------------------------------------

namespace {

/// The nodes within `hops` zone-radius hops of `sink` (sink excluded),
/// ascending id: BFS over the zone-radius connectivity graph on the
/// deployment as it stands now.
std::vector<net::NodeId> k_hop_neighborhood(net::Network& net, net::NodeId sink,
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

}  // namespace

CrashRepairModel::CrashRepairModel(FaultController& ctrl, const CrashRepairParams& params,
                                   sim::Rng rng)
    : ctrl_(ctrl), params_(params), rng_(rng) {}

CrashRepairModel::CrashRepairModel(FaultController& ctrl, const SinkChurnParams& params,
                                   net::NodeId sink, sim::Rng rng)
    : ctrl_(ctrl),
      name_("sink-churn"),
      params_{.enabled = params.enabled,
              .mean_time_between_failures = params.mean_time_between_failures,
              .repair_min = params.repair_min,
              .repair_max = params.repair_max},
      sink_(sink),
      hops_(params.hops),
      rng_(rng) {}

void CrashRepairModel::start(sim::TimePoint horizon) {
  horizon_ = horizon;
  auto& net = ctrl_.network();
  if (!sink_.valid()) {
    for (std::uint32_t i = 0; i < net.size(); ++i) schedule_failure(net::NodeId{i});
    return;
  }
  targets_ = k_hop_neighborhood(net, sink_, hops_);
  for (const auto id : targets_) schedule_failure(id);
}

void CrashRepairModel::schedule_failure(net::NodeId id) {
  auto& sim = ctrl_.simulation();
  const auto wait = rng_.exponential(params_.mean_time_between_failures);
  const auto when = sim.now() + wait;
  if (when >= horizon_) return;  // never initiate at or past the horizon
  sim.at(when, [this, id] { crash(id); });
}

void CrashRepairModel::crash(net::NodeId id) {
  auto& sim = ctrl_.simulation();
  ++events_;
  ctrl_.observer().record_event(name(), sim.now(), 1);
  ctrl_.fail(id);
  const auto repair = rng_.uniform(params_.repair_min, params_.repair_max);
  sim.after(repair, [this, id] {
    ctrl_.repair(id);
    schedule_failure(id);
  });
}

// --- RegionOutageModel -------------------------------------------------------

RegionOutageModel::RegionOutageModel(FaultController& ctrl, RegionOutageParams params,
                                     sim::Rng rng)
    : ctrl_(ctrl), params_(params), rng_(rng) {}

void RegionOutageModel::start(sim::TimePoint horizon) {
  horizon_ = horizon;
  schedule_outage();
}

void RegionOutageModel::schedule_outage() {
  auto& sim = ctrl_.simulation();
  const auto wait = rng_.exponential(params_.mean_time_between_outages);
  const auto when = sim.now() + wait;
  if (when >= horizon_) return;
  sim.at(when, [this] { blackout(); });
}

void RegionOutageModel::blackout() {
  auto& sim = ctrl_.simulation();
  auto& net = ctrl_.network();
  // Epicentre and repair are drawn unconditionally, so the outage timeline
  // is a pure function of this model's stream; only the disk membership
  // depends on (deterministic) world state such as mobility.
  const auto centre = net::NodeId{static_cast<std::uint32_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(net.size()) - 1))};
  const auto repair = rng_.uniform(params_.repair_min, params_.repair_max);
  auto affected = net.neighbors_within(centre, params_.radius_m, /*include_down=*/true);
  affected.push_back(centre);
  ++events_;
  ctrl_.observer().record_event(name(), sim.now(), affected.size());
  for (const auto id : affected) ctrl_.fail(id);
  sim.after(repair, [this, affected = std::move(affected)] {
    for (const auto id : affected) ctrl_.repair(id);
  });
  schedule_outage();
}

// --- BatteryDepletionModel ---------------------------------------------------

BatteryDepletionModel::BatteryDepletionModel(FaultController& ctrl,
                                             BatteryDepletionParams params, sim::Rng rng)
    : ctrl_(ctrl), params_(params), rng_(rng) {}

void BatteryDepletionModel::start(sim::TimePoint horizon) {
  static_cast<void>(horizon);  // depletion is physics, not an arrival process
  static_cast<void>(params_);
  ctrl_.network().set_on_depleted([this](net::NodeId id) { on_depleted(id); });
}

void BatteryDepletionModel::on_depleted(net::NodeId id) {
  if (ctrl_.permanently_dead(id)) return;  // defensive: one death per node
  ++events_;
  deaths_.push_back(id);
  ctrl_.observer().record_event(name(), ctrl_.simulation().now(), 1);
  ctrl_.kill(id);
}

// --- LinkDegradationModel ----------------------------------------------------

LinkDegradationModel::LinkDegradationModel(FaultController& ctrl,
                                           LinkDegradationParams params, sim::Rng rng)
    : ctrl_(ctrl), params_(params), rng_(rng) {}

void LinkDegradationModel::start(sim::TimePoint horizon) {
  start_ = ctrl_.simulation().now();
  horizon_ = horizon;
  started_ = true;
  ctrl_.network().set_link_fault([this](net::NodeId /*from*/, net::NodeId /*to*/) {
    const double p = drop_probability(ctrl_.simulation().now());
    if (p <= 0.0) return false;
    const bool drop = rng_.bernoulli(p);
    if (drop) ++drops_;
    return drop;
  });
}

double LinkDegradationModel::drop_probability(sim::TimePoint at) const {
  if (!started_ || at >= horizon_ || horizon_ <= start_) return 0.0;
  const double f = (at - start_) / (horizon_ - start_);
  return params_.drop_start + (params_.drop_end - params_.drop_start) * f;
}

}  // namespace spms::faults
