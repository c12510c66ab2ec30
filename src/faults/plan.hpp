#pragma once

#include <cstdint>

#include "sim/time.hpp"

/// \file plan.hpp
/// Declarative fault configuration: one data-only struct per fault process
/// plus the FaultPlan that stacks them.  A plan is part of ExperimentConfig,
/// so it serializes into the canonical config (exp::store::canonical) and
/// every parameter feeds the store's config key — fault campaigns are
/// cacheable and shardable like any other sweep.
///
/// faults::FaultController runs the processes (controller.hpp); this header
/// stays light so the experiment layer can describe faults without pulling
/// in the network.  Battery deaths have no entry: a finite battery
/// (ExperimentConfig::battery) always dies when it runs dry.

namespace spms::faults {

/// Per-node transient crash/repair renewal (paper Section 5.1.2): failures
/// with exponential inter-arrival, repair ~ U(repair_min, repair_max),
/// recovery always succeeds.  Defaults are the paper's Table 1 values.
struct CrashRepairParams {
  bool enabled = false;
  sim::Duration mean_time_between_failures = sim::Duration::ms(50.0);
  sim::Duration repair_min = sim::Duration::ms(5.0);
  sim::Duration repair_max = sim::Duration::ms(15.0);
};

/// Spatially correlated blackouts (environmental damage): outage events
/// arrive with exponential inter-arrival; each picks a uniformly random
/// epicentre node and takes down every node within `radius_m` together.
/// The whole region is restored together after ~U(repair_min, repair_max).
struct RegionOutageParams {
  bool enabled = false;
  sim::Duration mean_time_between_outages = sim::Duration::ms(200.0);
  double radius_m = 10.0;
  sim::Duration repair_min = sim::Duration::ms(10.0);
  sim::Duration repair_max = sim::Duration::ms(30.0);
};

/// Link-level degradation: every frame reception independently fails with a
/// probability that ramps linearly from `drop_start` at process start to
/// `drop_end` at the activity horizon, after which the channel heals (drop
/// probability returns to zero) so the run drains to quiescence.  A dropped
/// reception charges no receive energy and reaches no agent — the frame
/// faded below the decode threshold for that receiver.
struct LinkDegradationParams {
  bool enabled = false;
  double drop_start = 0.0;
  double drop_end = 0.2;
};

/// Sink-neighborhood churn: the crash/repair renewal process restricted to
/// the nodes within `hops` zone-radius hops of the sink (the sink itself is
/// excluded) — the paper's worst placement for transient failures, since
/// every route funnels through that neighborhood.
struct SinkChurnParams {
  bool enabled = false;
  std::uint32_t hops = 2;
  sim::Duration mean_time_between_failures = sim::Duration::ms(50.0);
  sim::Duration repair_min = sim::Duration::ms(5.0);
  sim::Duration repair_max = sim::Duration::ms(15.0);
};

/// A stack of fault processes for one run.  Every enabled process runs
/// concurrently on its own RNG sub-stream, so toggling one never perturbs
/// another's event timeline (tests/faults pin this).
struct FaultPlan {
  CrashRepairParams crash;
  RegionOutageParams region;
  LinkDegradationParams link;
  SinkChurnParams sink_churn;

  [[nodiscard]] bool any() const {
    return crash.enabled || region.enabled || link.enabled || sink_churn.enabled;
  }
};

}  // namespace spms::faults
