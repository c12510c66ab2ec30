/// \file fault_campaign.cpp
/// The fault-tolerance campaign: every fault model against the crash-only
/// baseline (scenario "faults-models"), or the stacked worst case across
/// intensities ("faults-intensity" with the x0.5..x4 ladder).
///
/// The paper's resilience claim rests on one stressor — independent
/// per-node crash/repair.  This bench widens the verdict: correlated
/// region blackouts, permanent battery deaths, link-level fades, and
/// sink-neighborhood churn, each with recovery metrics (downtime, outage
/// deliveries, post-repair recovery latency) from the fault observer.
///
/// Run:  ./bench_fault_campaign [faults-models|faults-intensity|faults-smoke]
/// Env:  SPMS_BENCH_SEEDS=K (seeds per cell), SPMS_JOBS (workers),
///       SPMS_BENCH_STORE=DIR (resumable: reruns only pay for new cells).

#include <iostream>
#include <string>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace spms;

  const std::string scenario = argc > 1 ? argv[1] : "faults-models";
  bench::print_header("Fault campaign", scenario + " (pluggable fault models)",
                      "fault tolerance must hold beyond independent crash/repair");

  const auto spec = bench::make_spec(scenario);
  const auto batch = bench::run_spec(spec);

  exp::Table t({"protocol", "nodes", "variant", "delivery", "delay_ms", "downs",
                "downtime_ms", "outage_dlv", "recovery_ms", "dead"});
  for (const auto& p : batch.points()) {
    const auto& s = p.stats;
    t.add_row({s.protocol, std::to_string(s.nodes), p.variant.empty() ? "-" : p.variant,
               exp::fmt_pct(s.delivery_ratio.mean), exp::fmt(s.mean_delay_ms.mean, 2),
               exp::fmt(s.fault_node_downs.mean, 1), exp::fmt(s.fault_downtime_ms.mean, 0),
               exp::fmt(s.fault_outage_deliveries.mean, 0),
               exp::fmt(s.fault_recovery_latency_ms.mean, 2),
               exp::fmt(s.fault_permanent_deaths.mean, 1)});
  }
  t.print(std::cout);
  std::cout << "\n(downs = node crash transitions; downtime_ms = node-ms spent down;\n"
               " outage_dlv = deliveries completed while >=1 node was down; recovery_ms =\n"
               " mean time from a repair to that node's next delivery; dead = permanent\n"
               " battery deaths.  Variants are the scaled fault regimes of EXPERIMENTS.md.)\n";
  return 0;
}
