/// \file quickstart.cpp
/// Minimal end-to-end tour of the library: build a sensor field, run SPMS
/// and SPIN on the same all-to-all workload, and compare energy and delay —
/// the experiment behind the paper's headline claim ("SPMS reduces the
/// delay over 10 times and consumes 30% less energy").
///
/// Run:  ./quickstart [node_count] [zone_radius_m]

#include <cstdlib>
#include <iostream>

#include "exp/runner.hpp"
#include "exp/table.hpp"

int main(int argc, char** argv) {
  using namespace spms;

  exp::ExperimentConfig cfg;
  cfg.node_count = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 49;
  cfg.zone_radius_m = argc > 2 ? std::atof(argv[2]) : 20.0;
  cfg.traffic.packets_per_node = 3;
  cfg.seed = 2026;

  std::cout << "SPMS quickstart: " << cfg.node_count << " nodes on a " << cfg.grid_pitch_m
            << " m grid, zone radius " << cfg.zone_radius_m << " m, "
            << cfg.traffic.packets_per_node << " packets/node (all-to-all)\n\n";

  exp::Table table({"protocol", "delivery", "mean delay (ms)", "p95 delay (ms)",
                    "energy/item (uJ)", "tx frames", "events"});

  exp::RunResult spms_result, spin_result;
  for (const auto kind : {exp::ProtocolKind::kSpms, exp::ProtocolKind::kSpin}) {
    cfg.protocol = kind;
    const auto r = exp::run_experiment(cfg);
    table.add_row({r.protocol, exp::fmt_pct(r.delivery_ratio), exp::fmt(r.mean_delay_ms),
                   exp::fmt(r.p95_delay_ms), exp::fmt(r.protocol_energy_per_item_uj),
                   std::to_string(r.net_counters.tx_total()), std::to_string(r.events_executed)});
    (kind == exp::ProtocolKind::kSpms ? spms_result : spin_result) = r;
  }
  table.print(std::cout);

  std::cout << "\nSPIN/SPMS delay ratio:  " << exp::fmt(spin_result.mean_delay_ms /
                                                        spms_result.mean_delay_ms, 2)
            << "\nSPMS energy saving:     "
            << exp::fmt_pct(1.0 - spms_result.protocol_energy_per_item_uj /
                                      spin_result.protocol_energy_per_item_uj)
            << "\n(dissemination energy, as in the paper's static figures; SPMS's one-off\n"
               " DBF table build added another "
            << exp::fmt(spms_result.energy.routing_uj(), 1)
            << " uJ — see run_experiment_cli --scenario mobility_breakeven)\n";
  return 0;
}
