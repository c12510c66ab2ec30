/// \file table1_parameters.cpp
/// Table 1 of the paper: the simulation parameters this repository runs
/// with, including the derived deployment constants (zone sizes n1/ns that
/// the analysis section relies on).

#include <iostream>

#include "analysis/delay_model.hpp"
#include "bench_common.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/table.hpp"
#include "net/radio.hpp"

int main() {
  using namespace spms;
  const auto cfg = exp::reference_config();

  bench::print_header("Table 1", "simulation parameters",
                      "MICA2 radio table, 0.05 ms/byte, ADV=REQ=2 B, DATA:REQ=20, "
                      "TOutADV=1.0 ms, TOutDAT=2.5 ms, failures exp(50 ms)/U(5,15) ms");

  exp::Table t({"parameter", "value", "source"});
  t.add_row({"packet arrivals (per node)", "Poisson, mean " +
                 exp::fmt(cfg.traffic.mean_interarrival.to_ms(), 2) + " ms", "Table 1"});
  t.add_row({"packets per node", std::to_string(cfg.traffic.packets_per_node),
             "Table 1 uses 10; reference config 2 (--set traffic.packets_per_node=10)"});
  t.add_row({"slot time", exp::fmt(cfg.mac.slot_time.to_ms(), 2) + " ms", "Table 1"});
  t.add_row({"number of slots", std::to_string(cfg.mac.num_slots), "Table 1"});
  t.add_row({"transmission time", exp::fmt(cfg.mac.t_tx_per_byte.to_ms(), 2) + " ms/byte",
             "Table 1"});
  t.add_row({"processing time", exp::fmt(cfg.mac.t_proc.to_ms(), 2) + " ms", "Table 1"});
  t.add_row({"ADV / REQ size", std::to_string(cfg.proto.adv_bytes) + " B", "Table 1"});
  t.add_row({"DATA size", std::to_string(cfg.proto.data_bytes) + " B (DATA:REQ = 20)",
             "Table 1"});
  t.add_row({"TOutADV", exp::fmt(cfg.proto.tout_adv.to_ms(), 1) + " ms", "Table 1"});
  t.add_row({"TOutDAT", exp::fmt(cfg.proto.tout_dat.to_ms(), 1) + " ms", "Table 1"});
  t.add_row({"failure inter-arrival", "exp, mean " +
                 exp::fmt(cfg.faults.crash.mean_time_between_failures.to_ms(), 0) + " ms",
             "Table 1"});
  t.add_row({"repair time", "U(" + exp::fmt(cfg.faults.crash.repair_min.to_ms(), 0) + ", " +
                 exp::fmt(cfg.faults.crash.repair_max.to_ms(), 0) + ") ms (MTTR 10 ms)",
             "Table 1"});

  const auto radio = net::RadioTable::mica2();
  for (std::size_t i = 0; i < radio.num_levels(); ++i) {
    t.add_row({"power level " + std::to_string(i + 1),
               exp::fmt(radio.level(i).power_mw, 4) + " mW -> " +
                   exp::fmt(radio.level(i).range_m, 2) + " m",
               "Table 1 (MICA2)"});
  }

  t.add_row({"grid pitch", exp::fmt(cfg.grid_pitch_m, 1) + " m", "EXPERIMENTS.md calibration"});
  t.add_row({"zone radius (reference)", exp::fmt(cfg.zone_radius_m, 1) + " m", "Figs. 6/8/10"});
  t.add_row({"n1 (zone size at 20 m)",
             std::to_string(analysis::grid_disc_count(20.0, cfg.grid_pitch_m)),
             "paper's analysis uses 45"});
  t.add_row({"ns (zone size at 5.48 m)",
             std::to_string(analysis::grid_disc_count(5.48, cfg.grid_pitch_m)),
             "paper's analysis uses 5"});
  t.print(std::cout);
  return 0;
}
