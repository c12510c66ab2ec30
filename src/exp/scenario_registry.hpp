#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/config.hpp"
#include "exp/sweep.hpp"

/// \file scenario_registry.hpp
/// Named experiment scenarios: the paper's figures/tables and this repo's
/// ablations as declarative SweepSpecs.  The CLI, the tests and the scale
/// bench pull their grids from here, so a figure's definition lives in
/// exactly one place.  EXPERIMENTS.md documents every entry and its calibration.

namespace spms::exp {

/// One registry entry.  `make` builds a fresh SweepSpec each call.
struct ScenarioInfo {
  std::string name;         ///< registry key, e.g. "fig08"
  std::string title;        ///< what the sweep measures
  std::string paper_claim;  ///< the claim the figure reproduces
  std::function<SweepSpec()> make;
};

/// All registered scenarios, in presentation order.
[[nodiscard]] const std::vector<ScenarioInfo>& scenario_registry();

/// Looks up a scenario by name; nullptr if unknown.
[[nodiscard]] const ScenarioInfo* find_scenario(std::string_view name);

/// Reference experiment configuration (paper Table 1 on the 5 m grid of
/// EXPERIMENTS.md's "Calibration notes").
/// packets_per_node is 2 instead of Table 1's 10 so the paper-figure
/// scenarios complete in minutes; `--set traffic.packets_per_node=10` runs the
/// paper's load (see EXPERIMENTS.md).
[[nodiscard]] ExperimentConfig reference_config();

/// Transient-failure regime scaled to this MAC's timescale: ≈20% downtime
/// duty cycle, a couple of failures per node while traffic is in flight —
/// the paper's relative churn on our stretched clock (EXPERIMENTS.md).
void scaled_failures(ExperimentConfig& cfg);

/// Arms the energy-coupled death path: finite per-node budget of
/// `capacity_uj` (optionally heterogeneous) and a small idle/sleep drain;
/// the fault layer turns each depletion into a permanent death with
/// lifetime metrics.  The building block of the lifetime-* family.
void energy_budget(ExperimentConfig& cfg, double capacity_uj, double heterogeneity = 0.0);

/// All five scaled fault regimes stacked — the worst-case composite plan
/// (the faults-* campaign's `stacked` variant; EXPERIMENTS.md documents each
/// regime).
void scaled_stacked_faults(ExperimentConfig& cfg);

}  // namespace spms::exp
