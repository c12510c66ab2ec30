#pragma once

#include <string>
#include <vector>

#include "exp/batch.hpp"

/// \file columns.hpp
/// The columns of the CLI's two tables, named once.  The per-seed table
/// prints one row per run, the aggregate table one row per grid point.
/// Both begin with the key columns (protocol, nodes, radius_m, variant,
/// then seed or seeds) and go on with the metric columns of one list in
/// columns.cpp.  Each metric entry holds its name, the RunResult value it
/// reads and the decimals each table prints it with; the aggregate table
/// prints the mean or the sample standard deviation of that value over the
/// point's runs.  Headers, rows and the CLI's --plot-x/--plot-y check all
/// walk that list, so each metric is named in one place.

namespace spms::exp {

/// The CLI's two tables.
enum class TableKind {
  kPerSeed,    ///< one row per run
  kAggregate,  ///< one row per grid point
};

/// The header of a table.
[[nodiscard]] std::vector<std::string> table_headers(TableKind kind);

/// A per-seed row: the run of `job`.
[[nodiscard]] std::vector<std::string> run_row(const SweepJob& job, const RunResult& run);

/// An aggregate row: the key columns of the point's first run, then each
/// metric folded over the point's runs in their order.  Throws
/// std::invalid_argument for a point without runs.
[[nodiscard]] std::vector<std::string> point_row(const PointResult& point);

/// The columns a gnuplot script plots when --plot-x or --plot-y is not
/// given: the paper's headline delay against whichever deployment axis the
/// batch's points vary (nodes, then radius), else against the variant as a
/// category axis.
struct PlotAxes {
  std::string x;
  std::string y;
};
[[nodiscard]] PlotAxes default_plot_axes(const BatchResult& batch);

}  // namespace spms::exp
