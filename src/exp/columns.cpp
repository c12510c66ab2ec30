#include "exp/columns.hpp"

#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "exp/table.hpp"
#include "stats/summary.hpp"

namespace spms::exp {

namespace {

/// What an aggregate cell prints over a grid point's runs.
enum Fold {
  kMean,      ///< the mean
  kSampleSd,  ///< the sample (n - 1) standard deviation
};

/// Decimals of a column that a table does not print.
constexpr int kAbsent = -1;

/// One metric column of the two tables.
struct Column {
  std::string_view name;
  int per_seed;   ///< decimals in the per-seed table, or kAbsent
  int aggregate;  ///< decimals in the aggregate table, or kAbsent
  Fold fold;      ///< what the aggregate cell prints
  double (*read)(const RunResult&);
};

/// Both tables' metric columns, in print order.  Counts print 0 decimals per
/// seed and 1 as a mean; a -1 in the first_death_ms .. half_life_ms columns
/// means the milestone never happened (FaultStats), so their means are only
/// meaningful when every seed of the point reached it.
constexpr Column kColumns[] = {
    {"delivery", 6, 4, kMean, [](const RunResult& r) { return r.delivery_ratio; }},
    {"mean_delay_ms", 6, 3, kMean, [](const RunResult& r) { return r.mean_delay_ms; }},
    {"delay_sd", kAbsent, 3, kSampleSd, [](const RunResult& r) { return r.mean_delay_ms; }},
    {"p95_delay_ms", 6, 3, kMean, [](const RunResult& r) { return r.p95_delay_ms; }},
    {"max_delay_ms", 6, kAbsent, kMean, [](const RunResult& r) { return r.max_delay_ms; }},
    {"uj_per_pkt_proto", 6, 6, kMean,
     [](const RunResult& r) { return r.protocol_energy_per_item_uj; }},
    {"energy_sd", kAbsent, 6, kSampleSd,
     [](const RunResult& r) { return r.protocol_energy_per_item_uj; }},
    {"uj_per_pkt_total", 6, 6, kMean, [](const RunResult& r) { return r.energy_per_item_uj; }},
    {"routing_uj", kAbsent, 3, kMean, [](const RunResult& r) { return r.energy.routing_uj(); }},
    {"frames", kAbsent, 1, kMean,
     [](const RunResult& r) -> double { return r.net_counters.tx_total(); }},
    {"epochs", kAbsent, 1, kMean, [](const RunResult& r) -> double { return r.mobility_epochs; }},
    {"failures", 0, 1, kMean,
     [](const RunResult& r) -> double { return r.fault_stats.node_downs; }},
    {"downtime_ms", kAbsent, 3, kMean,
     [](const RunResult& r) { return r.fault_stats.total_downtime_ms; }},
    {"outage_dlv", kAbsent, 1, kMean,
     [](const RunResult& r) -> double { return r.fault_stats.deliveries_during_outage; }},
    {"recovery_ms", kAbsent, 3, kMean,
     [](const RunResult& r) { return r.fault_stats.mean_recovery_latency_ms; }},
    {"dead", 0, 1, kMean,
     [](const RunResult& r) -> double { return r.fault_stats.permanent_deaths; }},
    {"first_death_ms", 3, 3, kMean,
     [](const RunResult& r) { return r.fault_stats.time_to_first_death_ms; }},
    {"t10pct_ms", kAbsent, 3, kMean,
     [](const RunResult& r) { return r.fault_stats.time_to_10pct_dead_ms; }},
    {"half_life_ms", kAbsent, 3, kMean,
     [](const RunResult& r) { return r.fault_stats.half_life_ms; }},
    {"res_mean_uj", kAbsent, 3, kMean,
     [](const RunResult& r) { return r.battery.residual_mean_uj; }},
    {"res_sd_uj", kAbsent, 3, kMean,
     [](const RunResult& r) { return r.battery.residual_stddev_uj; }},
    {"res_gini", 6, 4, kMean, [](const RunResult& r) { return r.battery.residual_gini; }},
    {"given_up", 0, 1, kMean, [](const RunResult& r) -> double { return r.given_up; }},
    {"events", 0, kAbsent, kMean,
     [](const RunResult& r) -> double { return r.events_executed; }},
};

/// The key cells of a row: `run`'s protocol, nodes and radius, the variant,
/// then the run's seed or the point's seed count.
std::vector<std::string> key_cells(const RunResult& run, const std::string& variant,
                                   std::uint64_t seed_or_seeds) {
  return {run.protocol, std::to_string(run.nodes), fmt(run.zone_radius_m, 1),
          variant.empty() ? "-" : variant, std::to_string(seed_or_seeds)};
}

}  // namespace

std::vector<std::string> table_headers(TableKind kind) {
  const bool per_seed = kind == TableKind::kPerSeed;
  std::vector<std::string> h = {"protocol", "nodes", "radius_m", "variant",
                                per_seed ? "seed" : "seeds"};
  for (const auto& c : kColumns) {
    if ((per_seed ? c.per_seed : c.aggregate) != kAbsent) h.emplace_back(c.name);
  }
  return h;
}

std::vector<std::string> run_row(const SweepJob& job, const RunResult& run) {
  auto row = key_cells(run, job.variant, job.seed);
  for (const auto& c : kColumns) {
    if (c.per_seed != kAbsent) row.push_back(fmt(c.read(run), c.per_seed));
  }
  return row;
}

std::vector<std::string> point_row(const PointResult& point) {
  if (point.runs.empty()) throw std::invalid_argument{"point_row: a point without runs"};
  auto row = key_cells(point.runs.front(), point.variant, point.runs.size());
  for (const auto& c : kColumns) {
    if (c.aggregate == kAbsent) continue;
    stats::Summary s;
    for (const auto& r : point.runs) s.add(c.read(r));
    row.push_back(fmt(c.fold == kMean ? s.mean() : s.sample_stddev(), c.aggregate));
  }
  return row;
}

PlotAxes default_plot_axes(const BatchResult& batch) {
  bool nodes_vary = false;
  bool radii_vary = false;
  for (const auto& p : batch.points()) {  // empty batch (distant shard): any x works
    const auto& first = batch.points().front();
    if (p.node_count != first.node_count) nodes_vary = true;
    if (p.zone_radius_m != first.zone_radius_m) radii_vary = true;
  }
  return {nodes_vary ? "nodes" : radii_vary ? "radius_m" : "variant", "mean_delay_ms"};
}

}  // namespace spms::exp
