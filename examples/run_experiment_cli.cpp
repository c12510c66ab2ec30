/// \file run_experiment_cli.cpp
/// Command-line experiment driver.
///
/// Three modes:
///
///  * Scenario mode — run a named registry scenario on the parallel batch
///    engine:
///      run_experiment_cli --scenario fig08 --seeds 8 --jobs 8 --format csv
///      run_experiment_cli --scenario fig08 --store results/ --shard 0/2
///      run_experiment_cli --list
///    Prints one row per grid point with cross-seed mean/stddev (add
///    --per-seed for one row per run).  The per-seed metrics are
///    bit-identical whatever --jobs is: every job owns a private Simulation.
///    With --store DIR, finished jobs persist under DIR and later runs only
///    execute the missing cells (resume; see EXPERIMENTS.md).  --shard i/N
///    runs a deterministic 1/N slice of the sweep (shard stores are merged
///    with the merge mode below).
///
///  * Merge mode — union shard stores into one:
///      run_experiment_cli merge DEST_STORE SRC_STORE...
///
///  * Store introspection — what a store directory holds:
///      run_experiment_cli store ls DIR
///    Prints the scenarios present (with entry counts), the schema versions
///    on disk, and how many corrupt lines a load would skip.
///
///  * Single-run mode (no --scenario) — every knob of ExperimentConfig
///    behind flags, one run, metric/value table:
///      run_experiment_cli --protocol spms --nodes 169 --radius 25 --failures
///
/// Output formats: table (default), csv, json.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/trace_report.hpp"
#include "exp/batch.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/store/result_store.hpp"
#include "exp/table.hpp"

namespace {

using namespace spms;

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --scenario NAME [--seeds K] [--jobs N]\n"
         "       [--store DIR] [--no-cache] [--shard I/N] [--max-events N]\n"
         "       [--format table|csv|json|gnuplot] [--plot-x COL] [--plot-y COL]\n"
         "       [--per-seed] [--quiet] [--rollup-out FILE]\n"
         "   or: " << argv0 << " --list\n"
         "   or: " << argv0 << " merge DEST_STORE SRC_STORE...\n"
         "   or: " << argv0 << " store ls DIR\n"
         "   or: " << argv0 << " store gc DIR [--dry-run] [--max-age-days N]\n"
         "   or: " << argv0
      << " [--protocol spms|spin|flood] [--nodes N] [--radius M] [--packets K]\n"
         "       [--pitch M] [--seed S] [--max-events N] [--failures] [--mobility]\n"
         "       [--region-outages] [--battery-deaths] [--link-degradation]\n"
         "       [--sink-churn] [--battery-capacity UJ] [--battery-hetero H]\n"
         "       [--cluster] [--sink] [--random-deployment]\n"
         "       [--cross-zone TTL] [--relay-caching] [--scones N] [--rx-power MW]\n"
         "       [--paper-mac] [--format table|csv|json] [--csv]\n"
         "       [--trace-out FILE] [--metrics-out FILE] [--sample-every-ms T]\n"
         "       [--metrics-format json|prom] [--spans-out FILE] [--perfetto-out FILE]\n"
         "       [--flight-out FILE] [--trace-report]\n";
  std::exit(2);
}

enum class Format { kTable, kCsv, kJson, kGnuplot };

// Digits only: strtoul would silently wrap "-1" to 2^64-1.
bool all_digits(const char* s) {
  if (*s == '\0') return false;
  for (; *s != '\0'; ++s) {
    if (*s < '0' || *s > '9') return false;
  }
  return true;
}

std::size_t parse_size(const char* s, const char* argv0) {
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (!all_digits(s) || end == s || *end != '\0' || errno == ERANGE) usage(argv0);
  return static_cast<std::size_t>(v);
}

std::uint64_t parse_u64(const char* s, const char* argv0) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (!all_digits(s) || end == s || *end != '\0' || errno == ERANGE) usage(argv0);
  return static_cast<std::uint64_t>(v);
}

double parse_double(const char* s, const char* argv0) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') usage(argv0);
  return v;
}

Format parse_format(const std::string& f, const char* argv0) {
  if (f == "table") return Format::kTable;
  if (f == "csv") return Format::kCsv;
  if (f == "json") return Format::kJson;
  if (f == "gnuplot") return Format::kGnuplot;
  usage(argv0);
}

/// Gnuplot emission context (scenario mode only).
struct PlotOptions {
  std::string title;
  std::string x_col;  ///< empty: auto (nodes if it varies, else radius_m)
  std::string y_col;  ///< empty: mean_delay_ms
};

void print_formatted(const exp::Table& t, Format format, const PlotOptions& plot = {}) {
  switch (format) {
    case Format::kTable: t.print(std::cout); break;
    case Format::kCsv: t.print_csv(std::cout); break;
    case Format::kJson: t.print_json(std::cout); break;
    case Format::kGnuplot:
      // The caller resolves the axis defaults (it knows which deployment
      // axis the sweep varies); see run_scenario_mode.
      t.print_gnuplot(std::cout, plot.title, plot.x_col, plot.y_col);
      break;
  }
}

// "I/N" with I < N, N >= 1.
void parse_shard(const char* s, std::size_t& index, std::size_t& count, const char* argv0) {
  const char* slash = std::strchr(s, '/');
  if (slash == nullptr || slash == s || slash[1] == '\0') usage(argv0);
  const std::string left{s, slash};
  index = parse_size(left.c_str(), argv0);
  count = parse_size(slash + 1, argv0);
  if (count == 0 || index >= count) {
    std::cerr << "--shard " << s << ": need I/N with I < N\n";
    std::exit(2);
  }
}

int merge_stores(int argc, char** argv) {
  if (argc < 4) usage(argv[0]);
  // Sources must already exist: a typo would otherwise become a fresh empty
  // store and the merge would silently drop that shard's results.
  for (int i = 3; i < argc; ++i) {
    if (!std::filesystem::is_directory(argv[i])) {
      std::cerr << "merge: source store '" << argv[i] << "' does not exist\n";
      return 2;
    }
  }
  std::size_t before = 0;
  std::size_t corrupt = 0;
  std::unique_ptr<exp::store::ResultStore> dest;
  try {
    dest = std::make_unique<exp::store::ResultStore>(argv[2]);
    dest->load();
    before = dest->size();
    corrupt = dest->corrupt_lines();
    for (int i = 3; i < argc; ++i) {
      exp::store::ResultStore src{argv[i]};
      src.load();
      corrupt += src.corrupt_lines();
      dest->merge_from(src);
    }
    dest->compact();
  } catch (const std::exception& e) {
    std::cerr << "merge: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "merged " << (dest->size() - before) << " new results into " << argv[2] << " ("
            << dest->size() << " total";
  if (corrupt > 0) std::cerr << ", " << corrupt << " corrupt lines skipped";
  std::cerr << ")\n";
  return 0;
}

int store_gc(int argc, char** argv) {
  // `store gc DIR [--dry-run] [--max-age-days N]`: evict stale lines.
  if (argc < 4) usage(argv[0]);
  const char* dir = argv[3];
  exp::store::GcOptions options;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dry-run") {
      options.dry_run = true;
    } else if (arg == "--max-age-days") {
      if (i + 1 >= argc) usage(argv[0]);
      const double days = parse_double(argv[++i], argv[0]);
      if (days < 0.0) usage(argv[0]);
      options.max_age_days = days;
    } else {
      usage(argv[0]);
    }
  }
  if (!std::filesystem::is_directory(dir)) {
    std::cerr << "store gc: '" << dir << "' is not a store directory\n";
    return 2;
  }
  exp::store::GcReport report;
  try {
    exp::store::ResultStore store{dir};
    report = store.gc(options);
  } catch (const std::exception& e) {
    std::cerr << "store gc: " << e.what() << "\n";
    return 2;
  }
  std::cerr << dir << (report.dry_run ? " (dry run): would keep " : ": kept ") << report.kept
            << " record(s) across " << report.files << " file(s); "
            << (report.dry_run ? "would evict " : "evicted ") << report.evicted_schema
            << " foreign-schema line(s), " << report.evicted_age << " aged-out line(s), "
            << report.dropped_corrupt << " corrupt line(s)\n";
  return 0;
}

int store_mode(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[2], "gc") == 0) return store_gc(argc, argv);
  // `store ls DIR`: introspection without loading the store into a run.
  if (argc != 4 || std::strcmp(argv[2], "ls") != 0) usage(argv[0]);
  if (!std::filesystem::is_directory(argv[3])) {
    std::cerr << "store ls: '" << argv[3] << "' is not a store directory\n";
    return 2;
  }
  exp::store::StoreInventory inv;
  try {
    exp::store::ResultStore store{argv[3]};
    inv = store.inventory();
  } catch (const std::exception& e) {
    std::cerr << "store ls: " << e.what() << "\n";
    return 2;
  }
  std::size_t entries = 0;
  for (const auto& [scenario, count] : inv.scenarios) {
    static_cast<void>(scenario);
    entries += count;
  }
  std::cerr << argv[3] << ": " << inv.files << " file(s), " << inv.total_lines
            << " record line(s), " << entries << " live entr"
            << (entries == 1 ? "y" : "ies") << " (schema v"
            << exp::store::kSchemaVersion << ")";
  if (inv.corrupt_lines > 0) std::cerr << ", " << inv.corrupt_lines << " corrupt";
  std::cerr << "\n";

  exp::Table schemas({"schema", "lines", "status"});
  for (const auto& [version, lines] : inv.schema_lines) {
    schemas.add_row({"v" + std::to_string(version), std::to_string(lines),
                     version == exp::store::kSchemaVersion ? "current" : "stale (invisible)"});
  }
  schemas.print(std::cout);
  std::cout << "\n";

  exp::Table t({"scenario", "entries"});
  for (const auto& [scenario, count] : inv.scenarios) {
    t.add_row({scenario, std::to_string(count)});
  }
  t.print(std::cout);
  return 0;
}

int list_scenarios() {
  exp::Table t({"scenario", "jobs/seed", "what it measures"});
  for (const auto& s : exp::scenario_registry()) {
    t.add_row({s.name, std::to_string(s.make().point_count()), s.title});
  }
  t.print(std::cout);
  return 0;
}

struct ScenarioOptions {
  std::size_t seeds = 0;
  std::size_t jobs = 1;
  Format format = Format::kTable;
  bool per_seed = false;
  bool quiet = false;
  std::string store_dir;
  bool use_cache = true;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t max_events = 0;
  std::string plot_x;  ///< --plot-x: gnuplot abscissa column (default: auto)
  std::string plot_y;  ///< --plot-y: gnuplot ordinate column
  std::string rollup_out;  ///< --rollup-out: per-cell metric rollup sidecar
};

/// Table headers of scenario mode, shared by the table builders below and
/// the pre-sweep --plot-x/--plot-y validation (a typo must fail before the
/// sweep pays for itself, not after).
const std::vector<std::string> kPerSeedHeaders = {
    "protocol", "nodes", "radius_m", "variant", "seed", "delivery", "mean_delay_ms",
    "p95_delay_ms", "max_delay_ms", "uj_per_pkt_proto", "uj_per_pkt_total", "failures",
    "dead", "first_death_ms", "res_gini", "given_up", "events"};
const std::vector<std::string> kAggregateHeaders = {
    "protocol", "nodes", "radius_m", "variant", "seeds", "delivery", "mean_delay_ms",
    "delay_sd", "p95_delay_ms", "uj_per_pkt_proto", "energy_sd", "uj_per_pkt_total",
    "dead", "first_death_ms", "half_life_ms", "res_gini", "given_up"};

int run_scenario_mode(const std::string& name, const ScenarioOptions& opt) {
  const auto* info = exp::find_scenario(name);
  if (info == nullptr) {
    std::cerr << "unknown scenario '" << name << "'; --list shows the registry\n";
    return 2;
  }
  if (opt.format == Format::kGnuplot) {
    const auto& headers = opt.per_seed ? kPerSeedHeaders : kAggregateHeaders;
    for (const auto* col : {&opt.plot_x, &opt.plot_y}) {
      if (!col->empty() &&
          std::find(headers.begin(), headers.end(), *col) == headers.end()) {
        std::cerr << "--plot-" << (col == &opt.plot_x ? 'x' : 'y') << ' ' << *col
                  << ": no such column; available:";
        for (const auto& h : headers) std::cerr << ' ' << h;
        std::cerr << "\n";
        return 2;
      }
    }
  }
  auto spec = info->make();
  if (opt.seeds > 0) spec.use_consecutive_seeds(opt.seeds);
  if (opt.max_events > 0) spec.max_events_override = opt.max_events;

  std::unique_ptr<exp::store::ResultStore> store;
  if (!opt.store_dir.empty()) {
    try {
      store = std::make_unique<exp::store::ResultStore>(opt.store_dir);
      store->load();
    } catch (const std::exception& e) {
      std::cerr << "--store " << opt.store_dir << ": " << e.what() << "\n";
      return 2;
    }
    if (!opt.quiet && store->corrupt_lines() > 0) {
      std::cerr << "store: skipped " << store->corrupt_lines() << " corrupt lines\n";
    }
  }

  exp::BatchOptions options;
  options.jobs = opt.jobs;
  options.store = store.get();
  options.use_cache = opt.use_cache;
  options.shard_index = opt.shard_index;
  options.shard_count = opt.shard_count;
  options.rollup_out = opt.rollup_out;
  if (!opt.quiet) {
    options.on_result = [](const exp::SweepJob& job, const exp::RunResult&, std::size_t done,
                           std::size_t total) {
      std::cerr << "[" << done << "/" << total << "] " << job.config.label << "\n";
    };
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::optional<exp::BatchResult> ran;
  try {
    ran.emplace(exp::BatchRunner{options}.run(spec));
  } catch (const std::exception& e) {
    // E.g. a store write failing mid-sweep (disk full): the store already
    // flushed everything that finished, so a rerun resumes from there.
    std::cerr << "scenario " << name << ": " << e.what() << "\n";
    return 2;
  }
  const auto& batch = *ran;
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (!opt.quiet) {
    std::cerr << "executed " << batch.executed() << " jobs (" << batch.cached()
              << " cached) in " << exp::fmt(elapsed, 2) << " s ("
              << (opt.jobs == 0 ? exp::default_jobs() : opt.jobs) << " workers)\n";
  }

  // Gnuplot axis defaults: x is whichever deployment axis the sweep varies
  // (nodes, then radius); a variant-only sweep (the lifetime-* family's
  // budget/heterogeneity axes) falls back to the variant as a category
  // axis.  y is the paper's headline delay metric.
  PlotOptions plot;
  plot.title = name;
  plot.x_col = opt.plot_x;
  plot.y_col = opt.plot_y.empty() ? "mean_delay_ms" : opt.plot_y;
  if (plot.x_col.empty()) {
    bool nodes_vary = false;
    bool radii_vary = false;
    for (const auto& p : batch.points()) {  // empty batch (distant shard): any x works
      const auto& first = batch.points().front();
      if (p.node_count != first.node_count) nodes_vary = true;
      if (p.zone_radius_m != first.zone_radius_m) radii_vary = true;
    }
    plot.x_col = nodes_vary ? "nodes" : radii_vary ? "radius_m" : "variant";
  }

  if (opt.per_seed) {
    exp::Table t(kPerSeedHeaders);
    for (std::size_t i = 0; i < batch.runs().size(); ++i) {
      const auto& job = batch.jobs()[i];
      const auto& r = batch.runs()[i];
      t.add_row({r.protocol, std::to_string(r.nodes), exp::fmt(r.zone_radius_m, 1),
                 job.variant.empty() ? "-" : job.variant, std::to_string(job.seed),
                 exp::fmt(r.delivery_ratio, 6), exp::fmt(r.mean_delay_ms, 6),
                 exp::fmt(r.p95_delay_ms, 6), exp::fmt(r.max_delay_ms, 6),
                 exp::fmt(r.protocol_energy_per_item_uj, 6), exp::fmt(r.energy_per_item_uj, 6),
                 std::to_string(r.failures_injected),
                 std::to_string(r.fault_stats.permanent_deaths),
                 exp::fmt(r.fault_stats.time_to_first_death_ms, 3),
                 exp::fmt(r.battery.residual_gini, 6), std::to_string(r.given_up),
                 std::to_string(r.events_executed)});
    }
    print_formatted(t, opt.format, plot);
  } else {
    exp::Table t(kAggregateHeaders);
    for (const auto& p : batch.points()) {
      const auto& s = p.stats;
      t.add_row({s.protocol, std::to_string(s.nodes), exp::fmt(s.zone_radius_m, 1),
                 p.variant.empty() ? "-" : p.variant, std::to_string(s.runs),
                 exp::fmt(s.delivery_ratio.mean, 4), exp::fmt(s.mean_delay_ms.mean, 3),
                 exp::fmt(s.mean_delay_ms.stddev, 3), exp::fmt(s.p95_delay_ms.mean, 3),
                 exp::fmt(s.protocol_energy_per_item_uj.mean, 3),
                 exp::fmt(s.protocol_energy_per_item_uj.stddev, 3),
                 exp::fmt(s.energy_per_item_uj.mean, 3),
                 exp::fmt(s.fault_permanent_deaths.mean, 1),
                 exp::fmt(s.time_to_first_death_ms.mean, 3),
                 exp::fmt(s.half_life_ms.mean, 3), exp::fmt(s.residual_gini.mean, 4),
                 exp::fmt(s.given_up.mean, 1)});
    }
    print_formatted(t, opt.format, plot);
  }

  // A tripped event guard means a truncated, untrustworthy run (see
  // sim::Scheduler::run); surface it the same way single-run mode does.
  bool limit_hit = false;
  for (const auto& r : batch.runs()) {
    if (r.event_limit_hit) {
      limit_hit = true;
      std::cerr << "warning: event limit hit in " << r.label << "\n";
    }
  }
  return limit_hit ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "merge") == 0) return merge_stores(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "store") == 0) return store_mode(argc, argv);

  exp::ExperimentConfig cfg;
  cfg.node_count = 49;
  cfg.traffic.packets_per_node = 2;

  std::string scenario;
  ScenarioOptions sopt;
  // Telemetry is single-run only: batch jobs run concurrently and would
  // race on the output files, so the flags stay off the scenario-allowed
  // list below and mixing them with --scenario errors like any other
  // single-run flag.  Telemetry never feeds the config (or the store key):
  // a traced run returns the same result bytes as an untraced one.
  exp::TelemetryOptions telemetry;

  // First mode-specific flag seen of each kind: single-run flags do nothing
  // under --scenario (the registry defines the grid) and scenario flags do
  // nothing without it, so either mix is an error rather than silence.
  std::string single_flag;
  std::string scenario_flag;
  bool trace_report = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && arg != "--list" && arg != "--scenario" &&
        arg != "--seeds" && arg != "--jobs" && arg != "--format" && arg != "--per-seed" &&
        arg != "--quiet" && arg != "--csv" && arg != "--help" && arg != "--store" &&
        arg != "--no-cache" && arg != "--shard" && arg != "--max-events" &&
        arg != "--plot-x" && arg != "--plot-y" && arg != "--rollup-out" &&
        single_flag.empty()) {
      single_flag = arg;
    }
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--list") {
      return list_scenarios();
    } else if (arg == "--scenario") {
      scenario = next();
    } else if (arg == "--seeds") {
      scenario_flag = arg;
      sopt.seeds = parse_size(next(), argv[0]);
    } else if (arg == "--jobs") {
      scenario_flag = arg;
      sopt.jobs = parse_size(next(), argv[0]);
    } else if (arg == "--format") {
      sopt.format = parse_format(next(), argv[0]);
    } else if (arg == "--per-seed") {
      scenario_flag = arg;
      sopt.per_seed = true;
    } else if (arg == "--quiet") {
      sopt.quiet = true;
    } else if (arg == "--store") {
      scenario_flag = arg;
      sopt.store_dir = next();
      if (sopt.store_dir.empty()) usage(argv[0]);
    } else if (arg == "--no-cache") {
      scenario_flag = arg;
      sopt.use_cache = false;
    } else if (arg == "--shard") {
      scenario_flag = arg;
      parse_shard(next(), sopt.shard_index, sopt.shard_count, argv[0]);
    } else if (arg == "--plot-x") {
      scenario_flag = arg;
      sopt.plot_x = next();
    } else if (arg == "--plot-y") {
      scenario_flag = arg;
      sopt.plot_y = next();
    } else if (arg == "--max-events") {
      // Valid in both modes: a runaway guard, not a grid knob.
      const std::size_t v = parse_size(next(), argv[0]);
      if (v == 0) usage(argv[0]);
      cfg.max_events = v;
      sopt.max_events = v;
    } else if (arg == "--protocol") {
      const std::string p = next();
      if (p == "spms") {
        cfg.protocol = exp::ProtocolKind::kSpms;
      } else if (p == "spin") {
        cfg.protocol = exp::ProtocolKind::kSpin;
      } else if (p == "flood") {
        cfg.protocol = exp::ProtocolKind::kFlooding;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--nodes") {
      cfg.node_count = parse_size(next(), argv[0]);
    } else if (arg == "--radius") {
      cfg.zone_radius_m = parse_double(next(), argv[0]);
    } else if (arg == "--packets") {
      cfg.traffic.packets_per_node = static_cast<int>(parse_size(next(), argv[0]));
    } else if (arg == "--pitch") {
      cfg.grid_pitch_m = parse_double(next(), argv[0]);
    } else if (arg == "--seed") {
      cfg.seed = parse_u64(next(), argv[0]);
    } else if (arg == "--failures") {
      cfg.faults.crash.enabled = true;
      cfg.activity_horizon = sim::Duration::ms(2000);
    } else if (arg == "--region-outages") {
      exp::scaled_region_outages(cfg);
    } else if (arg == "--battery-deaths") {
      exp::scaled_battery_depletion(cfg);
    } else if (arg == "--link-degradation") {
      exp::scaled_link_degradation(cfg);
    } else if (arg == "--sink-churn") {
      exp::scaled_sink_churn(cfg);
    } else if (arg == "--battery-capacity") {
      const double uj = parse_double(next(), argv[0]);
      if (uj <= 0.0) usage(argv[0]);
      exp::energy_budget(cfg, uj, cfg.battery.heterogeneity);
    } else if (arg == "--battery-hetero") {
      const double h = parse_double(next(), argv[0]);
      if (h < 0.0 || h >= 1.0) usage(argv[0]);
      cfg.battery.heterogeneity = h;
    } else if (arg == "--mobility") {
      cfg.mobility = true;
      cfg.activity_horizon = sim::Duration::ms(2000);
      cfg.mobility_params.epoch_interval = sim::Duration::ms(400);
    } else if (arg == "--cluster") {
      cfg.pattern = exp::TrafficPattern::kCluster;
    } else if (arg == "--sink") {
      cfg.pattern = exp::TrafficPattern::kSink;
    } else if (arg == "--random-deployment") {
      cfg.deployment = exp::Deployment::kUniformRandom;
    } else if (arg == "--cross-zone") {
      cfg.spms_ext.cross_zone_ttl = parse_size(next(), argv[0]);
    } else if (arg == "--relay-caching") {
      cfg.spms_ext.relay_caching = true;
    } else if (arg == "--scones") {
      cfg.spms_ext.num_scones = parse_size(next(), argv[0]);
    } else if (arg == "--rx-power") {
      cfg.energy.rx_power_mw = parse_double(next(), argv[0]);
    } else if (arg == "--paper-mac") {
      cfg.mac.infinite_parallelism = true;
      cfg.mac.contention_g_ms = 0.01;
      cfg.proto.tout_adv = sim::Duration::ms(60.0);
      cfg.proto.tout_dat = sim::Duration::ms(120.0);
    } else if (arg == "--trace-out") {
      telemetry.trace_out = next();
      if (telemetry.trace_out.empty()) usage(argv[0]);
    } else if (arg == "--metrics-out") {
      telemetry.metrics_out = next();
      if (telemetry.metrics_out.empty()) usage(argv[0]);
    } else if (arg == "--sample-every-ms") {
      telemetry.sample_every_ms = parse_double(next(), argv[0]);
      if (telemetry.sample_every_ms <= 0.0) usage(argv[0]);
    } else if (arg == "--metrics-format") {
      const std::string f = next();
      if (f == "json") {
        telemetry.metrics_format = exp::TelemetryOptions::MetricsFormat::kJson;
      } else if (f == "prom") {
        telemetry.metrics_format = exp::TelemetryOptions::MetricsFormat::kProm;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--spans-out") {
      telemetry.spans_out = next();
      if (telemetry.spans_out.empty()) usage(argv[0]);
    } else if (arg == "--perfetto-out") {
      telemetry.perfetto_out = next();
      if (telemetry.perfetto_out.empty()) usage(argv[0]);
    } else if (arg == "--flight-out") {
      telemetry.flight_out = next();
      if (telemetry.flight_out.empty()) usage(argv[0]);
    } else if (arg == "--trace-report") {
      trace_report = true;
      telemetry.spans = true;
    } else if (arg == "--rollup-out") {
      scenario_flag = arg;
      sopt.rollup_out = next();
      if (sopt.rollup_out.empty()) usage(argv[0]);
    } else if (arg == "--csv") {
      sopt.format = Format::kCsv;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      usage(argv[0]);
    }
  }

  if (!scenario.empty()) {
    if (!single_flag.empty()) {
      std::cerr << single_flag << " is a single-run flag and has no effect with --scenario "
                   "(the registry defines the grid; see EXPERIMENTS.md)\n";
      return 2;
    }
    return run_scenario_mode(scenario, sopt);
  }
  if (!scenario_flag.empty()) {
    std::cerr << scenario_flag << " requires --scenario (single-run mode executes exactly "
                 "one config; see --help)\n";
    return 2;
  }
  if (sopt.format == Format::kGnuplot) {
    std::cerr << "--format gnuplot requires --scenario (a single run has no sweep axis "
                 "to plot)\n";
    return 2;
  }

  const auto r = exp::run_experiment(cfg, telemetry);

  exp::Table t({"metric", "value"});
  t.add_row({"protocol", r.protocol});
  t.add_row({"nodes", std::to_string(r.nodes)});
  t.add_row({"zone radius (m)", exp::fmt(r.zone_radius_m, 1)});
  t.add_row({"items published", std::to_string(r.items_published)});
  t.add_row({"deliveries", std::to_string(r.deliveries) + "/" +
                               std::to_string(r.expected_deliveries)});
  t.add_row({"delivery ratio", exp::fmt_pct(r.delivery_ratio)});
  t.add_row({"mean delay (ms)", exp::fmt(r.mean_delay_ms, 3)});
  t.add_row({"p95 delay (ms)", exp::fmt(r.p95_delay_ms, 3)});
  t.add_row({"max delay (ms)", exp::fmt(r.max_delay_ms, 3)});
  t.add_row({"energy/item, protocol (uJ)", exp::fmt(r.protocol_energy_per_item_uj, 3)});
  t.add_row({"energy/item, total (uJ)", exp::fmt(r.energy_per_item_uj, 3)});
  t.add_row({"routing (DBF) energy (uJ)", exp::fmt(r.energy.routing_uj(), 1)});
  t.add_row({"tx frames (ADV/REQ/DATA)", std::to_string(r.net_counters.tx_adv) + "/" +
                                             std::to_string(r.net_counters.tx_req) + "/" +
                                             std::to_string(r.net_counters.tx_data)});
  t.add_row({"failures injected", std::to_string(r.failures_injected)});
  t.add_row({"fault events", std::to_string(r.fault_stats.fault_events)});
  t.add_row({"permanent deaths", std::to_string(r.fault_stats.permanent_deaths)});
  t.add_row({"depleted batteries", std::to_string(r.battery.depleted_nodes)});
  t.add_row({"time to first death (ms)", exp::fmt(r.fault_stats.time_to_first_death_ms, 3)});
  t.add_row({"network half-life (ms)", exp::fmt(r.fault_stats.half_life_ms, 3)});
  t.add_row({"residual energy mean (uJ)", exp::fmt(r.battery.residual_mean_uj, 3)});
  t.add_row({"residual energy Gini", exp::fmt(r.battery.residual_gini, 4)});
  t.add_row({"node downtime (ms)", exp::fmt(r.fault_stats.total_downtime_ms, 1)});
  t.add_row({"mean recovery latency (ms)",
             exp::fmt(r.fault_stats.mean_recovery_latency_ms, 3)});
  t.add_row({"link-fault drops", std::to_string(r.net_counters.dropped_link_fault)});
  t.add_row({"mobility epochs", std::to_string(r.mobility_epochs)});
  t.add_row({"acquisitions given up", std::to_string(r.given_up)});
  t.add_row({"unknown-item deliveries", std::to_string(r.unknown_item_deliveries)});
  t.add_row({"simulated time (ms)", exp::fmt(r.sim_time_ms, 1)});
  t.add_row({"events executed", std::to_string(r.events_executed)});
  if (!r.series.empty()) {
    t.add_row({"telemetry samples", std::to_string(r.series.samples())});
  }

  print_formatted(t, sopt.format);

  if (trace_report && r.spans != nullptr) {
    const auto report = analysis::build_trace_report(*r.spans, r.node_energy_uj);
    const auto& js = report.journeys;
    std::cout << "\njourneys: " << js.delivered << " delivered, " << js.complete
              << " complete chains (" << exp::fmt(js.completeness() * 100.0, 2) << "%), "
              << js.orphaned << " orphaned, max depth " << js.max_depth << "\n\n";

    exp::Table hops({"depth", "count", "mean_hop_ms", "max_hop_ms", "mean_total_ms"});
    for (const auto& h : report.per_depth) {
      hops.add_row({std::to_string(h.depth), std::to_string(h.count),
                    exp::fmt(h.mean_hop_ms, 3), exp::fmt(h.max_hop_ms, 3),
                    exp::fmt(h.mean_total_ms, 3)});
    }
    hops.print(std::cout);
    std::cout << "\n";

    exp::Table relays({"node", "relayed_req", "relayed_data", "served", "energy_uj"});
    constexpr std::size_t kTopRelays = 10;  // the busiest carriers; the tail is noise
    for (std::size_t i = 0; i < report.relays.size() && i < kTopRelays; ++i) {
      const auto& row = report.relays[i];
      relays.add_row({"n" + std::to_string(row.node.v), std::to_string(row.relayed_req),
                      std::to_string(row.relayed_data), std::to_string(row.served),
                      exp::fmt(row.energy_uj, 1)});
    }
    relays.print(std::cout);
  }
  return r.event_limit_hit ? 1 : 0;
}
