/// \file run_experiment_cli.cpp
/// Command-line experiment driver.
///
/// Four modes:
///
///  * Scenario mode — run a named registry scenario on the parallel batch
///    engine, optionally narrowed to part of its grid:
///      run_experiment_cli --scenario fig08 --seeds 8 --jobs 8 --format csv
///      run_experiment_cli --scenario fig08 --store results/ --shard 0/2
///      run_experiment_cli --scenario fig13 --variant failures
///          --set zone_radius_m=15 --set protocol=SPIN --set seed=2005
///      run_experiment_cli --list
///    Prints one row per grid point with cross-seed mean/stddev (add
///    --per-seed for one row per run).  The per-seed metrics are
///    bit-identical whatever --jobs is: every job owns a private Simulation.
///    --variant keeps one of the scenario's variants; --set KEY=VALUE sets
///    one config field, KEY being a key of a stored config and VALUE spelled
///    the way the store writes it.  With --store DIR, finished jobs persist
///    under DIR and later runs only execute the missing cells (resume; see
///    EXPERIMENTS.md).  --shard i/N runs a deterministic 1/N slice of the
///    sweep (shard stores are merged with the merge mode below).
///
///  * Merge mode — union shard stores into one:
///      run_experiment_cli merge DEST_STORE SRC_STORE...
///
///  * Store introspection — what a store directory holds:
///      run_experiment_cli store ls DIR
///    Prints the scenarios present (with entry counts), the schema versions
///    on disk, and how many corrupt lines a load would skip.
///
///  * Store garbage collection — evict stale lines:
///      run_experiment_cli store gc DIR [--dry-run] [--max-age-days N]
///    Drops lines of another schema version, lines older than N days and
///    corrupt lines; --dry-run only reports what it would evict.
///
/// Output formats: table (default), csv, json, gnuplot.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/trace_report.hpp"
#include "exp/batch.hpp"
#include "exp/columns.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/store/result_store.hpp"
#include "exp/table.hpp"

namespace {

using namespace spms;

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --scenario NAME [--variant NAME] [--set KEY=VALUE]...\n"
         "       [--seeds K] [--jobs N] [--store DIR] [--no-cache] [--shard I/N]\n"
         "       [--format table|csv|json|gnuplot] [--plot-x COL] [--plot-y COL]\n"
         "       [--per-seed] [--quiet] [--rollup-out FILE]\n"
         "       [--trace-out FILE] [--metrics-out FILE] [--sample-every-ms T]\n"
         "       [--metrics-format json|prom] [--spans-out FILE] [--perfetto-out FILE]\n"
         "       [--flight-out FILE] [--trace-report]\n"
         "   or: " << argv0 << " --list\n"
         "   or: " << argv0 << " merge DEST_STORE SRC_STORE...\n"
         "   or: " << argv0 << " store ls DIR\n"
         "   or: " << argv0 << " store gc DIR [--dry-run] [--max-age-days N]\n"
         "KEY is a key of a stored config and VALUE is spelled the way the store\n"
         "writes it (EXPERIMENTS.md lists them).\n";
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

double parse_double(const char* s, const char* argv0) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) usage(argv0);
  return v;
}

Format parse_format(const std::string& f, const char* argv0) {
  if (f == "table") return Format::kTable;
  if (f == "csv") return Format::kCsv;
  if (f == "json") return Format::kJson;
  if (f == "gnuplot") return Format::kGnuplot;
  usage(argv0);
}

/// `title` and `axes` only shape the gnuplot script.
void print_formatted(const exp::Table& t, Format format, const std::string& title,
                     const exp::PlotAxes& axes) {
  switch (format) {
    case Format::kTable: t.print(std::cout); break;
    case Format::kCsv: t.print_csv(std::cout); break;
    case Format::kJson: t.print_json(std::cout); break;
    case Format::kGnuplot: t.print_gnuplot(std::cout, title, axes.x, axes.y); break;
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
    // append, not "v" + ...: GCC 12's -Wrestrict misfires on that operator+.
    schemas.add_row({std::string{"v"}.append(std::to_string(version)), std::to_string(lines),
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
  exp::Table t({"scenario", "jobs/seed", "what it measures", "paper claim"});
  for (const auto& s : exp::scenario_registry()) {
    t.add_row({s.name, std::to_string(s.make().point_count()), s.title, s.paper_claim});
  }
  t.print(std::cout);
  return 0;
}

struct ScenarioOptions {
  std::string variant;  ///< --variant: keep this one variant
  std::vector<std::pair<std::string, std::string>> settings;  ///< --set, in order
  std::size_t seeds = 0;
  std::size_t jobs = 1;
  Format format = Format::kTable;
  bool per_seed = false;
  bool quiet = false;
  std::string store_dir;
  bool use_cache = true;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::string plot_x;  ///< --plot-x: gnuplot abscissa column (empty: exp::default_plot_axes)
  std::string plot_y;  ///< --plot-y: gnuplot ordinate column (empty: likewise)
  std::string rollup_out;  ///< --rollup-out: per-cell metric rollup sidecar
  /// Never part of the config or the store key.  Only --trace-report sets
  /// telemetry.spans, and then the journey tables follow the row.
  exp::TelemetryOptions telemetry;
};

/// --trace-report: journey census, per-depth hop latencies, busiest relays.
void print_trace_report(const exp::RunResult& r) {
  const auto report = analysis::build_trace_report(*r.spans, r.node_energy_uj);
  const auto& js = report.journeys;
  std::cout << "\njourneys: " << js.delivered << " delivered, " << js.complete
            << " complete chains (" << exp::fmt(js.completeness() * 100.0, 2) << "%), "
            << js.orphaned << " orphaned, max depth " << js.max_depth << "\n\n";

  exp::Table hops({"depth", "count", "mean_hop_ms", "max_hop_ms", "mean_total_ms"});
  for (const auto& h : report.per_depth) {
    hops.add_row({std::to_string(h.depth), std::to_string(h.count), exp::fmt(h.mean_hop_ms, 3),
                  exp::fmt(h.max_hop_ms, 3), exp::fmt(h.mean_total_ms, 3)});
  }
  hops.print(std::cout);
  std::cout << "\n";

  exp::Table relays({"node", "relayed_req", "relayed_data", "served", "energy_uj"});
  constexpr std::size_t kTopRelays = 10;  // the busiest carriers; the tail is noise
  for (std::size_t i = 0; i < report.relays.size() && i < kTopRelays; ++i) {
    const auto& row = report.relays[i];
    std::string node;
    net::append_node(node, row.node);
    relays.add_row({node, std::to_string(row.relayed_req),
                    std::to_string(row.relayed_data), std::to_string(row.served),
                    exp::fmt(row.energy_uj, 1)});
  }
  relays.print(std::cout);
}

int run_scenario_mode(const std::string& name, const ScenarioOptions& opt) {
  const auto* info = exp::find_scenario(name);
  if (info == nullptr) {
    std::cerr << "unknown scenario '" << name << "'; --list shows the registry\n";
    return 2;
  }
  // --plot-x/--plot-y shape only a gnuplot script, and a typo in one must
  // fail before the sweep pays for itself.
  const auto headers = exp::table_headers(opt.per_seed ? exp::TableKind::kPerSeed
                                                        : exp::TableKind::kAggregate);
  for (const auto* col : {&opt.plot_x, &opt.plot_y}) {
    if (col->empty()) continue;
    const char axis = col == &opt.plot_x ? 'x' : 'y';
    if (opt.format != Format::kGnuplot) {
      std::cerr << "--plot-" << axis << ": only --format gnuplot plots\n";
      return 2;
    }
    if (std::find(headers.begin(), headers.end(), *col) == headers.end()) {
      std::cerr << "--plot-" << axis << ' ' << *col << ": no such column; available:";
      for (const auto& h : headers) std::cerr << ' ' << h;
      std::cerr << "\n";
      return 2;
    }
  }

  // The selection: --variant first, then every --set in order, then --seeds
  // (which counts from a seed set by --set seed=N).
  auto spec = info->make();
  try {
    if (!opt.variant.empty()) spec.select_variant(opt.variant);
    for (const auto& [key, value] : opt.settings) spec.set(key, value);
  } catch (const std::invalid_argument& e) {
    std::cerr << "scenario " << name << ": " << e.what() << "\n";
    return 2;
  }
  if (opt.seeds > 0) spec.use_consecutive_seeds(opt.seeds);

  // A file output or the journey report follows one run: with several jobs
  // there is no one run to follow, and a cache hit would run nothing.
  if ((opt.telemetry.writes_files() || opt.telemetry.spans) &&
      (spec.job_count() != 1 || !opt.store_dir.empty())) {
    std::cerr << "the telemetry file outputs and --trace-report follow one run: narrow " << name
              << "'s " << spec.job_count() << " jobs to one with --variant and --set, "
              << "without --store\n";
    return 2;
  }

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
  options.telemetry = opt.telemetry;
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
    // E.g. a failing job, or a store write failing mid-sweep (disk full):
    // the store already holds every result recorded before it, so a rerun
    // resumes from there.
    std::cerr << "scenario " << name << ": " << e.what() << "\n";
    return 2;
  }
  const auto& batch = *ran;
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (!opt.quiet) {
    std::cerr << "executed " << batch.executed() << " jobs (" << batch.cached()
              << " cached) in " << exp::fmt(elapsed, 2) << " s (" << batch.workers()
              << " workers)\n";
  }

  exp::Table t(headers);
  if (opt.per_seed) {
    for (std::size_t i = 0; i < batch.runs().size(); ++i) {
      t.add_row(exp::run_row(batch.jobs()[i], batch.runs()[i]));
    }
  } else {
    for (const auto& p : batch.points()) t.add_row(exp::point_row(p));
  }
  auto axes = exp::default_plot_axes(batch);
  if (!opt.plot_x.empty()) axes.x = opt.plot_x;
  if (!opt.plot_y.empty()) axes.y = opt.plot_y;
  print_formatted(t, opt.format, name, axes);
  if (opt.telemetry.spans && !batch.runs().empty() && batch.runs().front().spans != nullptr) {
    print_trace_report(batch.runs().front());
  }

  // A tripped event guard means a truncated, untrustworthy run (see
  // sim::Scheduler::run): report it on stderr and in the exit code.
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

  std::string scenario;
  ScenarioOptions sopt;
  auto& telemetry = sopt.telemetry;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // A file-path flag: an empty path is a usage error.
    const auto next_path = [&]() -> std::string {
      std::string path = next();
      if (path.empty()) usage(argv[0]);
      return path;
    };
    if (arg == "--list") {
      return list_scenarios();
    } else if (arg == "--scenario") {
      scenario = next();
    } else if (arg == "--variant") {
      sopt.variant = next();
    } else if (arg == "--set") {
      const std::string setting = next();
      const auto eq = setting.find('=');
      if (eq == std::string::npos || eq == 0) usage(argv[0]);
      sopt.settings.emplace_back(setting.substr(0, eq), setting.substr(eq + 1));
    } else if (arg == "--seeds") {
      sopt.seeds = parse_size(next(), argv[0]);
    } else if (arg == "--jobs") {
      sopt.jobs = parse_size(next(), argv[0]);
      if (sopt.jobs > exp::kMaxJobs) {
        std::cerr << "--jobs " << sopt.jobs << ": at most " << exp::kMaxJobs << " workers\n";
        std::exit(2);
      }
    } else if (arg == "--format") {
      sopt.format = parse_format(next(), argv[0]);
    } else if (arg == "--per-seed") {
      sopt.per_seed = true;
    } else if (arg == "--quiet") {
      sopt.quiet = true;
    } else if (arg == "--store") {
      sopt.store_dir = next_path();
    } else if (arg == "--no-cache") {
      sopt.use_cache = false;
    } else if (arg == "--shard") {
      parse_shard(next(), sopt.shard_index, sopt.shard_count, argv[0]);
    } else if (arg == "--plot-x") {
      sopt.plot_x = next();
    } else if (arg == "--plot-y") {
      sopt.plot_y = next();
    } else if (arg == "--rollup-out") {
      sopt.rollup_out = next_path();
    } else if (arg == "--trace-out") {
      telemetry.trace_out = next_path();
    } else if (arg == "--metrics-out") {
      telemetry.metrics_out = next_path();
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
      telemetry.spans_out = next_path();
    } else if (arg == "--perfetto-out") {
      telemetry.perfetto_out = next_path();
    } else if (arg == "--flight-out") {
      telemetry.flight_out = next_path();
    } else if (arg == "--trace-report") {
      telemetry.spans = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      usage(argv[0]);
    }
  }
  if (scenario.empty()) usage(argv[0]);
  return run_scenario_mode(scenario, sopt);
}
