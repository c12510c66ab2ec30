/// \file scale.cpp
/// The scale-* scenario family as a bench binary: how far the simulator's
/// hot path actually scales.  Runs the registry's scale-{1k,10k,100k}
/// scenarios in ascending size order (add "1m" on the command line — or any
/// subset of {1k,10k,100k,1m} — for the million-node pass) and reports the
/// numbers the SoA and flat-state work is accountable for:
///
///  * events/sec     — scheduler events per wall-clock second of simulation;
///  * peak RSS       — process high-water mark after the run (ascending run
///                     order makes each row's peak its own footprint);
///  * bytes/node     — peak RSS divided by node count, the per-node memory
///                     figure EXPERIMENTS.md "Scaling" budgets against;
///  * allocs/run     — global operator-new count for the run (counted by the
///                     bench_common.hpp overrides).
///
/// Wired through the shared store plumbing like every other bench:
/// SPMS_BENCH_STORE=DIR caches results by config key (wall-clock and RSS are
/// then meaningless for cached rows — the `cached` column says so).  For a
/// metrics rollup, run the scenario through the CLI:
/// `run_experiment_cli --scenario scale-1k --jobs 1 --rollup-out FILE`.

#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#define SPMS_BENCH_COUNT_ALLOCS
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace spms;

  std::vector<std::string> sizes;
  for (int i = 1; i < argc; ++i) sizes.emplace_back(argv[i]);
  if (sizes.empty()) sizes = {"1k", "10k", "100k"};

  bench::print_header("scale", "events/sec, peak RSS and bytes-per-node vs network size",
                      "throughput harness, not a paper figure (EXPERIMENTS.md \"Scaling\")");

  exp::Table t({"scenario", "nodes", "events", "wall s", "events/s", "peak RSS MB",
                "bytes/node", "allocs/run", "delivery", "cached"});
  for (const auto& size : sizes) {
    const auto spec = bench::make_spec("scale-" + size);

    exp::BatchOptions options;
    options.jobs = 1;  // one job per scenario anyway; keep timing honest
    options.store = bench::bench_store();

    const auto allocs_before = bench::alloc_count();
    const auto t0 = std::chrono::steady_clock::now();
    const auto batch = exp::BatchRunner{options}.run(spec);
    const auto t1 = std::chrono::steady_clock::now();
    const auto allocs = bench::alloc_count() - allocs_before;

    const double wall_s = std::chrono::duration<double>(t1 - t0).count();
    std::size_t events = 0;
    double delivery = 0.0;
    for (const auto& r : batch.runs()) {
      events += r.events_executed;
      delivery = r.delivery_ratio;
    }
    const std::size_t rss = bench::peak_rss_bytes();
    const std::size_t nodes = spec.base.node_count;
    t.add_row({spec.name, std::to_string(nodes), std::to_string(events),
               exp::fmt(wall_s, 2), exp::fmt(static_cast<double>(events) / wall_s, 0),
               exp::fmt(static_cast<double>(rss) / (1024.0 * 1024.0), 1),
               exp::fmt(static_cast<double>(rss) / static_cast<double>(nodes), 0),
               std::to_string(allocs), exp::fmt_pct(delivery),
               std::to_string(batch.cached())});
  }
  t.print(std::cout);
  return 0;
}
