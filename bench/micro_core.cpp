/// \file micro_core.cpp
/// google-benchmark micro-benchmarks for the substrate hot paths: event
/// scheduling (including the cancel-heavy worst case), RNG, neighbor queries
/// under static and churning topologies, DBF rebuilds, a MAC broadcast storm
/// on large grids and a small end-to-end run.
///
/// Derived metrics (EXPERIMENTS.md "Performance"):
///  * items_per_second — scheduler events (or queries) per second, for the
///    substrate benches; the CI perf gate compares it where it is reported.
///  * real_time        — time per run, which the gate compares for the
///    end-to-end runs: their event count is the model's, and a change that
///    removes events can lower events/sec while making a run faster.
///  * events_per_run   — the end-to-end runs' scheduler events, a plain
///    counter beside the time.
///  * allocs_per_op    — global operator-new invocations per iteration,
///    counted by the override below; the pooling/SBO work drives this down.
///
/// Emit a machine-readable snapshot with:
///   bench_micro_core --benchmark_out=BENCH_micro_core.json
///                    --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <vector>

// Counting operator new/delete (bench_common.hpp): allocs_per_op feeds the
// CI perf gate alongside the time or throughput and peak_rss_mb.
#define SPMS_BENCH_COUNT_ALLOCS
#include "bench_common.hpp"

#include "exp/runner.hpp"
#include "net/topology.hpp"
#include "routing/bellman_ford.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace spms;

/// RAII helper: snapshots the alloc counter around the timed loop and writes
/// the allocs_per_op and peak_rss_mb counters when the benchmark finishes.
/// Peak RSS is process-monotonic, so the number is a high-water mark up to
/// and including this benchmark, not a per-benchmark footprint — it gates
/// "the suite never ballooned", not "this case allocated X".
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state)
      : state_(state), start_(bench::alloc_count()) {}
  ~AllocCounter() {
    const auto total = bench::alloc_count() - start_;
    state_.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(total) / static_cast<double>(state_.iterations()));
    state_.counters["peak_rss_mb"] =
        benchmark::Counter(static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0));
  }

 private:
  benchmark::State& state_;
  std::size_t start_;
};

// --- scheduler ---------------------------------------------------------------

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // The scheduler outlives the timed loop: each iteration schedules n events
  // and drains them, so construction cost is paid once, not per iteration.
  sim::Scheduler sched;
  AllocCounter allocs{state};
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      sched.schedule_after(sim::Duration::micros(static_cast<std::int64_t>(i % 997)), [] {});
    }
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  // The lazy-cancel worst case: half of everything scheduled is cancelled
  // before it can fire.  A lazy scheduler pays hashing on every schedule and
  // drags dead entries through the heap; true removal pays one O(log n)
  // sift per cancel and keeps the heap dense.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  std::vector<sim::EventHandle> handles;
  handles.reserve(n);
  AllocCounter allocs{state};
  for (auto _ : state) {
    handles.clear();
    for (std::size_t i = 0; i < n; ++i) {
      handles.push_back(
          sched.schedule_after(sim::Duration::micros(static_cast<std::int64_t>(i % 997)), [] {}));
    }
    for (std::size_t i = 0; i < n; i += 2) sched.cancel(handles[i]);
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerCancelHeavy)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RngExponential(benchmark::State& state) {
  sim::Rng rng{42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(1.0));
  }
}
BENCHMARK(BM_RngExponential);

// --- topology queries --------------------------------------------------------
// Arg is the grid side: 25/50/100 -> 625/2500/10000 nodes.  The seed bench
// used sides 7..15 (49..225 nodes) whose node arrays fit in L1 and hid the
// O(n) scan cliff entirely.

void BM_NeighborScan(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim{1};
  net::Network net(sim, net::RadioTable::mica2(), {}, {}, net::grid_deployment(side, 5.0), 20.0);
  // Query from a mid-field node so the disc is fully interior.
  const net::NodeId center{static_cast<std::uint32_t>(net.size() / 2 + side / 2)};
  AllocCounter allocs{state};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.neighbors_within(center, 20.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NeighborScan)->Arg(25)->Arg(50)->Arg(100);

void BM_NeighborChurn(benchmark::State& state) {
  // Mobility worst case: every query is preceded by a teleport, so a spatial
  // index must pay its coherence cost (cell move) on every iteration.
  const auto side = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim{1};
  net::Network net(sim, net::RadioTable::mica2(), {}, {}, net::grid_deployment(side, 5.0), 20.0);
  const double field = static_cast<double>(side - 1) * 5.0;
  sim::Rng rng{7};
  AllocCounter allocs{state};
  for (auto _ : state) {
    const net::NodeId mover{static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.size()) - 1))};
    net.set_position(mover, net::Point{rng.uniform(0.0, field), rng.uniform(0.0, field)});
    benchmark::DoNotOptimize(net.neighbors_within(mover, 20.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NeighborChurn)->Arg(25)->Arg(50)->Arg(100);

// --- routing -----------------------------------------------------------------

void BM_DbfRebuild(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim{1};
  net::Network net(sim, net::RadioTable::mica2(), {}, {}, net::grid_deployment(side, 5.0), 20.0);
  routing::DbfParams params;
  params.charge_energy = false;
  routing::RoutingService routing(net, params);
  AllocCounter allocs{state};
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing.rebuild());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DbfRebuild)->Arg(13)->Arg(25)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_DijkstraReference(benchmark::State& state) {
  sim::Simulation sim{1};
  net::Network net(sim, net::RadioTable::mica2(), {}, {}, net::grid_deployment(13, 5.0), 20.0);
  routing::ZoneMap zones(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::dijkstra_reference(net, zones, net::NodeId{0}, net::NodeId{84}));
  }
}
BENCHMARK(BM_DijkstraReference);

// --- MAC / delivery on large grids -------------------------------------------

void BM_MacBroadcastGrid(benchmark::State& state) {
  // A broadcast storm through the queued CSMA MAC on a side x side grid:
  // 64 senders spread across the field each broadcast one zone-radius DATA
  // frame, then the run drains to quiescence.  Every frame pays contention
  // counting, carrier-sense disc occupation and disc delivery — the three
  // per-frame topology scans this rewrite moves onto the spatial grid.
  // items_per_second == scheduler events/sec.
  const auto side = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim{1};
  net::Network net(sim, net::RadioTable::mica2(), {}, {}, net::grid_deployment(side, 5.0), 20.0);
  const std::size_t stride = std::max<std::size_t>(1, net.size() / 64);
  std::int64_t events = 0;
  AllocCounter allocs{state};
  for (auto _ : state) {
    for (std::size_t i = 0; i < net.size(); i += stride) {
      net::Packet p;
      p.type = net::PacketType::kData;
      p.size_bytes = 30;
      net.send(net::NodeId{static_cast<std::uint32_t>(i)}, p, 20.0);
    }
    events += static_cast<std::int64_t>(sim.run());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_MacBroadcastGrid)->Arg(25)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

// --- end to end --------------------------------------------------------------

void run_end_to_end(benchmark::State& state, const exp::TelemetryOptions& telemetry) {
  // Full stack (deployment, DBF, protocol, MAC, collector) on the paper's
  // small grid.  Construction is part of the measured work on purpose: a
  // run_experiment call is the unit the batch engine parallelizes.  The
  // gate reads the time per run; events_per_run is reported beside it.
  std::int64_t events = 0;
  AllocCounter allocs{state};
  for (auto _ : state) {
    exp::ExperimentConfig cfg;
    cfg.protocol = state.range(0) == 0 ? exp::ProtocolKind::kSpms : exp::ProtocolKind::kSpin;
    cfg.node_count = 25;
    cfg.zone_radius_m = 15.0;
    cfg.traffic.packets_per_node = 1;
    const auto r = exp::run_experiment(cfg, telemetry);
    events += static_cast<std::int64_t>(r.events_executed);
    benchmark::DoNotOptimize(&r);
  }
  state.counters["events_per_run"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kAvgIterations);
}

void BM_EndToEndSmallRun(benchmark::State& state) {
  // The telemetry-disabled path: this is the bench the CI perf gate compares
  // against BENCH_micro_core.json, so it pins the zero-cost-when-off claim.
  run_end_to_end(state, exp::TelemetryOptions{});
}
BENCHMARK(BM_EndToEndSmallRun)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EndToEndSmallRunTelemetry(benchmark::State& state) {
  // Everything on: full metric catalog, per-kind trace counters, 5ms gauge
  // sampling, and a trace ring — the worst-case in-memory telemetry load.
  // Compare the time per run against BM_EndToEndSmallRun for the
  // enabled-path cost.
  exp::TelemetryOptions telemetry;
  telemetry.metrics = true;
  telemetry.sample_every_ms = 5.0;
  telemetry.trace_ring = 4096;
  run_end_to_end(state, telemetry);
}
BENCHMARK(BM_EndToEndSmallRunTelemetry)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EndToEndSmallRunSpans(benchmark::State& state) {
  // Telemetry plus causal span assembly: every trace record additionally
  // folds into the per-(item, node) span table.  Compare against
  // BM_EndToEndSmallRunTelemetry for the assembly's incremental cost.
  exp::TelemetryOptions telemetry;
  telemetry.metrics = true;
  telemetry.sample_every_ms = 5.0;
  telemetry.trace_ring = 4096;
  telemetry.spans = true;
  run_end_to_end(state, telemetry);
}
BENCHMARK(BM_EndToEndSmallRunSpans)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
