#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/trace_report.hpp"
#include "exp/batch.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/store/result_store.hpp"
#include "exp/telemetry.hpp"

/// End-to-end contracts of the causal tracing layer: every delivered item on
/// the smoke families must reconstruct a complete parent-linked journey back
/// to its publish (the ISSUE's >= 99% acceptance bar — with an unbounded
/// sink nothing is evicted, so the suite demands 100%), the trace report
/// must attribute hops and relay energy coherently, and the sweep rollup
/// sidecar must be byte-identical at any worker count.

namespace spms::exp {
namespace {

namespace fs = std::filesystem;

TelemetryOptions spans_on() {
  TelemetryOptions t;
  t.spans = true;
  return t;
}

class JourneyCompleteness : public ::testing::TestWithParam<const char*> {};

TEST_P(JourneyCompleteness, DeliveredItemsChainBackToTheirPublish) {
  const auto* info = find_scenario(GetParam());
  ASSERT_NE(info, nullptr);
  const auto jobs = info->make().expand();
  ASSERT_FALSE(jobs.empty());

  // One run per protocol arm, like the byte-identity suite.
  std::string seen;
  for (const auto& job : jobs) {
    const std::string proto{to_string(job.protocol)};
    if (seen.find(proto) != std::string::npos) continue;
    seen += proto;

    const auto r = run_experiment(job.config, spans_on());
    ASSERT_NE(r.spans, nullptr) << proto;
    const auto js = r.spans->journey_stats();
    EXPECT_EQ(js.delivered, r.deliveries) << proto;
    // The sink feeds the assembly every record — nothing is ring-evicted,
    // so every delivered span must close a complete chain.
    EXPECT_EQ(js.complete, js.delivered) << proto;
    EXPECT_EQ(js.orphaned, 0u) << proto;
    EXPECT_GE(js.completeness(), 0.99) << proto;
    if (r.deliveries > 0) {
      EXPECT_GE(js.max_depth, 1u) << proto;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmokeFamilies, JourneyCompleteness,
                         ::testing::Values("smoke", "faults-smoke", "lifetime-smoke"),
                         [](const auto& info) {
                           std::string name{info.param};
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(TraceReport, HopLatencyAndRelayEnergyAreCoherent) {
  const auto* info = find_scenario("smoke");
  ASSERT_NE(info, nullptr);
  const auto jobs = info->make().expand();
  // The SPMS arm: the only protocol with relays to attribute.
  const SweepJob* spms_job = nullptr;
  for (const auto& job : jobs) {
    if (job.protocol == ProtocolKind::kSpms) {
      spms_job = &job;
      break;
    }
  }
  ASSERT_NE(spms_job, nullptr);

  const auto r = run_experiment(spms_job->config, spans_on());
  ASSERT_NE(r.spans, nullptr);
  ASSERT_EQ(r.node_energy_uj.size(), r.nodes);

  const auto report = analysis::build_trace_report(*r.spans, r.node_energy_uj);
  ASSERT_FALSE(report.per_depth.empty());
  std::size_t hop_spans = 0;
  for (const auto& h : report.per_depth) {
    EXPECT_GE(h.depth, 1);
    EXPECT_GT(h.count, 0u);
    EXPECT_GE(h.mean_hop_ms, 0.0);
    EXPECT_GE(h.max_hop_ms, h.mean_hop_ms);
    // The chain to the root is at least as long as the last hop.
    EXPECT_GE(h.mean_total_ms, h.mean_hop_ms - 1e-9);
    hop_spans += h.count;
  }
  EXPECT_LE(hop_spans, report.journeys.delivered);

  // Every node that served a copy spent energy doing so.
  for (const auto& row : report.relays) {
    EXPECT_LT(row.node.v, r.nodes);
    if (row.served > 0 || row.relayed_data > 0) {
      EXPECT_GT(row.energy_uj, 0.0);
    }
  }
}

std::string slurp(const fs::path& p) {
  std::ostringstream ss;
  ss << std::ifstream{p}.rdbuf();
  return ss.str();
}

TEST(RollupSidecar, BytesAreIdenticalAtAnyWorkerCount) {
  const fs::path base = fs::path{::testing::TempDir()} / "spms_rollup_sidecars";
  fs::remove_all(base);
  fs::create_directories(base);
  const auto spec = find_scenario("smoke")->make();

  std::size_t points = 0;
  const auto run_with_jobs = [&](std::size_t jobs, const fs::path& out) {
    BatchOptions opts;
    opts.jobs = jobs;
    opts.rollup_out = out.string();
    const auto result = BatchRunner{opts}.run(spec);
    EXPECT_EQ(result.cached(), 0u);
    points = result.points().size();
    return slurp(out);
  };

  const auto serial = run_with_jobs(1, base / "serial.jsonl");
  const auto parallel = run_with_jobs(4, base / "parallel.jsonl");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);

  // Structure: one rollup line per grid point, each carrying the summed
  // trace counters of its executed seeds.
  EXPECT_EQ(static_cast<std::size_t>(std::count(serial.begin(), serial.end(), '\n')), points);
  EXPECT_NE(serial.find(R"("type":"rollup","scenario":"smoke")"), std::string::npos);
  EXPECT_NE(serial.find(R"("counters":{)"), std::string::npos);
  EXPECT_NE(serial.find("trace.delivery"), std::string::npos);
  fs::remove_all(base);
}

TEST(RollupSidecar, CacheHitsAreAccountedNotAggregated) {
  const fs::path base = fs::path{::testing::TempDir()} / "spms_rollup_cache";
  fs::remove_all(base);
  fs::create_directories(base);
  const auto spec = find_scenario("smoke")->make();

  store::ResultStore store{base / "store"};
  const auto run_once = [&](const fs::path& out) {
    BatchOptions opts;
    opts.jobs = 2;
    opts.store = &store;
    opts.rollup_out = out.string();
    return BatchRunner{opts}.run(spec);
  };

  const auto cold = run_once(base / "cold.jsonl");
  EXPECT_EQ(cold.cached(), 0u);
  const auto warm = run_once(base / "warm.jsonl");
  EXPECT_EQ(warm.executed(), 0u);

  const auto cold_bytes = slurp(base / "cold.jsonl");
  const auto warm_bytes = slurp(base / "warm.jsonl");
  EXPECT_NE(cold_bytes.find("\"executed\":"), std::string::npos);
  // A fully-warm sweep has no metrics to aggregate: executed drops to 0 and
  // the counter map empties, but the rollup still names every point.
  EXPECT_NE(warm_bytes.find("\"executed\":0"), std::string::npos);
  EXPECT_NE(warm_bytes.find(R"("counters":{})"), std::string::npos);
  EXPECT_EQ(std::count(warm_bytes.begin(), warm_bytes.end(), '\n'),
            std::count(cold_bytes.begin(), cold_bytes.end(), '\n'));
  fs::remove_all(base);
}

TEST(SpanExports, FilesAreWrittenAndWellFormed) {
  const fs::path base = fs::path{::testing::TempDir()} / "spms_span_exports";
  fs::remove_all(base);
  fs::create_directories(base);

  ExperimentConfig cfg;
  cfg.node_count = 25;
  cfg.traffic.packets_per_node = 1;

  TelemetryOptions t;
  t.spans_out = (base / "spans.jsonl").string();
  t.perfetto_out = (base / "trace.json").string();
  const auto r = run_experiment(cfg, t);
  ASSERT_NE(r.spans, nullptr);

  const auto spans_bytes = slurp(base / "spans.jsonl");
  EXPECT_NE(spans_bytes.find(R"("type":"span")"), std::string::npos);
  EXPECT_NE(spans_bytes.find(R"("type":"span-summary")"), std::string::npos);
  // The summary line ends with the records consumed.
  EXPECT_NE(spans_bytes.find(R"("records_seen":)" + std::to_string(r.spans->records_seen()) +
                             "}\n"),
            std::string::npos);

  const auto perfetto_bytes = slurp(base / "trace.json");
  EXPECT_EQ(perfetto_bytes.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(perfetto_bytes.find(R"("ph":"X")"), std::string::npos);
  fs::remove_all(base);
}

}  // namespace
}  // namespace spms::exp
