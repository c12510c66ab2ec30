#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/batch.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/store/canonical.hpp"
#include "exp/store/result_store.hpp"
#include "exp/telemetry.hpp"

/// The zero-perturbation contract, pinned: running any scenario family with
/// telemetry fully on (metric catalog + per-kind counters + sampler + trace
/// ring) must leave the run's serialized store bytes identical to a run with
/// telemetry fully off.  Also the unknown_item_deliveries surfacing: the
/// collector has counted deliveries of never-published items since the
/// beginning, but the count used to die inside the collector — it now flows
/// through RunResult and the store schema (v4).

namespace spms::exp {
namespace {

namespace fs = std::filesystem;

TelemetryOptions fully_on() {
  TelemetryOptions t;
  t.metrics = true;
  t.sample_every_ms = 5.0;
  t.trace_ring = 512;
  t.spans = true;  // causal span assembly rides the same sink, same contract
  return t;
}

/// The exact JSONL line the result store would append for this config.
std::string store_line(const ExperimentConfig& cfg, const RunResult& r) {
  const auto canonical = store::canonical_config_json(cfg);
  return store::make_record_line(store::key_for_canonical(canonical), canonical,
                                 store::result_to_json(r));
}

class TelemetryByteIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(TelemetryByteIdentity, FullyOnTelemetryLeavesStoreBytesIdentical) {
  const auto* info = find_scenario(GetParam());
  ASSERT_NE(info, nullptr);
  auto jobs = info->make().expand();
  ASSERT_FALSE(jobs.empty());

  // One run per protocol arm of the family keeps the suite seconds-cheap
  // while still exercising every emit site the family reaches (SPMS verbs +
  // routing for one arm, SPIN verbs for the other; faults / battery /
  // mobility come from the family's base config).
  std::vector<ExperimentConfig> configs;
  std::string seen_protocols;
  for (const auto& job : jobs) {
    const std::string proto{to_string(job.protocol)};
    if (seen_protocols.find(proto) != std::string::npos) continue;
    seen_protocols += proto;
    auto cfg = job.config;
    if (std::string{GetParam()} == "fig12") {
      // fig12's full 169-node mobile grid is bench-sized; shrink the field
      // but keep what the family is here for — mobility epochs, DBF
      // reconvergence, route-change records.
      cfg.node_count = 49;
      cfg.traffic.packets_per_node = 4;
    }
    configs.push_back(cfg);
  }

  for (const auto& cfg : configs) {
    const auto off = run_experiment(cfg);
    const auto on = run_experiment(cfg, fully_on());

    // The contract, at store granularity: key + canonical config + result
    // are the same bytes, so cache hits and fresh runs stay interchangeable
    // whatever telemetry the fresh run carried.
    EXPECT_EQ(store_line(cfg, off), store_line(cfg, on))
        << GetParam() << " " << off.protocol;

    // And the telemetry actually observed the run rather than being inert.
    EXPECT_GT(on.series.samples(), 0u) << GetParam();
    ASSERT_FALSE(on.series.names.empty());
    // The executed-events gauge must have seen this run's clock: it is
    // nondecreasing and its final sample cannot exceed the run's own total.
    const auto it = std::find(on.series.names.begin(), on.series.names.end(),
                              "sched.events_executed");
    ASSERT_NE(it, on.series.names.end());
    const auto executed = on.series.column(
        static_cast<std::size_t>(it - on.series.names.begin()));
    EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end()));
    EXPECT_GT(executed.back(), 0.0);
    EXPECT_LE(executed.back(), static_cast<double>(on.events_executed));
    EXPECT_TRUE(off.series.empty());  // no sampler attached -> no series
  }
}

INSTANTIATE_TEST_SUITE_P(ScenarioFamilies, TelemetryByteIdentity,
                         ::testing::Values("smoke", "faults-smoke", "lifetime-smoke",
                                           "fig12"),
                         [](const auto& info) {
                           std::string name{info.param};
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(TelemetryBatch, StoreFilesAreByteIdenticalWithAndWithoutTelemetry) {
  const fs::path base = fs::path{::testing::TempDir()} / "spms_telemetry_stores";
  fs::remove_all(base);
  const auto spec = find_scenario("smoke")->make();

  const auto run_into = [&](const fs::path& dir, const TelemetryOptions& telemetry) {
    store::ResultStore store{dir};
    BatchOptions opts;
    opts.jobs = 1;  // keep the put() append order deterministic
    opts.store = &store;
    opts.telemetry = telemetry;
    const auto result = BatchRunner{opts}.run(spec);
    EXPECT_EQ(result.cached(), 0u);
    // Concatenate the store's JSONL files in filename order.
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".jsonl") files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    std::string bytes;
    for (const auto& f : files) {
      std::ostringstream ss;
      ss << std::ifstream{f}.rdbuf();
      bytes += ss.str();
    }
    return bytes;
  };

  const auto off_bytes = run_into(base / "off", TelemetryOptions{});
  const auto on_bytes = run_into(base / "on", fully_on());
  EXPECT_FALSE(off_bytes.empty());
  EXPECT_EQ(off_bytes, on_bytes);
  fs::remove_all(base);
}

// --- unknown_item_deliveries surfacing ---------------------------------------

TEST(UnknownItemDeliveries, HealthyRunReportsZero) {
  ExperimentConfig cfg;
  cfg.node_count = 9;
  cfg.zone_radius_m = 12.0;
  cfg.traffic.packets_per_node = 1;
  EXPECT_EQ(run_experiment(cfg).unknown_item_deliveries, 0u);
}

TEST(UnknownItemDeliveries, RoundTripsThroughTheStoreSchema) {
  RunResult r;
  r.protocol = "SPMS";
  r.unknown_item_deliveries = 7;
  const auto json = store::result_to_json(r);
  EXPECT_NE(json.find("\"unknown_item_deliveries\":7"), std::string::npos);
  const auto back = store::result_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->unknown_item_deliveries, 7u);
}

}  // namespace
}  // namespace spms::exp
