#include "exp/batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/scenario_registry.hpp"
#include "exp/store/result_store.hpp"
#include "stored_fields.hpp"

/// Batch-engine invariants: deterministic expansion, bit-identical results
/// whatever the worker count, correct grouping/lookup, and registry sanity.

namespace spms::exp {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.name = "test";
  spec.base.node_count = 16;
  spec.base.zone_radius_m = 12.0;
  spec.base.traffic.packets_per_node = 1;
  spec.protocols = {ProtocolKind::kSpms, ProtocolKind::kSpin};
  spec.seeds = {1, 2, 3, 4};
  return spec;
}

TEST(SweepSpecTest, EmptyAxesExpandToOneJobFromBase) {
  SweepSpec spec;
  spec.base.node_count = 25;
  spec.base.seed = 7;
  EXPECT_EQ(spec.point_count(), 1u);
  EXPECT_EQ(spec.job_count(), 1u);
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].config.node_count, 25u);
  EXPECT_EQ(jobs[0].config.seed, 7u);
  EXPECT_EQ(jobs[0].point, 0u);
}

TEST(SweepSpecTest, ExpansionOrderIsDeterministicAndComplete) {
  SweepSpec spec;
  spec.name = "grid";
  spec.protocols = {ProtocolKind::kSpms, ProtocolKind::kSpin};
  spec.node_counts = {16, 25};
  spec.zone_radii = {10.0, 20.0};
  spec.variants = {{"a", nullptr}, {"b", nullptr}};
  spec.seeds = {1, 2, 3};
  EXPECT_EQ(spec.point_count(), 16u);
  EXPECT_EQ(spec.job_count(), 48u);
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 48u);
  // Seeds are innermost: consecutive jobs of one point share everything but
  // the seed; points are numbered contiguously.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].point, i / 3);
    EXPECT_EQ(jobs[i].seed, spec.seeds[i % 3]);
  }
  // Every (point, seed) combination appears exactly once, and the label
  // encodes the full coordinates.
  std::set<std::string> labels;
  for (const auto& job : jobs) labels.insert(job.config.label);
  EXPECT_EQ(labels.size(), 48u);
  EXPECT_EQ(jobs[0].config.label, "grid/SPMS/n16/r10/a/s1");
}

TEST(SweepSpecTest, VariantsMayOverrideAnyKnobButNotSeed) {
  SweepSpec spec;
  spec.variants = {{"hot", [](ExperimentConfig& c) {
                      c.faults.crash.enabled = true;
                      c.seed = 999;  // stamped over by the seed axis
                    }}};
  spec.seeds = {5};
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs[0].config.faults.crash.enabled);
  EXPECT_EQ(jobs[0].config.seed, 5u);
}

TEST(BatchRunnerTest, ParallelRunsAreBitIdenticalToSerial) {
  const auto spec = small_spec();
  BatchOptions serial;
  serial.jobs = 1;
  BatchOptions parallel;
  parallel.jobs = 8;
  const auto a = BatchRunner{serial}.run(spec);
  const auto b = BatchRunner{parallel}.run(spec);
  ASSERT_EQ(a.runs().size(), 8u);
  ASSERT_EQ(b.runs().size(), 8u);
  for (std::size_t i = 0; i < a.runs().size(); ++i) {
    expect_bit_identical(a.runs()[i], b.runs()[i]);
  }
}

TEST(BatchRunnerTest, PointLookupGroupsSeedsInOrder) {
  const auto spec = small_spec();
  BatchOptions options;
  options.jobs = 4;
  const auto batch = BatchRunner{options}.run(spec);
  ASSERT_EQ(batch.points().size(), 2u);
  const auto& spms_pt = batch.point(ProtocolKind::kSpms, 16, 12.0);
  ASSERT_EQ(spms_pt.runs.size(), 4u);
  for (const auto& r : spms_pt.runs) EXPECT_EQ(r.protocol, "SPMS");
  // Seed order within a point matches the spec's seed list: rerunning seed 3
  // alone must reproduce runs[2].
  ExperimentConfig cfg = spec.base;
  cfg.protocol = ProtocolKind::kSpms;
  cfg.seed = 3;
  const auto lone = run_experiment(cfg);
  EXPECT_EQ(lone.mean_delay_ms, spms_pt.runs[2].mean_delay_ms);
  EXPECT_EQ(lone.events_executed, spms_pt.runs[2].events_executed);
  EXPECT_THROW((void)batch.point(ProtocolKind::kFlooding, 16, 12.0), std::out_of_range);
}

TEST(BatchRunnerTest, OnResultReportsEveryJobExactlyOnce) {
  const auto spec = small_spec();
  BatchOptions options;
  options.jobs = 3;
  std::set<std::size_t> seen;
  std::size_t max_done = 0;
  options.on_result = [&](const SweepJob& job, const RunResult&, std::size_t done,
                          std::size_t total) {
    seen.insert(job.index);
    max_done = std::max(max_done, done);
    EXPECT_EQ(total, 8u);
  };
  const auto batch = BatchRunner{options}.run(spec);
  EXPECT_EQ(batch.runs().size(), 8u);
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(max_done, 8u);
}

TEST(BatchRunnerTest, FailingJobsRethrowTheEarliestAfterRecordingTheRest) {
  // Good jobs before, between and after two kinds that throw at
  // construction.  Expansion order: good-a (jobs 0-1), far (2-3), good-b
  // (4-5), mobile-cluster (6-7), good-c (8-9).
  SweepSpec spec = small_spec();
  spec.protocols = {ProtocolKind::kSpms};
  spec.seeds = {1, 2};
  spec.variants = {{"good-a", nullptr},
                   {"far", [](ExperimentConfig& c) { c.zone_radius_m = 1000.0; }},
                   {"good-b", nullptr},
                   {"mobile-cluster",
                    [](ExperimentConfig& c) {
                      c.mobility = true;
                      c.pattern = TrafficPattern::kCluster;
                    }},
                   {"good-c", nullptr}};
  const std::set<std::size_t> good = {0, 1, 4, 5, 8, 9};
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 10u);

  for (const std::size_t workers : {1, 4}) {
    SCOPED_TRACE("jobs = " + std::to_string(workers));
    const auto dir = std::filesystem::path{::testing::TempDir()} / "spms_batch_failing";
    std::filesystem::remove_all(dir);
    store::ResultStore store{dir};
    BatchOptions options;
    options.jobs = workers;
    options.store = &store;
    std::set<std::size_t> reported;
    options.on_result = [&](const SweepJob& job, const RunResult&, std::size_t, std::size_t) {
      reported.insert(job.index);
    };
    try {
      static_cast<void>(BatchRunner{options}.run(spec));
      ADD_FAILURE() << "the failing jobs did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "Network: zone radius outside the radio's reach");
    }
    EXPECT_EQ(reported, good);

    store::ResultStore reloaded{dir};
    reloaded.load();
    EXPECT_EQ(reloaded.size(), good.size());
    for (const auto& job : jobs) {
      const std::string canonical = store::canonical_config_json(job.config);
      EXPECT_EQ(reloaded.find(store::key_for_canonical(canonical), canonical).has_value(),
                good.count(job.index) == 1)
          << job.config.label;
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(BatchRunnerTest, OnResultRunsOnTheCallingThreadInExpansionOrder) {
  const auto caller = std::this_thread::get_id();
  BatchOptions options;
  options.jobs = 4;
  std::vector<std::size_t> indices;
  options.on_result = [&](const SweepJob& job, const RunResult&, std::size_t done,
                          std::size_t total) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_TRUE(indices.empty() || indices.back() < job.index) << job.index;
    indices.push_back(job.index);
    EXPECT_EQ(done, indices.size());
    EXPECT_EQ(total, 8u);
  };
  static_cast<void>(BatchRunner{options}.run(small_spec()));
  EXPECT_EQ(indices.size(), 8u);
}

TEST(BatchRunnerTest, FileOutputsFollowOneJobAndRefuseSeveral) {
  const auto path = std::string{::testing::TempDir()} + "spms_batch_trace.jsonl";
  std::remove(path.c_str());
  BatchOptions options;
  options.telemetry.trace_out = path;
  // Eight pending jobs: refused before any runs, so no file appears.
  EXPECT_THROW(static_cast<void>(BatchRunner{options}.run(small_spec())),
               std::invalid_argument);
  EXPECT_FALSE(std::ifstream{path}.good());

  auto one = small_spec();
  one.set("protocol", "SPIN");
  one.set("seed", "2");
  const auto batch = BatchRunner{options}.run(one);
  ASSERT_EQ(batch.runs().size(), 1u);
  std::ifstream trace{path};
  std::string first_line;
  ASSERT_TRUE(std::getline(trace, first_line)) << "no trace written for the one job";
  EXPECT_NE(first_line.find("\"kind\""), std::string::npos) << first_line;
  trace.close();
  std::remove(path.c_str());
}

TEST(DefaultJobsTest, ParseJobsEnvRejectsGarbageAndClampsAbsurdValues) {
  EXPECT_EQ(parse_jobs_env(nullptr), 0u);
  EXPECT_EQ(parse_jobs_env(""), 0u);
  EXPECT_EQ(parse_jobs_env("0"), 0u);       // zero workers is never valid
  EXPECT_EQ(parse_jobs_env("8"), 8u);
  EXPECT_EQ(parse_jobs_env("1024"), 1024u);
  EXPECT_EQ(parse_jobs_env("-1"), 0u);      // strtoul would wrap this to 2^64-1
  EXPECT_EQ(parse_jobs_env("+4"), 0u);
  EXPECT_EQ(parse_jobs_env(" 4"), 0u);
  EXPECT_EQ(parse_jobs_env("4 "), 0u);
  EXPECT_EQ(parse_jobs_env("4x"), 0u);      // strtol-style prefix parsing would take 4
  EXPECT_EQ(parse_jobs_env("2048x"), 0u);   // garbage past the clamp point is still garbage
  EXPECT_EQ(parse_jobs_env("abc"), 0u);
  EXPECT_EQ(parse_jobs_env("1e3"), 0u);
  EXPECT_EQ(parse_jobs_env("0x10"), 0u);
  EXPECT_EQ(parse_jobs_env("2048"), kMaxJobs);
  EXPECT_EQ(parse_jobs_env("99999999999999999999999"), kMaxJobs);  // would overflow u64
}

TEST(DefaultJobsTest, EnvOverrideIsHonoredAndGarbageFallsBack) {
  const char* saved = std::getenv("SPMS_JOBS");
  const std::string saved_value = saved ? saved : "";

  ASSERT_EQ(setenv("SPMS_JOBS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(default_jobs(), 3u);
  ASSERT_EQ(setenv("SPMS_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(default_jobs(), 1u);  // falls back to hardware concurrency
  ASSERT_EQ(setenv("SPMS_JOBS", "0", 1), 0);
  EXPECT_GE(default_jobs(), 1u);

  if (saved) {
    setenv("SPMS_JOBS", saved_value.c_str(), 1);
  } else {
    unsetenv("SPMS_JOBS");
  }
}

TEST(ScenarioRegistryTest, AllScenariosExpandAndCarryMetadata) {
  const auto& registry = scenario_registry();
  ASSERT_FALSE(registry.empty());
  std::set<std::string> names;
  for (const auto& s : registry) {
    EXPECT_FALSE(s.title.empty()) << s.name;
    EXPECT_FALSE(s.paper_claim.empty()) << s.name;
    const auto spec = s.make();
    EXPECT_GT(spec.job_count(), 0u) << s.name;
    EXPECT_EQ(spec.name, s.name);
    names.insert(s.name);
  }
  EXPECT_EQ(names.size(), registry.size()) << "duplicate scenario names";
  EXPECT_EQ(find_scenario("nope"), nullptr);
  ASSERT_NE(find_scenario("fig08"), nullptr);
}

TEST(ScenarioRegistryTest, Fig08GridMatchesThePaper) {
  const auto spec = find_scenario("fig08")->make();
  EXPECT_EQ(spec.node_counts, (std::vector<std::size_t>{25, 49, 100, 169, 225}));
  EXPECT_EQ(spec.protocols, (std::vector<ProtocolKind>{ProtocolKind::kSpms,
                                                       ProtocolKind::kSpin}));
  EXPECT_EQ(spec.base.zone_radius_m, 20.0);
  EXPECT_EQ(spec.point_count(), 10u);
}

TEST(ScenarioRegistryTest, FailureVariantsApplyTheScaledRegime) {
  const auto spec = find_scenario("fig10")->make();
  const auto jobs = spec.expand();
  bool saw_failures = false, saw_clean = false;
  for (const auto& job : jobs) {
    if (job.variant == "failures") {
      saw_failures = true;
      EXPECT_TRUE(job.config.faults.crash.enabled);
    } else {
      saw_clean = true;
      EXPECT_FALSE(job.config.faults.crash.enabled);
    }
  }
  EXPECT_TRUE(saw_failures);
  EXPECT_TRUE(saw_clean);
}

}  // namespace
}  // namespace spms::exp
