#include <gtest/gtest.h>

#include <string>

#include "exp/batch.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/store/canonical.hpp"

/// The scale-* scenario family: registry shape, worker-count independence
/// of its results, and that its cluster traffic actually delivers.

namespace spms::exp {
namespace {

TEST(ScaleFamilyTest, RegistryCarriesTheFourSizesOnClusterTraffic) {
  const struct {
    const char* name;
    std::size_t nodes;
  } expected[] = {
      {"scale-1k", 1'000},
      {"scale-10k", 10'000},
      {"scale-100k", 100'000},
      {"scale-1m", 1'000'000},
  };
  for (const auto& e : expected) {
    const auto* info = find_scenario(e.name);
    ASSERT_NE(info, nullptr) << e.name;
    const auto spec = info->make();
    EXPECT_EQ(spec.base.node_count, e.nodes) << e.name;
    EXPECT_EQ(spec.base.pattern, TrafficPattern::kCluster) << e.name;
    EXPECT_EQ(spec.base.zone_radius_m, 10.0) << e.name;
    EXPECT_EQ(spec.base.traffic.packets_per_node, 1u) << e.name;
  }
}

TEST(ScaleFamilyTest, AggregatesAreWorkerCountIndependent) {
  // Per-seed runs are single-threaded and a quantile is a pure function of
  // the delay samples, so the full RunResult serialization — p95 included —
  // must be byte-identical at --jobs 1 and 8.
  auto spec = find_scenario("scale-1k")->make();
  spec.use_consecutive_seeds(4);
  BatchOptions serial;
  serial.jobs = 1;
  BatchOptions wide;
  wide.jobs = 8;
  const auto r1 = BatchRunner{serial}.run(spec);
  const auto r8 = BatchRunner{wide}.run(spec);
  ASSERT_EQ(r1.runs().size(), 4u);
  ASSERT_EQ(r1.runs().size(), r8.runs().size());
  for (std::size_t i = 0; i < r1.runs().size(); ++i) {
    EXPECT_EQ(store::result_to_json(r1.runs()[i]), store::result_to_json(r8.runs()[i])) << i;
  }
}

TEST(ScaleFamilyTest, SmallestSizeDeliversForSpmsAndSpin) {
  // The family times dissemination, so its traffic must deliver: each
  // reading reaches its cluster head and the zone bystanders that want it.
  for (const char* protocol : {"SPMS", "SPIN"}) {
    auto spec = find_scenario("scale-1k")->make();
    spec.set("protocol", protocol);
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 1u) << protocol;
    const auto r = run_experiment(jobs[0].config);
    EXPECT_FALSE(r.event_limit_hit) << protocol;
    EXPECT_GE(r.delivery_ratio, 0.99) << protocol;
    EXPECT_GT(r.deliveries, 1'000u) << protocol;
  }
}

}  // namespace
}  // namespace spms::exp
