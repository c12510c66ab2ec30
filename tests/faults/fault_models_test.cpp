#include "faults/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "obs/event_trace.hpp"
#include "sim/simulation.hpp"

/// Fault-subsystem invariants: ref-counted composition of overlapping
/// faults, permanent deaths beating repairs, process-specific targeting
/// (disks, k-hop neighborhoods), energy-driven deaths, per-process RNG
/// sub-stream independence, and the at-or-after-horizon initiation boundary.

namespace spms::faults {
namespace {

net::MacParams quiet_mac() {
  net::MacParams mac;
  mac.num_slots = 1;
  mac.contention_g_ms = 0.0;
  return mac;
}

struct Harness {
  explicit Harness(std::size_t side = 4, std::uint64_t seed = 9,
                   net::BatteryParams battery = {})
      : sim(seed),
        net(sim, net::RadioTable::mica2(), quiet_mac(), {}, net::grid_deployment(side, 5.0),
            20.0, battery) {}
  sim::Simulation sim;
  net::Network net;
};

bool all_up(const net::Network& net) {
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    if (!net.is_up(net::NodeId{i})) return false;
  }
  return true;
}

std::size_t down_count(const net::Network& net) {
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    if (!net.is_up(net::NodeId{i})) ++n;
  }
  return n;
}

TEST(FaultControllerTest, OverlappingFaultWindowsRepairOnlyWhenAllClose) {
  Harness h;
  FaultController ctrl(h.sim, h.net, {}, net::NodeId{0});
  const net::NodeId id{3};
  ctrl.fail(id);  // model A's window opens
  EXPECT_FALSE(h.net.is_up(id));
  ctrl.fail(id);  // model B's window overlaps
  ctrl.repair(id);
  EXPECT_FALSE(h.net.is_up(id)) << "one window still open";
  ctrl.repair(id);
  EXPECT_TRUE(h.net.is_up(id));
  // The observer saw exactly one down and one up transition.
  EXPECT_EQ(ctrl.stats().node_downs, 1u);
  EXPECT_EQ(ctrl.stats().node_repairs, 1u);
}

TEST(FaultControllerTest, PermanentDeathWinsOverAnyRepair) {
  Harness h;
  FaultController ctrl(h.sim, h.net, {}, net::NodeId{0});
  const net::NodeId id{5};
  ctrl.fail(id);
  ctrl.kill(id);
  ctrl.repair(id);  // the transient window closes, but the node stays dead
  EXPECT_FALSE(h.net.is_up(id));
  EXPECT_TRUE(ctrl.permanently_dead(id));
  EXPECT_EQ(ctrl.stats().permanent_deaths, 1u);
  EXPECT_EQ(ctrl.stats().node_repairs, 0u);
}

TEST(FaultControllerTest, RecordsEveryTransitionItCausesAndNoOther) {
  // fail, fail, repair, repair, fail, kill, repair on one node, one step per
  // millisecond: only the first fail, the last repair of the pair, the
  // third fail and the kill change the node, and each change is one
  // kFaultTransition record at its step's instant.
  Harness h;
  FaultController ctrl(h.sim, h.net, {}, net::NodeId{0});
  std::vector<obs::TraceRecord> transitions;
  h.sim.events().set_sink([&](const obs::TraceRecord& r) {
    if (r.kind == obs::TraceKind::kFaultTransition) transitions.push_back(r);
  });
  const net::NodeId id{6};
  const std::vector<void (FaultController::*)(net::NodeId)> steps{
      &FaultController::fail,   &FaultController::fail, &FaultController::repair,
      &FaultController::repair, &FaultController::fail, &FaultController::kill,
      &FaultController::repair};
  for (std::size_t i = 0; i < steps.size(); ++i) {
    h.sim.at(sim::TimePoint::at(sim::Duration::ms(static_cast<double>(i + 1))),
             [&, step = steps[i]] { (ctrl.*step)(id); });
  }
  h.sim.run();
  ctrl.finalize();

  const std::vector<std::pair<obs::FaultPhase, double>> expected{
      {obs::FaultPhase::kDown, 1.0},
      {obs::FaultPhase::kRepair, 4.0},
      {obs::FaultPhase::kDown, 5.0},
      {obs::FaultPhase::kPermanentDeath, 6.0}};
  ASSERT_EQ(transitions.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(transitions[i].cause, static_cast<std::uint8_t>(expected[i].first)) << i;
    EXPECT_DOUBLE_EQ(transitions[i].at.to_ms(), expected[i].second) << i;
    EXPECT_EQ(transitions[i].node, id) << i;
  }
  EXPECT_FALSE(h.net.is_up(id));
  EXPECT_EQ(ctrl.stats().node_downs, 2u);
  EXPECT_EQ(ctrl.stats().node_repairs, 1u);
  EXPECT_EQ(ctrl.stats().permanent_deaths, 1u);
}

struct CrashRun {
  FaultStats stats;
  bool ends_up = false;
};

/// Runs a crash-only plan (paper defaults: MTBF 50 ms, repair U(5, 15) ms)
/// on the 16-node grid until it drains.
CrashRun run_crash_only(std::uint64_t seed, sim::Duration horizon) {
  Harness h(4, seed);
  FaultPlan plan;
  plan.crash.enabled = true;
  FaultController ctrl(h.sim, h.net, plan, net::NodeId{0});
  ctrl.start(h.sim.now() + horizon);
  h.sim.run();
  ctrl.finalize();
  return {ctrl.stats(), all_up(h.net)};
}

TEST(FaultControllerTest, CrashOnlyPlanMatchesLegacyFailureInjectorTimeline) {
  // The crash timeline is pinned: kCrashStream, one exponential wait per
  // node in id order at start, then a repair draw and the next wait per
  // failure.  This grid, seed and horizon give 139 failures; the Table 1
  // failure figures rest on that timeline.
  const auto run = run_crash_only(9, sim::Duration::ms(500));
  EXPECT_EQ(run.stats.node_downs, 139u);
  // Every repair completes even past the horizon: the run ends fully up.
  EXPECT_TRUE(run.ends_up);
}

// The FailureInjectorTest cases keep the names they had when
// net::FailureInjector, the crash model a crash-only plan replaced, ran them.
TEST(FailureInjectorTest, InjectsAndAlwaysRepairs) {
  const auto run = run_crash_only(9, sim::Duration::ms(500));
  EXPECT_GT(run.stats.node_downs, 0u);
  EXPECT_EQ(run.stats.node_repairs, run.stats.node_downs);
  EXPECT_TRUE(run.ends_up);
}

TEST(CrashRepairTest, FailureCountScalesWithHorizon) {
  const auto short_run = run_crash_only(9, sim::Duration::ms(100));
  const auto long_run = run_crash_only(9, sim::Duration::ms(1000));
  EXPECT_GT(long_run.stats.node_downs, short_run.stats.node_downs * 3);
}

TEST(CrashRepairTest, MeanDowntimeNearMttr) {
  // Repair ~ U(5,15) ms: a node spends MTTR / (MTBF + MTTR) = 10/60 of its
  // time down.
  const double horizon_ms = 20'000.0;
  const auto run = run_crash_only(17, sim::Duration::ms(horizon_ms));
  EXPECT_NEAR(run.stats.total_downtime_ms / (16.0 * horizon_ms), 10.0 / 60.0, 0.05);
}

TEST(RegionOutageTest, BlackoutsTakeDisksDownTogetherAndRestoreThem) {
  Harness h(5, 21);
  FaultPlan plan;
  plan.region.enabled = true;
  plan.region.mean_time_between_outages = sim::Duration::ms(40.0);
  plan.region.radius_m = 8.0;
  plan.region.repair_min = sim::Duration::ms(10.0);
  plan.region.repair_max = sim::Duration::ms(20.0);
  FaultController ctrl(h.sim, h.net, plan, net::NodeId{0});

  // Sample the largest concurrent-down count right after each blackout.
  ctrl.start(sim::TimePoint::at(sim::Duration::ms(400)));
  h.sim.run();
  ctrl.finalize();

  const auto& stats = ctrl.stats();
  ASSERT_GT(stats.fault_events, 0u);
  // An 8 m disk on the 5 m grid always covers several nodes.
  EXPECT_GT(stats.node_downs, stats.fault_events);
  EXPECT_GT(stats.max_concurrent_down, 1u);
  EXPECT_EQ(stats.node_downs, stats.node_repairs) << "regions must restore completely";
  EXPECT_TRUE(all_up(h.net));
  // Every logged event carries the disk size.
  for (const auto& e : ctrl.observer().events()) {
    EXPECT_EQ(e.model, "region");
    EXPECT_GE(e.nodes_affected, 2u);
  }
}

TEST(BatteryDepletionTest, DepletedBatteriesDiePermanentlyThroughTheController) {
  // Energy-driven deaths: idle drain (1 mW, 1 ms tick) against a 5 uJ budget
  // dries every battery out by t = 5 ms; each depletion must become a
  // permanent fault-layer death, in deterministic order, with a timestamp.
  net::BatteryParams battery;
  battery.finite = true;
  battery.capacity_uj = 5.0;
  battery.idle_drain_mw = 1.0;
  battery.idle_tick = sim::Duration::ms(1.0);
  Harness h(4, 33, battery);  // 16 nodes
  FaultController ctrl(h.sim, h.net, {}, net::NodeId{0});  // no process: deaths only
  ctrl.start(sim::TimePoint::at(sim::Duration::ms(100)));
  h.net.start_idle_drain(sim::TimePoint::at(sim::Duration::ms(100)));
  h.sim.run();
  ctrl.finalize();

  EXPECT_EQ(ctrl.stats().permanent_deaths, 16u);
  EXPECT_EQ(ctrl.stats().fault_events, 16u);
  EXPECT_EQ(ctrl.stats().node_repairs, 0u);
  EXPECT_EQ(down_count(h.net), 16u);
  EXPECT_EQ(h.net.depleted_count(), 16u);
  for (const auto& e : ctrl.observer().events()) {
    EXPECT_EQ(e.model, "battery");
    EXPECT_EQ(e.nodes_affected, 1u);
  }
  for (std::uint32_t i = 0; i < h.net.size(); ++i) {
    EXPECT_TRUE(ctrl.permanently_dead(net::NodeId{i})) << i;
  }
  // All budgets are equal and drain on the same tick, so everyone died at
  // the 5th tick; the lifetime milestones all sit there too.
  EXPECT_DOUBLE_EQ(ctrl.stats().time_to_first_death_ms, 5.0);
  EXPECT_DOUBLE_EQ(ctrl.stats().time_to_10pct_dead_ms, 5.0);
  EXPECT_DOUBLE_EQ(ctrl.stats().half_life_ms, 5.0);
}

TEST(BatteryDepletionTest, InfiniteBatteriesNeverFireTheModel) {
  Harness h;  // nothing can deplete
  FaultController ctrl(h.sim, h.net, {}, net::NodeId{0});
  ctrl.start(sim::TimePoint::at(sim::Duration::ms(100)));
  h.net.start_idle_drain(sim::TimePoint::at(sim::Duration::ms(100)));
  h.sim.run();
  EXPECT_EQ(ctrl.stats().permanent_deaths, 0u);
  EXPECT_DOUBLE_EQ(ctrl.stats().time_to_first_death_ms, -1.0);
  EXPECT_DOUBLE_EQ(ctrl.stats().half_life_ms, -1.0);
}

TEST(SinkChurnTest, TargetsExactlyTheKHopNeighborhood) {
  Harness h(5, 11);  // 5x5 grid, pitch 5 m
  FaultPlan plan;
  plan.sink_churn.enabled = true;
  plan.sink_churn.hops = 1;
  const net::NodeId sink{12};  // grid centre
  FaultController ctrl(h.sim, h.net, plan, sink);
  std::set<std::uint32_t> churned;
  h.sim.events().set_sink([&](const obs::TraceRecord& r) {
    if (r.kind == obs::TraceKind::kFaultTransition) churned.insert(r.node.v);
  });
  ctrl.start(sim::TimePoint::at(sim::Duration::ms(200)));

  std::set<std::uint32_t> expected_ids;
  for (const auto id : h.net.neighbors_within(sink, h.net.zone_radius())) {
    expected_ids.insert(id.v);
  }
  std::set<std::uint32_t> target_ids;
  for (const auto id : k_hop_neighborhood(h.net, sink, 1)) target_ids.insert(id.v);
  ASSERT_FALSE(target_ids.empty());
  EXPECT_EQ(target_ids, expected_ids);
  EXPECT_EQ(target_ids.count(sink.v), 0u) << "the sink itself is never churned";

  h.sim.run();
  ctrl.finalize();
  // Every target failed at least once by the horizon, and nothing else did.
  EXPECT_EQ(churned, target_ids);
  EXPECT_GT(ctrl.stats().node_downs, 0u);
  EXPECT_TRUE(all_up(h.net));
}

TEST(LinkDegradationTest, RampReachesDropEndAtHorizonAndHealsAfter) {
  Harness h;
  FaultPlan plan;
  plan.link.enabled = true;
  plan.link.drop_start = 0.1;
  plan.link.drop_end = 0.5;
  FaultController ctrl(h.sim, h.net, plan, net::NodeId{0});
  const auto horizon = sim::TimePoint::at(sim::Duration::ms(100));
  ctrl.start(horizon);
  EXPECT_DOUBLE_EQ(ctrl.link_drop_probability(sim::TimePoint::zero()), 0.1);
  EXPECT_DOUBLE_EQ(ctrl.link_drop_probability(sim::TimePoint::at(sim::Duration::ms(50))), 0.3);
  EXPECT_DOUBLE_EQ(ctrl.link_drop_probability(horizon), 0.0) << "healed at the horizon";
  EXPECT_DOUBLE_EQ(ctrl.link_drop_probability(sim::TimePoint::at(sim::Duration::ms(150))), 0.0);
}

/// Event times of one model, from the observer log.
std::vector<sim::TimePoint> model_event_times(const FaultObserver& obs,
                                              std::string_view model) {
  std::vector<sim::TimePoint> times;
  for (const auto& e : obs.events()) {
    if (e.model == model) times.push_back(e.at);
  }
  return times;
}

TEST(StreamIndependenceTest, TogglingOneModelNeverPerturbsAnother) {
  // Each model draws from its own forked sub-stream on its own schedule, so
  // its initiation timeline is a pure function of that stream: region
  // blackout instants with region alone == with crash+battery stacked on
  // top, and vice versa for crash.
  const auto horizon = sim::TimePoint::at(sim::Duration::ms(400));
  const auto run_plan = [&](const FaultPlan& plan, std::string_view model) {
    Harness h(4, 77);
    FaultController ctrl(h.sim, h.net, plan, net::NodeId{0});
    ctrl.start(horizon);
    h.sim.run();
    return model_event_times(ctrl.observer(), model);
  };

  FaultPlan region_only;
  region_only.region.enabled = true;
  region_only.region.mean_time_between_outages = sim::Duration::ms(60.0);

  FaultPlan stacked = region_only;
  stacked.crash.enabled = true;

  const auto region_alone = run_plan(region_only, "region");
  const auto region_stacked = run_plan(stacked, "region");
  ASSERT_FALSE(region_alone.empty());
  EXPECT_EQ(region_alone, region_stacked);

  FaultPlan crash_only;
  crash_only.crash.enabled = true;
  const auto crash_alone = run_plan(crash_only, "crash");
  const auto crash_stacked = run_plan(stacked, "crash");
  ASSERT_FALSE(crash_alone.empty());
  EXPECT_EQ(crash_alone, crash_stacked);

  // And the stream ids themselves are pairwise distinct.
  const std::set<std::uint64_t> streams{kCrashStream, kRegionStream, kLinkStream,
                                        kSinkChurnStream};
  EXPECT_EQ(streams.size(), 4u);
}

/// Crash failures a crash-only plan injects on one node whose horizon lies
/// `past_first` after that node's first failure instant.  With a single
/// node the first draw is reproducible from the same fork, so the horizon
/// can be aimed exactly at that instant.
std::uint64_t single_node_downs(std::uint64_t seed, sim::Duration past_first) {
  sim::Simulation probe{seed};
  auto preview = probe.rng().fork(kCrashStream);
  const auto first_wait = preview.exponential(CrashRepairParams{}.mean_time_between_failures);
  FaultPlan plan;
  plan.crash.enabled = true;
  Harness h(1, seed);
  FaultController ctrl(h.sim, h.net, plan, net::NodeId{0});
  ctrl.start(h.sim.now() + first_wait + past_first);
  h.sim.run();
  return ctrl.stats().node_downs;
}

TEST(HorizonBoundaryTest, ModelsNeverInitiateAtOrAfterTheHorizon) {
  // The renewal treats the horizon itself as past.
  EXPECT_EQ(single_node_downs(13, sim::Duration::zero()), 0u);
}

TEST(FailureInjectorTest, FailureLandingExactlyOnTheHorizonIsNotInitiated) {
  EXPECT_EQ(single_node_downs(9, sim::Duration::zero()), 0u);
  // One nanosecond later the same failure is strictly inside the horizon.
  EXPECT_EQ(single_node_downs(9, sim::Duration::nanos(1)), 1u);
}

TEST(HorizonBoundaryTest, ZeroHorizonInjectsNothing) {
  EXPECT_EQ(run_crash_only(9, sim::Duration::zero()).stats.node_downs, 0u);
}

}  // namespace
}  // namespace spms::faults
