#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "obs/event_trace.hpp"

/// The medium's drop accounting, tied to its trace: on a run of either MAC
/// path, every NetCounters::dropped_* field equals the number of frames in
/// the kFrameDrop records of its cause.  A record counts one frame, except
/// a cancelled-queue record (a sender-down or battery-dead record with a
/// positive value: a crash or a drained battery took the queue), which
/// counts the queued frames its value carries.

namespace spms::exp {
namespace {

using obs::DropCause;

/// Frames per DropCause traced by the one job `spec` narrows to, with that
/// run's counters.
struct DropTally {
  std::array<double, 5> traced{};
  std::size_t crashed_queues = 0;  ///< sender-down queue records among them
  std::size_t drained_queues = 0;  ///< battery-dead queue records among them
  net::NetCounters counters;
};

DropTally run_and_tally(const SweepSpec& spec, bool unqueued_mac) {
  const auto jobs = spec.expand();
  EXPECT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs.at(0).config.mac.infinite_parallelism, unqueued_mac);
  DropTally tally;
  Scenario s{jobs.at(0).config};
  s.simulation().events().set_sink([&](const obs::TraceRecord& r) {
    if (r.kind != obs::TraceKind::kFrameDrop) return;
    const bool crashed = r.cause == static_cast<std::uint8_t>(DropCause::kSenderDown);
    const bool drained = r.cause == static_cast<std::uint8_t>(DropCause::kBatteryDead);
    const bool queue = (crashed || drained) && r.value > 0.0;
    tally.traced.at(r.cause) += queue ? r.value : 1.0;
    if (queue) ++(crashed ? tally.crashed_queues : tally.drained_queues);
  });
  s.start();
  s.run();
  tally.counters = s.network().counters();
  return tally;
}

double traced(const DropTally& t, DropCause cause) {
  return t.traced[static_cast<std::size_t>(cause)];
}

void expect_counters_match_trace(const DropTally& t) {
  const net::NetCounters& c = t.counters;
  EXPECT_EQ(static_cast<double>(c.dropped_sender_down), traced(t, DropCause::kSenderDown));
  EXPECT_EQ(static_cast<double>(c.dropped_out_of_range), traced(t, DropCause::kOutOfRange));
  EXPECT_EQ(static_cast<double>(c.dropped_receiver_down), traced(t, DropCause::kReceiverDown));
  EXPECT_EQ(static_cast<double>(c.dropped_link_fault), traced(t, DropCause::kLinkFault));
  EXPECT_EQ(static_cast<double>(c.dropped_battery_dead), traced(t, DropCause::kBatteryDead));
}

TEST(DropAccountingTest, QueuedMacWithStackedFaultsCountsWhatItTraces) {
  auto spec = find_scenario("faults-smoke")->make();
  spec.select_variant("stacked");
  spec.set("protocol", "SPMS");
  const DropTally t = run_and_tally(spec, /*unqueued_mac=*/false);
  expect_counters_match_trace(t);
  // The stacked plan drains batteries, fades links, and crashes nodes with
  // frames queued.
  EXPECT_GT(t.counters.dropped_battery_dead, 0u);
  EXPECT_GT(t.counters.dropped_link_fault, 0u);
  EXPECT_GT(t.crashed_queues, 0u);
}

TEST(DropAccountingTest, UnqueuedMacWithCrashesCountsWhatItTraces) {
  auto spec = find_scenario("fig09")->make();
  spec.select_variant("round-mac");
  spec.set("node_count", "49");
  spec.set("zone_radius_m", "10");
  spec.set("protocol", "SPIN");
  spec.set("faults.crash.enabled", "true");
  const DropTally t = run_and_tally(spec, /*unqueued_mac=*/true);
  expect_counters_match_trace(t);
  // Crashes drop frames in the backoff and between rx and t_proc.
  EXPECT_GT(t.counters.dropped_sender_down, 0u);
  EXPECT_GT(t.counters.dropped_receiver_down, 0u);
}

TEST(DropAccountingTest, DrainedQueueCountsEveryQueuedFrame) {
  // Flooding on finite batteries: a node drains with frames queued.
  auto spec = find_scenario("lifetime-race")->make();
  spec.set("protocol", "FLOOD");
  const DropTally t = run_and_tally(spec, /*unqueued_mac=*/false);
  expect_counters_match_trace(t);
  EXPECT_GT(t.drained_queues, 0u);
}

}  // namespace
}  // namespace spms::exp
