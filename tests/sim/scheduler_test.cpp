#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.hpp"

namespace spms::sim {
namespace {

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint::at(Duration::millis(3)), [&] { order.push_back(3); });
  s.schedule_at(TimePoint::at(Duration::millis(1)), [&] { order.push_back(1); });
  s.schedule_at(TimePoint::at(Duration::millis(2)), [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, TiesBreakFifo) {
  Scheduler s;
  std::vector<int> order;
  const auto t = TimePoint::at(Duration::millis(1));
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, NowAdvancesToFiringTime) {
  Scheduler s;
  TimePoint seen;
  s.schedule_at(TimePoint::at(Duration::ms(2.5)), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, TimePoint::at(Duration::ms(2.5)));
  EXPECT_EQ(s.now(), TimePoint::at(Duration::ms(2.5)));
}

TEST(SchedulerTest, ScheduleAfterIsRelative) {
  Scheduler s;
  TimePoint inner;
  s.schedule_at(TimePoint::at(Duration::millis(5)), [&] {
    s.schedule_after(Duration::millis(2), [&] { inner = s.now(); });
  });
  s.run();
  EXPECT_EQ(inner, TimePoint::at(Duration::millis(7)));
}

TEST(SchedulerTest, PastSchedulingClampsToNow) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(TimePoint::at(Duration::millis(5)), [&] {
    s.schedule_at(TimePoint::at(Duration::millis(1)), [&] {
      ran = true;
      EXPECT_EQ(s.now(), TimePoint::at(Duration::millis(5)));
    });
  });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const auto h = s.schedule_at(TimePoint::at(Duration::millis(1)), [&] { ran = true; });
  s.cancel(h);
  EXPECT_EQ(s.run(), 0u);
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelInvalidHandleIsNoop) {
  Scheduler s;
  s.cancel(EventHandle{});
  s.cancel(EventHandle{12345});
  EXPECT_EQ(s.run(), 0u);
}

TEST(SchedulerTest, CancelAlreadyFiredIsNoop) {
  Scheduler s;
  int runs = 0;
  const auto h = s.schedule_at(TimePoint::at(Duration::millis(1)), [&] { ++runs; });
  s.run();
  s.cancel(h);
  s.schedule_at(TimePoint::at(Duration::millis(2)), [&] { ++runs; });
  s.run();
  EXPECT_EQ(runs, 2);
}

TEST(SchedulerTest, CancelAfterFireKeepsPendingAccurate) {
  // Regression: a stale cancel used to park the id in the cancelled set
  // forever, underflowing pending() (size_t) and tripping run()'s
  // limit-hit logic on a drained queue.
  Scheduler s;
  const auto h = s.schedule_at(TimePoint::at(Duration::millis(1)), [] {});
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  s.cancel(h);  // already fired
  EXPECT_EQ(s.pending(), 0u);
  s.schedule_at(TimePoint::at(Duration::millis(2)), [] {});
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run(/*max_events=*/1), 1u);
  EXPECT_FALSE(s.event_limit_hit());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, DoubleCancelCountsOnce) {
  Scheduler s;
  const auto h = s.schedule_at(TimePoint::at(Duration::millis(1)), [] {});
  s.schedule_at(TimePoint::at(Duration::millis(2)), [] {});
  s.cancel(h);
  s.cancel(h);  // second cancel of the same pending event must be a no-op
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, RunUntilPushBackKeepsEventLive) {
  // pop_live removes an entry from the live set; run_until's push-back of a
  // beyond-horizon event must restore it or pending() undercounts.
  Scheduler s;
  const auto h = s.schedule_at(TimePoint::at(Duration::millis(1)), [] {});
  bool late_ran = false;
  s.schedule_at(TimePoint::at(Duration::millis(10)), [&] { late_ran = true; });
  s.cancel(h);
  EXPECT_EQ(s.run_until(TimePoint::at(Duration::millis(5))), 0u);
  EXPECT_EQ(s.pending(), 1u);
  const auto h2 = s.schedule_at(TimePoint::at(Duration::millis(11)), [] {});
  s.cancel(h2);  // cancelling the re-pushed neighbour must still work
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(late_ran);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, PendingExcludesCancelled) {
  Scheduler s;
  const auto h1 = s.schedule_at(TimePoint::at(Duration::millis(1)), [] {});
  s.schedule_at(TimePoint::at(Duration::millis(2)), [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(h1);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SchedulerTest, RunUntilStopsAtHorizon) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint::at(Duration::millis(1)), [&] { order.push_back(1); });
  s.schedule_at(TimePoint::at(Duration::millis(5)), [&] { order.push_back(5); });
  const auto n = s.run_until(TimePoint::at(Duration::millis(3)));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), TimePoint::at(Duration::millis(3)));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(SchedulerTest, RunUntilInclusiveAtBoundary) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(TimePoint::at(Duration::millis(3)), [&] { ran = true; });
  s.run_until(TimePoint::at(Duration::millis(3)));
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, RunUntilSkipsCancelledBeyondHorizon) {
  Scheduler s;
  bool late_ran = false;
  const auto h = s.schedule_at(TimePoint::at(Duration::millis(1)), [] {});
  s.schedule_at(TimePoint::at(Duration::millis(10)), [&] { late_ran = true; });
  s.cancel(h);
  EXPECT_EQ(s.run_until(TimePoint::at(Duration::millis(5))), 0u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(late_ran);
}

TEST(SchedulerTest, EventLimitGuards) {
  Scheduler s;
  // A self-perpetuating event chain must be stopped by the guard.
  std::function<void()> loop = [&] { s.schedule_after(Duration::millis(1), loop); };
  s.schedule_after(Duration::millis(1), loop);
  const auto n = s.run(/*max_events=*/100);
  EXPECT_EQ(n, 100u);
  EXPECT_TRUE(s.event_limit_hit());
}

TEST(SchedulerTest, EventsScheduledDuringRunExecute) {
  Scheduler s;
  int depth = 0;
  std::function<void(int)> nest = [&](int d) {
    depth = d;
    if (d < 10) s.schedule_after(Duration::millis(1), [&, d] { nest(d + 1); });
  };
  s.schedule_after(Duration::millis(1), [&] { nest(1); });
  s.run();
  EXPECT_EQ(depth, 10);
}

TEST(SimulationTest, FacadeWiresSchedulerAndRng) {
  Simulation sim{123};
  bool ran = false;
  sim.after(Duration::millis(1), [&] { ran = true; });
  EXPECT_EQ(sim.now(), TimePoint::zero());
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), TimePoint::at(Duration::millis(1)));
  // Rng accessible and deterministic given the seed.
  Simulation sim2{123};
  EXPECT_EQ(sim.rng().next(), sim2.rng().next());
}

}  // namespace
}  // namespace spms::sim
