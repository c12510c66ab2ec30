#include <gtest/gtest.h>

#include "net/failure.hpp"
#include "net/mobility.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace spms::net {
namespace {

MacParams quiet_mac() {
  MacParams mac;
  mac.num_slots = 1;
  mac.contention_g_ms = 0.0;
  return mac;
}

struct Harness {
  explicit Harness(std::size_t side = 4, std::uint64_t seed = 9)
      : sim(seed),
        net(sim, RadioTable::mica2(), quiet_mac(), {}, grid_deployment(side, 5.0), 20.0) {}
  sim::Simulation sim;
  Network net;
};

TEST(FailureInjectorTest, InjectsAndAlwaysRepairs) {
  Harness h;
  FailureParams params;  // paper defaults: MTBF 50 ms, repair U(5,15) ms
  FailureInjector injector(h.sim, h.net, params);
  injector.start(sim::TimePoint::at(sim::Duration::ms(500)));
  h.sim.run();
  EXPECT_GT(injector.failures_injected(), 0u);
  // Every repair completes even past the horizon: the run ends fully up.
  for (std::size_t i = 0; i < h.net.size(); ++i) {
    EXPECT_TRUE(h.net.is_up(NodeId{static_cast<std::uint32_t>(i)})) << "node " << i;
  }
}

TEST(FailureInjectorTest, FailureCountScalesWithHorizon) {
  Harness a, b;
  FailureInjector ia(a.sim, a.net, {});
  FailureInjector ib(b.sim, b.net, {});
  ia.start(sim::TimePoint::at(sim::Duration::ms(100)));
  ib.start(sim::TimePoint::at(sim::Duration::ms(1000)));
  a.sim.run();
  b.sim.run();
  EXPECT_GT(ib.failures_injected(), ia.failures_injected() * 3);
}

TEST(FailureInjectorTest, MeanDowntimeNearMttr) {
  // Repair ~ U(5,15) ms: measure the fraction of time a node spends down and
  // compare with MTTR / (MTBF + MTTR) = 10/60.
  Harness h(4, 17);
  FailureParams params;
  FailureInjector injector(h.sim, h.net, params);
  const auto horizon = sim::TimePoint::at(sim::Duration::ms(20'000));
  injector.start(horizon);

  double down_ms = 0.0;
  sim::TimePoint last = h.sim.now();
  std::size_t down_count = 0;
  // Sample the network every 1 ms.
  std::function<void()> sampler = [&] {
    const double dt = (h.sim.now() - last).to_ms();
    last = h.sim.now();
    down_ms += dt * static_cast<double>(down_count) / static_cast<double>(h.net.size());
    down_count = 0;
    for (std::size_t i = 0; i < h.net.size(); ++i) {
      if (!h.net.is_up(NodeId{static_cast<std::uint32_t>(i)})) ++down_count;
    }
    if (h.sim.now() < horizon) h.sim.after(sim::Duration::ms(1.0), sampler);
  };
  h.sim.after(sim::Duration::ms(1.0), sampler);
  h.sim.run();
  const double frac = down_ms / 20'000.0;
  EXPECT_NEAR(frac, 10.0 / 60.0, 0.05);
}

TEST(FailureInjectorTest, NoFailuresAfterZeroHorizon) {
  Harness h;
  FailureInjector injector(h.sim, h.net, {});
  injector.start(h.sim.now());  // horizon == now: nothing may start
  h.sim.run();
  EXPECT_EQ(injector.failures_injected(), 0u);
}

TEST(FailureInjectorTest, FailureLandingExactlyOnTheHorizonIsNotInitiated) {
  // Regression pin for the horizon boundary: the renewal must treat the
  // horizon itself as past.  With a single node the injector's first draw is
  // reproducible from the same fork, so we can aim the horizon exactly at
  // the first failure instant.
  sim::Simulation sim{9};
  Network net(sim, RadioTable::mica2(), quiet_mac(), {}, {{0.0, 0.0}}, 20.0);
  FailureParams params;
  auto preview = sim.rng().fork(0xFA11);
  const auto first_wait = preview.exponential(params.mean_time_between_failures);
  FailureInjector injector(sim, net, params);
  injector.start(sim.now() + first_wait);  // horizon == first failure instant
  sim.run();
  EXPECT_EQ(injector.failures_injected(), 0u);
  // One nanosecond later the same failure is strictly inside the horizon.
  sim::Simulation sim2{9};
  Network net2(sim2, RadioTable::mica2(), quiet_mac(), {}, {{0.0, 0.0}}, 20.0);
  FailureInjector injector2(sim2, net2, params);
  injector2.start(sim2.now() + first_wait + sim::Duration::nanos(1));
  sim2.run();
  EXPECT_GE(injector2.failures_injected(), 1u);
}

TEST(MobilityProcessTest, EpochsMoveTheConfiguredFraction) {
  Harness h;
  MobilityParams params;
  params.epoch_interval = sim::Duration::ms(10);
  params.move_fraction = 0.25;  // 4 of 16 nodes
  MobilityProcess mob(h.sim, h.net, params, 15.0);
  mob.start(sim::TimePoint::at(sim::Duration::ms(35)));
  h.sim.run();
  EXPECT_EQ(mob.epochs(), 3u);       // t = 10, 20, 30
  EXPECT_EQ(mob.moves(), 3u * 4u);
}

TEST(MobilityProcessTest, MovedNodesStayInsideField) {
  Harness h;
  MobilityParams params;
  params.epoch_interval = sim::Duration::ms(5);
  params.move_fraction = 1.0;
  MobilityProcess mob(h.sim, h.net, params, 15.0);
  mob.start(sim::TimePoint::at(sim::Duration::ms(50)));
  h.sim.run();
  for (std::size_t i = 0; i < h.net.size(); ++i) {
    const auto p = h.net.position(NodeId{static_cast<std::uint32_t>(i)});
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 15.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 15.0);
  }
}

TEST(MobilityProcessTest, CallbackFiresPerEpoch) {
  Harness h;
  MobilityParams params;
  params.epoch_interval = sim::Duration::ms(10);
  MobilityProcess mob(h.sim, h.net, params, 15.0);
  int calls = 0;
  mob.set_on_moved([&] { ++calls; });
  mob.start(sim::TimePoint::at(sim::Duration::ms(45)));
  h.sim.run();
  EXPECT_EQ(calls, 4);
}

TEST(MobilityProcessTest, AtLeastOneNodeMovesForTinyFractions) {
  Harness h;
  MobilityParams params;
  params.epoch_interval = sim::Duration::ms(10);
  params.move_fraction = 0.001;  // rounds to 0, clamped to 1 mover
  MobilityProcess mob(h.sim, h.net, params, 15.0);
  mob.start(sim::TimePoint::at(sim::Duration::ms(10)));
  h.sim.run();
  EXPECT_EQ(mob.moves(), 1u);
}

TEST(MobilityProcessTest, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    Harness h(4, seed);
    MobilityParams params;
    params.epoch_interval = sim::Duration::ms(10);
    MobilityProcess mob(h.sim, h.net, params, 15.0);
    mob.start(sim::TimePoint::at(sim::Duration::ms(30)));
    h.sim.run();
    std::vector<Point> pts;
    for (std::size_t i = 0; i < h.net.size(); ++i) {
      pts.push_back(h.net.position(NodeId{static_cast<std::uint32_t>(i)}));
    }
    return pts;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace spms::net
