#include <gtest/gtest.h>

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
