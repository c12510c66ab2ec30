#include "core/spin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/collector.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "trace_log.hpp"

namespace spms::core {
namespace {

net::MacParams quiet_mac() {
  net::MacParams mac;
  mac.num_slots = 1;
  return mac;
}

struct Rig {
  Rig(std::vector<net::Point> pts, double zone_radius, std::size_t node_count,
      std::uint64_t seed = 1)
      : sim(seed),
        net(sim, net::RadioTable::mica2(), quiet_mac(), {}, std::move(pts), zone_radius),
        interest(node_count),
        proto(sim, net, interest, ProtocolParams{}) {
    proto.set_delivery_callback([this](net::NodeId node, net::DataId item, sim::TimePoint at) {
      collector.record_delivery(node, item, at);
      delivered.push_back(node);
    });
  }

  net::DataId publish(net::NodeId source) {
    const net::DataId item{source, 0};
    collector.record_publish(item, sim.now(), interest.expected_count(item));
    proto.publish(source, item);
    return item;
  }

  sim::Simulation sim;
  net::Network net;
  AllToAllInterest interest;
  SpinProtocol proto;
  Collector collector;
  std::vector<net::NodeId> delivered;
  TraceLog trace{sim};
};

constexpr net::NodeId kA{0}, kB{1}, kC{2};

TEST(SpinProtocolTest, ThreeStageHandshake) {
  Rig rig({{0, 0}, {5, 0}}, 12.0, 2);
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered());
  // ADV(A) -> REQ(B) -> DATA(A) -> ADV(B).
  EXPECT_EQ(rig.net.counters().tx_adv, 2u);
  EXPECT_EQ(rig.net.counters().tx_req, 1u);
  EXPECT_EQ(rig.net.counters().tx_data, 1u);
}

TEST(SpinProtocolTest, EverythingAtMaximumPower) {
  // Zone radius 12 m -> level 3 of the MICA2 table (0.1995 mW, 22.86 m).
  Rig rig({{0, 0}, {5, 0}}, 12.0, 2);
  rig.publish(kA);
  rig.sim.run();
  // B transmitted one 2-byte REQ and one 2-byte ADV, both at the zone level
  // even though A is only 5 m away (0.0125 mW would have sufficed).
  const double frame_uj = 0.1995 * 0.1;  // 2 B * 0.05 ms/B * level power
  EXPECT_NEAR(rig.net.battery(kB).meter().protocol_tx_uj(), 2 * frame_uj, 1e-9);
}

TEST(SpinProtocolTest, OneRequestPerItemDespiteManyAdvs) {
  Rig rig({{0, 0}, {5, 0}, {10, 0}}, 22.0, 3);
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered());
  // B and C each requested exactly once (pending suppresses re-requests on
  // the later re-advertisements).
  EXPECT_EQ(rig.net.counters().tx_req, 2u);
  EXPECT_EQ(rig.net.counters().tx_data, 2u);
  EXPECT_EQ(rig.net.counters().tx_adv, 3u);  // each holder advertises once
}

TEST(SpinProtocolTest, PropagatesAcrossZones) {
  std::vector<net::Point> pts;
  for (int i = 0; i < 9; ++i) pts.push_back({5.0 * i, 0.0});
  Rig rig(std::move(pts), 12.0, 9);
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered());
}

TEST(SpinProtocolTest, RecoversFromTransientAdvertiserFailure) {
  Rig rig({{0, 0}, {5, 0}}, 12.0, 2);
  // A dies while B's REQ is in the air and repairs 20 ms later.
  rig.sim.at(sim::TimePoint::at(sim::Duration::ms(0.15)), [&] { rig.net.set_up(kA, false); });
  rig.sim.at(sim::TimePoint::at(sim::Duration::ms(20.0)), [&] { rig.net.set_up(kA, true); });
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered());
  EXPECT_GE(rig.net.counters().tx_req, 2u);  // original plus retry
}

TEST(SpinProtocolTest, RequesterCrashRecovery) {
  // B crashes after requesting; the DATA is lost; on repair B re-requests.
  Rig rig({{0, 0}, {5, 0}}, 12.0, 2);
  rig.sim.at(sim::TimePoint::at(sim::Duration::ms(0.3)), [&] { rig.net.set_up(kB, false); });
  rig.sim.at(sim::TimePoint::at(sim::Duration::ms(15.0)), [&] { rig.net.set_up(kB, true); });
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered());
}

TEST(SpinProtocolTest, SourceDownAtPublishAdvertisesOnRepair) {
  Rig rig({{0, 0}, {5, 0}}, 12.0, 2);
  rig.net.set_up(kA, false);
  rig.publish(kA);  // ADV cannot air; must not be lost forever
  rig.sim.at(sim::TimePoint::at(sim::Duration::ms(5.0)), [&] { rig.net.set_up(kA, true); });
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered());
}

TEST(SpinProtocolTest, AdvertisesAtMostOncePerItem) {
  Rig rig({{0, 0}, {5, 0}, {10, 0}}, 22.0, 3);
  rig.publish(kA);
  rig.sim.run();
  EXPECT_EQ(rig.trace.count({.kind = obs::TraceKind::kSpinAdv, .node = kA}), 1u);
  EXPECT_EQ(rig.trace.count({.kind = obs::TraceKind::kSpinAdv, .node = kB}), 1u);
  EXPECT_EQ(rig.trace.count({.kind = obs::TraceKind::kSpinAdv, .node = kC}), 1u);
}

TEST(SpinProtocolTest, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    Rig rig({{0, 0}, {5, 0}, {10, 0}}, 22.0, 3, seed);
    rig.publish(kA);
    rig.sim.run();
    return std::make_tuple(rig.collector.deliveries(), rig.collector.delay_ms().mean(),
                           rig.net.energy().total_uj());
  };
  EXPECT_EQ(run(9), run(9));
}

}  // namespace
}  // namespace spms::core
