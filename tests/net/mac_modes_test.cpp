#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/simulation.hpp"

/// Tests for the alternative MAC models: the paper-style
/// infinite-parallelism mode and the explicit G*n^2 contention term.

namespace spms::net {
namespace {

class CountingAgent final : public Agent {
 public:
  explicit CountingAgent(sim::Simulation& sim) : sim_(sim) {}
  void on_receive(NodeId, const Packet& p) override { received.emplace_back(sim_.now(), p); }
  std::vector<std::pair<sim::TimePoint, Packet>> received;

 private:
  sim::Simulation& sim_;
};

Packet small_packet(std::uint32_t seq) {
  Packet p;
  p.type = PacketType::kAdv;
  p.item = DataId{NodeId{0}, seq};
  p.size_bytes = 2;
  return p;
}

struct Rig {
  Rig(MacParams mac, std::vector<Point> pts)
      : sim(1), net(sim, RadioTable::mica2(), mac, {}, std::move(pts), 12.0) {
    for (std::uint32_t i = 0; i < net.size(); ++i) {
      agents.push_back(std::make_unique<CountingAgent>(sim));
      net.set_agent(NodeId{i}, agents.back().get());
    }
  }
  sim::Simulation sim;
  Network net;
  std::vector<std::unique_ptr<CountingAgent>> agents;
};

MacParams deterministic(bool infinite) {
  MacParams mac;
  mac.num_slots = 1;
  mac.infinite_parallelism = infinite;
  return mac;
}

TEST(InfiniteParallelismTest, FramesDoNotQueueBehindEachOther) {
  Rig rig(deterministic(true), {{0, 0}, {5, 0}});
  // Three frames submitted together: in queued mode they would arrive 0.1 ms
  // apart; in paper mode they all land at airtime + t_proc.
  for (std::uint32_t s = 0; s < 3; ++s) {
    Packet p = small_packet(s);
    p.dst = NodeId{1};
    ASSERT_TRUE(rig.net.send(NodeId{0}, p, 5.0));
  }
  rig.sim.run();
  ASSERT_EQ(rig.agents[1]->received.size(), 3u);
  const auto expected = sim::TimePoint::at(sim::Duration::ms(0.12));
  for (const auto& [at, p] : rig.agents[1]->received) EXPECT_EQ(at, expected);
}

TEST(InfiniteParallelismTest, NoCarrierSenseBlocking) {
  Rig rig(deterministic(true), {{0, 0}, {5, 0}, {10, 0}});
  // Two neighbors transmit simultaneously with overlapping discs; both
  // frames land at the same instant (no deferral).
  Packet a = small_packet(1);
  a.dst = NodeId{2};
  Packet b = small_packet(2);
  b.dst = NodeId{2};
  ASSERT_TRUE(rig.net.send(NodeId{0}, a, 12.0));
  ASSERT_TRUE(rig.net.send(NodeId{1}, b, 12.0));
  rig.sim.run();
  ASSERT_EQ(rig.agents[2]->received.size(), 2u);
  EXPECT_EQ(rig.agents[2]->received[0].first, rig.agents[2]->received[1].first);
}

TEST(InfiniteParallelismTest, EnergyAccountingUnchanged) {
  Rig queued(deterministic(false), {{0, 0}, {5, 0}});
  Rig paper(deterministic(true), {{0, 0}, {5, 0}});
  for (auto* rig : {&queued, &paper}) {
    Packet p = small_packet(0);
    p.dst = NodeId{1};
    ASSERT_TRUE(rig->net.send(NodeId{0}, p, 5.0));
    rig->sim.run();
  }
  EXPECT_DOUBLE_EQ(queued.net.energy().total_uj(), paper.net.energy().total_uj());
}

TEST(InfiniteParallelismTest, SenderCrashDuringBackoffDropsFrame) {
  MacParams mac;  // keep the 20-slot backoff so the crash can land inside it
  mac.infinite_parallelism = true;
  Rig rig(mac, {{0, 0}, {5, 0}});
  Packet p = small_packet(0);
  p.dst = NodeId{1};
  ASSERT_TRUE(rig.net.send(NodeId{0}, p, 5.0));
  rig.net.set_up(NodeId{0}, false);  // immediately: backoff still pending
  rig.sim.run();
  EXPECT_TRUE(rig.agents[1]->received.empty());
  EXPECT_EQ(rig.net.counters().dropped_sender_down, 1u);
}

TEST(InfiniteParallelismTest, SenderCrashDuringAirtimeDropsFrame) {
  Rig rig(deterministic(true), {{0, 0}, {5, 0}});  // no backoff: on air 0-0.1 ms
  Packet p = small_packet(0);
  p.dst = NodeId{1};
  ASSERT_TRUE(rig.net.send(NodeId{0}, p, 5.0));
  rig.sim.at(sim::TimePoint::at(sim::Duration::ms(0.05)),
             [&] { rig.net.set_up(NodeId{0}, false); });
  rig.sim.run();
  EXPECT_EQ(rig.net.counters().tx_adv, 1u);  // the frame went on the air
  EXPECT_TRUE(rig.agents[1]->received.empty());
  EXPECT_EQ(rig.net.counters().dropped_sender_down, 1u);
}

TEST(ContentionTermTest, QuadraticDelayApplied) {
  MacParams mac;
  mac.num_slots = 1;
  mac.contention_g_ms = 0.01;
  mac.carrier_sense = false;
  Rig rig(mac, {{0, 0}, {5, 0}, {10, 0}});  // 2 contenders within 12 m of n0
  Packet p = small_packet(0);
  p.dst = NodeId{1};
  ASSERT_TRUE(rig.net.send(NodeId{0}, p, 12.0));
  rig.sim.run();
  // access = G*n^2 = 0.01 * 4 = 0.04 ms; + airtime 0.1 + t_proc 0.02.
  ASSERT_EQ(rig.agents[1]->received.size(), 1u);
  EXPECT_EQ(rig.agents[1]->received[0].first, sim::TimePoint::at(sim::Duration::ms(0.16)));
}

TEST(ContentionTermTest, ScalesWithDiscPopulation) {
  MacParams mac;
  mac.num_slots = 1;
  mac.contention_g_ms = 0.01;
  mac.carrier_sense = false;
  // 5 nodes in a line; a 5 m disc sees 1 contender, a 20 m disc sees 4.
  Rig rig(mac, {{0, 0}, {5, 0}, {10, 0}, {15, 0}, {20, 0}});
  Packet small = small_packet(0);
  small.dst = NodeId{1};
  ASSERT_TRUE(rig.net.send(NodeId{0}, small, 5.0));
  rig.sim.run();
  ASSERT_EQ(rig.agents[1]->received.size(), 1u);
  // 0.01*1 + 0.1 + 0.02
  EXPECT_EQ(rig.agents[1]->received[0].first, sim::TimePoint::at(sim::Duration::ms(0.13)));
}

}  // namespace
}  // namespace spms::net
