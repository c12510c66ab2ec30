#include "net/network.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace spms::net {
namespace {

/// Test agent that records every reception with its timestamp.
class RecordingAgent final : public Agent {
 public:
  explicit RecordingAgent(sim::Simulation& sim) : sim_(sim) {}

  void on_receive(NodeId, const Packet& p) override { received.emplace_back(sim_.now(), p); }
  void on_down(NodeId) override { ++downs; }
  void on_up(NodeId) override { ++ups; }

  std::vector<std::pair<sim::TimePoint, Packet>> received;
  int downs = 0;
  int ups = 0;

 private:
  sim::Simulation& sim_;
};

/// Deterministic MAC: no random backoff, no quadratic term.
MacParams quiet_mac() {
  MacParams mac;
  mac.num_slots = 1;
  mac.contention_g_ms = 0.0;
  return mac;
}

Packet adv_packet(DataId item, std::size_t bytes = 2) {
  Packet p;
  p.type = PacketType::kAdv;
  p.item = item;
  p.size_bytes = bytes;
  return p;
}

class NetworkTest : public ::testing::Test {
 protected:
  /// Builds a line of nodes spaced `pitch` apart with the given zone radius.
  void build_line(std::size_t count, double pitch, double zone_radius,
                  EnergyModelParams energy = {}) {
    std::vector<Point> pts;
    for (std::size_t i = 0; i < count; ++i) pts.push_back({static_cast<double>(i) * pitch, 0.0});
    net = std::make_unique<Network>(sim, RadioTable::mica2(), quiet_mac(), energy, pts,
                                    zone_radius);
    agents.clear();
    for (std::size_t i = 0; i < count; ++i) {
      agents.push_back(std::make_unique<RecordingAgent>(sim));
      net->set_agent(NodeId{static_cast<std::uint32_t>(i)}, agents.back().get());
    }
  }

  sim::Simulation sim{1};
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<RecordingAgent>> agents;
};

TEST_F(NetworkTest, RejectsEmptyDeployment) {
  EXPECT_THROW(Network(sim, RadioTable::mica2(), {}, {}, {}, 20.0), std::invalid_argument);
}

TEST_F(NetworkTest, RejectsZoneRadiusBeyondRadio) {
  std::vector<Point> pts{{0, 0}};
  EXPECT_THROW(Network(sim, RadioTable::mica2(), {}, {}, pts, 100.0), std::invalid_argument);
  EXPECT_THROW(Network(sim, RadioTable::mica2(), {}, {}, pts, 0.0), std::invalid_argument);
}

// Each range check negates its accepted range, so NaN, for which every
// comparison is false, cannot slip past it.
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST_F(NetworkTest, RejectsNanZoneRadius) {
  std::vector<Point> pts{{0, 0}};
  EXPECT_THROW(Network(sim, RadioTable::mica2(), {}, {}, pts, kNan), std::invalid_argument);
}

TEST_F(NetworkTest, RejectsNanBatteryCapacity) {
  std::vector<Point> pts{{0, 0}};
  BatteryParams battery;
  battery.finite = true;
  battery.capacity_uj = kNan;
  EXPECT_THROW(Network(sim, RadioTable::mica2(), {}, {}, pts, 20.0, battery),
               std::invalid_argument);
}

TEST_F(NetworkTest, RejectsNanBatteryHeterogeneity) {
  std::vector<Point> pts{{0, 0}};
  BatteryParams battery;
  battery.heterogeneity = kNan;
  EXPECT_THROW(Network(sim, RadioTable::mica2(), {}, {}, pts, 20.0, battery),
               std::invalid_argument);
}

TEST_F(NetworkTest, NeighborQueries) {
  build_line(5, 5.0, 12.0);  // nodes at x = 0,5,10,15,20
  const auto n0 = net->neighbors_within(NodeId{0}, 12.0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], NodeId{1});
  EXPECT_EQ(n0[1], NodeId{2});
  const auto n2 = net->neighbors_within(NodeId{2}, 12.0);
  EXPECT_EQ(n2.size(), 4u);  // everyone else
  EXPECT_DOUBLE_EQ(net->distance_between(NodeId{0}, NodeId{3}), 15.0);
}

TEST_F(NetworkTest, NeighborQueriesRespectDownFlag) {
  build_line(3, 5.0, 12.0);
  net->set_up(NodeId{1}, false);
  EXPECT_EQ(net->neighbors_within(NodeId{0}, 12.0, /*include_down=*/true).size(), 2u);
  EXPECT_EQ(net->neighbors_within(NodeId{0}, 12.0, /*include_down=*/false).size(), 1u);
  EXPECT_EQ(net->contention_count(NodeId{0}, 12.0), 1u);  // contention counts alive only
}

TEST_F(NetworkTest, BroadcastDeliversToDiscWithAirtimeAndProcessing) {
  build_line(4, 5.0, 12.0);  // 0,5,10,15
  ASSERT_TRUE(net->send(NodeId{0}, adv_packet({NodeId{0}, 1}), 12.0));
  sim.run();
  // Coverage 12 m from x=0 reaches nodes 1 (5 m) and 2 (10 m), not 3 (15 m).
  EXPECT_EQ(agents[1]->received.size(), 1u);
  EXPECT_EQ(agents[2]->received.size(), 1u);
  EXPECT_TRUE(agents[3]->received.empty());
  EXPECT_TRUE(agents[0]->received.empty());  // no self-delivery
  // Timing: airtime 2 B * 0.05 ms + t_proc 0.02 ms (no backoff in quiet_mac).
  EXPECT_EQ(agents[1]->received[0].first, sim::TimePoint::at(sim::Duration::ms(0.12)));
  // Source is stamped.
  EXPECT_EQ(agents[1]->received[0].second.src, NodeId{0});
}

TEST_F(NetworkTest, UnicastProcessedOnlyByDestination) {
  build_line(3, 5.0, 12.0);
  Packet p = adv_packet({NodeId{0}, 1});
  ASSERT_TRUE(net->send_to(NodeId{0}, p, NodeId{2}));
  sim.run();
  EXPECT_TRUE(agents[1]->received.empty());  // overhearer does not process
  ASSERT_EQ(agents[2]->received.size(), 1u);
  EXPECT_EQ(agents[2]->received[0].second.dst, NodeId{2});
}

TEST_F(NetworkTest, TxEnergyUsesCheapestCoveringLevel) {
  build_line(2, 5.0, 12.0);
  // 5 m -> level 5 (0.0125 mW); 2 bytes -> 0.1 ms airtime.
  ASSERT_TRUE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 1}), NodeId{1}));
  sim.run();
  EXPECT_NEAR(net->battery(NodeId{0}).meter().protocol_tx_uj(), 0.0125 * 0.1, 1e-12);
}

TEST_F(NetworkTest, RxEnergyChargedToAddressedReceivers) {
  build_line(3, 5.0, 12.0);
  ASSERT_TRUE(net->send(NodeId{0}, adv_packet({NodeId{0}, 1}), 12.0));
  sim.run();
  const double rx = net->energy_params().rx_power_mw * 0.1;  // rx power * airtime
  EXPECT_NEAR(net->battery(NodeId{1}).meter().protocol_rx_uj(), rx, 1e-12);
  EXPECT_NEAR(net->battery(NodeId{2}).meter().protocol_rx_uj(), rx, 1e-12);
}

TEST_F(NetworkTest, OverhearingChargesOnlyWhenEnabled) {
  EnergyModelParams energy;
  energy.charge_overhearing = false;
  build_line(3, 5.0, 12.0, energy);
  ASSERT_TRUE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 1}), NodeId{2}));
  sim.run();
  EXPECT_DOUBLE_EQ(net->battery(NodeId{1}).meter().protocol_rx_uj(), 0.0);

  sim::Simulation sim2{1};
  energy.charge_overhearing = true;
  std::vector<Point> pts{{0, 0}, {5, 0}, {10, 0}};
  Network net2(sim2, RadioTable::mica2(), quiet_mac(), energy, pts, 12.0);
  Packet p = adv_packet({NodeId{0}, 1});
  p.dst = NodeId{2};
  ASSERT_TRUE(net2.send(NodeId{0}, p, 10.0));
  sim2.run();
  EXPECT_GT(net2.battery(NodeId{1}).meter().protocol_rx_uj(), 0.0);
}

TEST_F(NetworkTest, PerNodeTransmissionsSerialize) {
  build_line(2, 5.0, 12.0);
  // Two 2-byte frames from node 0: second starts after the first's airtime.
  ASSERT_TRUE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 1}), NodeId{1}));
  ASSERT_TRUE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 2}), NodeId{1}));
  sim.run();
  ASSERT_EQ(agents[1]->received.size(), 2u);
  EXPECT_EQ(agents[1]->received[0].first, sim::TimePoint::at(sim::Duration::ms(0.12)));
  EXPECT_EQ(agents[1]->received[1].first, sim::TimePoint::at(sim::Duration::ms(0.22)));
}

TEST_F(NetworkTest, CarrierSenseSerializesOverlappingDiscs) {
  build_line(3, 5.0, 12.0);  // 0,5,10
  // Node 0 and node 1 both transmit at t=0 with 12 m coverage; node 1 hears
  // node 0's transmission, so it must defer until it ends.
  ASSERT_TRUE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 1}), NodeId{2}));
  ASSERT_TRUE(net->send_to(NodeId{1}, adv_packet({NodeId{1}, 1}), NodeId{2}));
  sim.run();
  ASSERT_EQ(agents[2]->received.size(), 2u);
  EXPECT_EQ(agents[2]->received[0].first, sim::TimePoint::at(sim::Duration::ms(0.12)));
  // Node 1 deferred to 0.1 (busy end), then transmitted 0.1 ms + t_proc.
  EXPECT_EQ(agents[2]->received[1].first, sim::TimePoint::at(sim::Duration::ms(0.22)));
}

TEST_F(NetworkTest, CarrierSenseAllowsSpatialReuse) {
  // Nodes 0-1 near the origin; nodes 2-3 far away: transmissions with small
  // discs do not interact, so both complete in parallel.
  std::vector<Point> pts{{0, 0}, {5, 0}, {1000, 0}, {1005, 0}};
  net = std::make_unique<Network>(sim, RadioTable::mica2(), quiet_mac(), EnergyModelParams{},
                                  pts, 12.0);
  agents.clear();
  for (std::uint32_t i = 0; i < 4; ++i) {
    agents.push_back(std::make_unique<RecordingAgent>(sim));
    net->set_agent(NodeId{i}, agents.back().get());
  }
  ASSERT_TRUE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 1}), NodeId{1}));
  ASSERT_TRUE(net->send_to(NodeId{2}, adv_packet({NodeId{2}, 1}), NodeId{3}));
  sim.run();
  ASSERT_EQ(agents[1]->received.size(), 1u);
  ASSERT_EQ(agents[3]->received.size(), 1u);
  EXPECT_EQ(agents[1]->received[0].first, agents[3]->received[0].first);  // no cross-blocking
}

TEST_F(NetworkTest, SendFromDownNodeFailsAndCounts) {
  build_line(2, 5.0, 12.0);
  net->set_up(NodeId{0}, false);
  EXPECT_FALSE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 1}), NodeId{1}));
  EXPECT_EQ(net->counters().dropped_sender_down, 1u);
  sim.run();
  EXPECT_TRUE(agents[1]->received.empty());
}

TEST_F(NetworkTest, OutOfRangeSendFailsAndCounts) {
  build_line(2, 100.0, 12.0);  // 100 m apart, beyond the strongest level
  EXPECT_FALSE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 1}), NodeId{1}));
  EXPECT_EQ(net->counters().dropped_out_of_range, 1u);
}

TEST_F(NetworkTest, DownReceiverMissesFrame) {
  build_line(2, 5.0, 12.0);
  net->set_up(NodeId{1}, false);
  ASSERT_TRUE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 1}), NodeId{1}));
  sim.run();
  EXPECT_TRUE(agents[1]->received.empty());
  EXPECT_DOUBLE_EQ(net->battery(NodeId{1}).meter().protocol_rx_uj(), 0.0);  // no rx while down
}

TEST_F(NetworkTest, ReceiverFailingDuringProcessingDropsFrame) {
  build_line(2, 5.0, 12.0);
  ASSERT_TRUE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 1}), NodeId{1}));
  // Fail node 1 between frame arrival (0.1 ms) and processing (0.12 ms).
  sim.at(sim::TimePoint::at(sim::Duration::ms(0.11)), [&] { net->set_up(NodeId{1}, false); });
  sim.run();
  EXPECT_TRUE(agents[1]->received.empty());
  EXPECT_EQ(net->counters().dropped_receiver_down, 1u);
}

TEST_F(NetworkTest, CrashClearsMacQueue) {
  build_line(2, 5.0, 12.0);
  ASSERT_TRUE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 1}), NodeId{1}));
  ASSERT_TRUE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 2}), NodeId{1}));
  // Crash the sender mid-first-transmission: both frames must vanish, and
  // both count as sender-down drops.
  sim.at(sim::TimePoint::at(sim::Duration::ms(0.05)), [&] { net->set_up(NodeId{0}, false); });
  sim.run();
  EXPECT_TRUE(agents[1]->received.empty());
  EXPECT_EQ(net->counters().dropped_sender_down, 2u);
}

TEST_F(NetworkTest, AgentHooksFireOnTransitions) {
  build_line(1, 5.0, 12.0);
  net->set_up(NodeId{0}, false);
  net->set_up(NodeId{0}, false);  // idempotent: no second hook
  net->set_up(NodeId{0}, true);
  EXPECT_EQ(agents[0]->downs, 1);
  EXPECT_EQ(agents[0]->ups, 1);
}

TEST_F(NetworkTest, CountersTrackFrameTypes) {
  build_line(3, 5.0, 12.0);
  Packet req = adv_packet({NodeId{0}, 1});
  req.type = PacketType::kReq;
  Packet data = adv_packet({NodeId{0}, 1}, 40);
  data.type = PacketType::kData;
  ASSERT_TRUE(net->send(NodeId{0}, adv_packet({NodeId{0}, 1}), 12.0));
  ASSERT_TRUE(net->send_to(NodeId{1}, req, NodeId{0}));
  ASSERT_TRUE(net->send_to(NodeId{0}, data, NodeId{1}));
  sim.run();
  EXPECT_EQ(net->counters().tx_adv, 1u);
  EXPECT_EQ(net->counters().tx_req, 1u);
  EXPECT_EQ(net->counters().tx_data, 1u);
  EXPECT_EQ(net->counters().tx_bytes, 2u + 2u + 40u);
  EXPECT_GT(net->counters().deliveries, 0u);
}

TEST_F(NetworkTest, ChargeHelpersAccountRoutingEnergy) {
  build_line(2, 5.0, 12.0);
  net->charge_tx(NodeId{0}, 100, 11.0, EnergyUse::kRouting);
  net->charge_rx(NodeId{1}, 100, EnergyUse::kRouting);
  // 11 m -> level 4 (0.05 mW, range 11.28 m); 100 B -> 5 ms airtime.
  const double rx = net->energy_params().rx_power_mw;
  EXPECT_NEAR(net->battery(NodeId{0}).meter().routing_tx_uj(), 0.05 * 5.0, 1e-12);
  EXPECT_NEAR(net->battery(NodeId{1}).meter().routing_rx_uj(), rx * 5.0, 1e-12);
  const auto total = net->energy();
  EXPECT_NEAR(total.routing_uj(), 0.05 * 5.0 + rx * 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(total.protocol_uj(), 0.0);
}

TEST_F(NetworkTest, ChannelBusyUntilReflectsActivity) {
  build_line(2, 5.0, 12.0);
  EXPECT_LE(net->channel_busy_until(NodeId{1}) + sim::Duration::ms(1.0), sim.now());
  ASSERT_TRUE(net->send_to(NodeId{0}, adv_packet({NodeId{0}, 1}), NodeId{1}));
  sim.run_until(sim::TimePoint::at(sim::Duration::ms(0.05)));  // mid-airtime
  // 2 B at 0.05 ms/B: the frame holds the channel until 0.1 ms.
  const auto frame_end = sim::TimePoint::at(sim::Duration::ms(0.1));
  EXPECT_EQ(net->channel_busy_until(NodeId{1}), frame_end);
  sim.run();
  sim.run_until(sim::TimePoint::at(sim::Duration::ms(1.2)));
  EXPECT_EQ(net->channel_busy_until(NodeId{1}), frame_end);
}

TEST_F(NetworkTest, MobilityChangesDeliveryDisc) {
  build_line(3, 5.0, 12.0);
  net->set_position(NodeId{2}, Point{200.0, 0.0});
  ASSERT_TRUE(net->send(NodeId{0}, adv_packet({NodeId{0}, 1}), 12.0));
  sim.run();
  EXPECT_EQ(agents[1]->received.size(), 1u);
  EXPECT_TRUE(agents[2]->received.empty());  // moved out of the disc
}

}  // namespace
}  // namespace spms::net
