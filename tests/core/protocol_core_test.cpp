#include <gtest/gtest.h>

#include <vector>

#include "core/interest.hpp"
#include "core/protocol.hpp"
#include "core/spin.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

/// The rules every protocol shares, checked once on the base: the
/// channel-gated timer deferral, and the protocol installing itself as the
/// agent of every node and detaching when it dies.

namespace spms::core {
namespace {

/// A protocol that only exposes the base's deferral helper.
class ProbeProtocol final : public DisseminationProtocol {
 public:
  using DisseminationProtocol::DisseminationProtocol;

  [[nodiscard]] std::string_view name() const override { return "PROBE"; }
  void publish(net::NodeId, net::DataId) override {}
  void on_receive(net::NodeId, const net::Packet&) override {}

  /// One expiry of a gated timer at `self`; true when it was deferred.
  bool expire(net::NodeId self) {
    return defer_while_audible(self, deferrals, timer, [this] { wakes.push_back(sim_.now()); });
  }

  int deferrals = 0;
  sim::EventHandle timer;
  std::vector<sim::TimePoint> wakes;
};

net::MacParams quiet_mac() {
  net::MacParams mac;
  mac.num_slots = 1;
  return mac;
}

net::Packet adv(std::uint32_t seq) {
  net::Packet p;
  p.type = net::PacketType::kAdv;
  p.item = net::DataId{net::NodeId{1}, seq};
  p.size_bytes = 2;
  return p;
}

class ProtocolCoreTest : public ::testing::Test {
 protected:
  /// Node 1 transmits a frame node 0 hears; the run ends t_proc after the
  /// airtime, while node 0's channel is still inside every quiet window.
  void hear_traffic() {
    ASSERT_TRUE(net.send(net::NodeId{1}, adv(0), net.zone_radius()));
    sim.run();
    ASSERT_GT(net.channel_quiet_at(self, defer_window(params.tout_dat, 0)), sim.now());
  }

  sim::Simulation sim{1};
  net::Network net{sim, net::RadioTable::mica2(), quiet_mac(), {}, {{0, 0}, {5, 0}, {9, 0}}, 12.0};
  AllToAllInterest interest{3};
  ProtocolParams params;
  const net::NodeId self{0};
};

TEST_F(ProtocolCoreTest, DeferralLetsTheTimerFireOnAQuietChannel) {
  ProbeProtocol proto{sim, net, interest, params};
  EXPECT_FALSE(proto.expire(self));
  EXPECT_EQ(proto.deferrals, 0);
  EXPECT_FALSE(proto.timer.valid());
}

TEST_F(ProtocolCoreTest, DeferralRearmsAtTheGrownQuietWindow) {
  ProbeProtocol proto{sim, net, interest, params};
  hear_traffic();
  for (int d = 0; d < 3; ++d) {
    const sim::TimePoint expected =
        net.channel_quiet_at(self, defer_window(params.tout_dat, d + 1));
    ASSERT_TRUE(proto.expire(self));
    EXPECT_EQ(proto.deferrals, d + 1);
    ASSERT_TRUE(proto.timer.valid());
    sim.run();
    ASSERT_EQ(proto.wakes.size(), static_cast<std::size_t>(d + 1));
    EXPECT_EQ(proto.wakes.back(), expected);
    // The wake lands exactly when the grown window has been quiet, so the
    // channel no longer holds the timer back.
    EXPECT_FALSE(proto.expire(self));
    EXPECT_EQ(proto.deferrals, d + 1);
    hear_traffic();
  }
}

TEST_F(ProtocolCoreTest, DeferralStopsAtTheLimit) {
  constexpr int kLimit = 5;
  params.timer_defer_limit = kLimit;
  ProbeProtocol proto{sim, net, interest, params};
  hear_traffic();
  // The channel stays audible (no time passes): exactly kLimit deferrals,
  // then the caller acts on every further expiry.
  for (int d = 0; d < kLimit; ++d) EXPECT_TRUE(proto.expire(self)) << d;
  EXPECT_FALSE(proto.expire(self));
  EXPECT_FALSE(proto.expire(self));
  EXPECT_EQ(proto.deferrals, kLimit);
}

TEST_F(ProtocolCoreTest, ProtocolServesEveryNodeUntilDestroyed) {
  {
    SpinProtocol spin{sim, net, interest, params};
    spin.publish(net::NodeId{1}, net::DataId{net::NodeId{1}, 0});
    sim.run();
    EXPECT_GT(net.counters().deliveries, 0u);
    EXPECT_EQ(net.counters().tx_data, 2u);  // nodes 0 and 2 both pulled the item
  }
  // The dead protocol detached from every node: a frame delivered now
  // reaches no agent (ASan would flag a dangling one).
  const auto deliveries = net.counters().deliveries;
  ASSERT_TRUE(net.send(net::NodeId{1}, adv(1), net.zone_radius()));
  net.set_up(net::NodeId{2}, false);
  net.set_up(net::NodeId{2}, true);
  sim.run();
  EXPECT_EQ(net.counters().deliveries, deliveries);
}

}  // namespace
}  // namespace spms::core
