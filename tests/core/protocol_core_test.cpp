#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "core/interest.hpp"
#include "core/protocol.hpp"
#include "core/spin.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

/// The rules every protocol shares, checked once on the base: the
/// channel-gated timer deferral with its parked timers, and the protocol
/// installing itself as the agent of every node and detaching when it dies.

namespace spms::core {
namespace {

net::DataId item(std::uint32_t seq) { return net::DataId{net::NodeId{1}, seq}; }

/// A protocol with one gated timer per item (items 0..3 of node 1), built
/// on the base's parking, whose expiry action records the instant.
class ProbeProtocol final : public DisseminationProtocol {
 public:
  using DisseminationProtocol::DisseminationProtocol;

  [[nodiscard]] std::string_view name() const override { return "PROBE"; }
  void publish(net::NodeId, net::DataId) override {}
  void on_receive(net::NodeId, const net::Packet&) override { fires_seen.push_back(fires.size()); }

  /// One expiry of the gated timer of `seq` at `self`; true when it parked.
  bool expire(net::NodeId self, std::uint32_t seq = 0) {
    return park_while_audible(self, item(seq), deferrals[seq], timers[seq]);
  }
  void cancel(net::NodeId self, std::uint32_t seq = 0) {
    cancel_timer(self, timers[seq], deferrals[seq]);
  }
  [[nodiscard]] bool parked(std::uint32_t seq = 0) const { return is_parked(timers[seq]); }

  /// The expiry handler, run again by a firing parked timer: the deferral
  /// rule must now let it act.
  void on_wake(net::NodeId self, net::DataId it) override {
    timers[it.seq] = sim::EventHandle{};
    EXPECT_FALSE(expire(self, it.seq));
    fires.emplace_back(sim_.now(), it.seq);
  }
  /// Crash: stops every timer of the node, as SPMS and SPIN do.
  void on_down(net::NodeId self) override {
    fires_seen.push_back(fires.size());
    for (std::uint32_t seq = 0; seq < timers.size(); ++seq) cancel(self, seq);
  }

  std::array<Deferral, 4> deferrals{};
  std::array<sim::EventHandle, 4> timers{};
  std::vector<std::pair<sim::TimePoint, std::uint32_t>> fires;
  std::vector<std::size_t> fires_seen;  ///< fires.size() at each delivery or crash
};

net::MacParams quiet_mac() {
  net::MacParams mac;
  mac.num_slots = 1;  // no backoff: a frame goes on the air the instant it is sent
  return mac;
}

net::Packet adv(std::uint32_t seq) {
  net::Packet p;
  p.type = net::PacketType::kAdv;
  p.item = item(seq);
  p.size_bytes = 2;
  return p;
}

sim::TimePoint at_ms(double ms) { return sim::TimePoint::zero() + sim::Duration::ms(ms); }

class ProtocolCoreTest : public ::testing::Test {
 protected:
  /// Node 1 transmits a frame node 0 hears; the run ends t_proc after the
  /// airtime, while node 0's channel is still inside every quiet window.
  void hear_traffic() {
    ASSERT_TRUE(net.send(net::NodeId{1}, adv(0), net.zone_radius()));
    sim.run();
    ASSERT_GT(net.channel_busy_until(self) + window(0), sim.now());
  }

  /// Node 1 starts a frame at each instant, raising node 0's stamp to the
  /// instant plus the frame's airtime then.  The instants are at least an
  /// airtime apart, so each frame goes on the air when it is sent.
  void script_traffic(const std::vector<sim::TimePoint>& starts) {
    for (const sim::TimePoint t : starts) {
      sim.at(t, [this] { ASSERT_TRUE(net.send(net::NodeId{1}, adv(0), net.zone_radius())); });
    }
  }

  [[nodiscard]] sim::Duration window(int deferrals) const {
    return defer_window(params.tout_dat, deferrals);
  }

  /// The per-wake rule, applied to a timer that parks at `parked` (no stamp
  /// rises at that instant) with `count` deferrals, over node 0's stamp
  /// history `starts` (a frame of `airtime` from each): the instant it
  /// fires and its final count.  A stamp rising at a wake's instant counts
  /// after the wake.  Wakes after `cancel_at` are not taken.
  struct Chain {
    sim::TimePoint fire = sim::TimePoint::max();
    int count = 0;
  };
  [[nodiscard]] Chain reference(const std::vector<sim::TimePoint>& starts, sim::TimePoint parked,
                                int count,
                                sim::TimePoint cancel_at = sim::TimePoint::max()) const {
    const sim::Duration airtime = net::MacParams{}.t_tx_per_byte * 2;
    const auto stamp_before = [&](sim::TimePoint t, bool inclusive) {
      sim::TimePoint b = sim::TimePoint::zero() - sim::Duration::seconds(3600);
      for (const sim::TimePoint s : starts) {
        if (s < t || (inclusive && s == t)) b = s + airtime;
      }
      return b;
    };
    Chain c;
    c.count = count;
    sim::TimePoint seen = stamp_before(parked, true);
    if (seen + window(c.count) <= parked || c.count >= params.timer_defer_limit) {
      c.fire = parked;
      return c;
    }
    ++c.count;
    for (sim::TimePoint wake = seen + window(c.count); wake <= cancel_at;
         wake = seen + window(c.count)) {
      const sim::TimePoint b = stamp_before(wake, false);
      if (b == seen || c.count >= params.timer_defer_limit) {
        c.fire = wake;
        return c;
      }
      ++c.count;
      seen = b;
    }
    return c;
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
  EXPECT_EQ(proto.deferrals[0].count, 0);
  EXPECT_FALSE(proto.timers[0].valid());
  EXPECT_EQ(sim.scheduler().pending(), 0u);
}

TEST_F(ProtocolCoreTest, DeferralRearmsAtTheGrownQuietWindow) {
  ProbeProtocol proto{sim, net, interest, params};
  hear_traffic();
  for (int d = 0; d < 3; ++d) {
    const sim::TimePoint expected = net.channel_busy_until(self) + window(d + 1);
    ASSERT_TRUE(proto.expire(self));
    EXPECT_EQ(proto.deferrals[0].count, d + 1);
    EXPECT_TRUE(proto.parked());
    EXPECT_EQ(sim.scheduler().pending(), 1u);  // the node's one event
    sim.run();
    // The wake lands exactly when the grown window has been quiet, so the
    // channel no longer holds the timer back.
    ASSERT_EQ(proto.fires.size(), static_cast<std::size_t>(d + 1));
    EXPECT_EQ(proto.fires.back().first, expected);
    EXPECT_EQ(proto.deferrals[0].count, d + 1);
    EXPECT_FALSE(proto.timers[0].valid());
    hear_traffic();
  }
}

TEST_F(ProtocolCoreTest, DeferralStopsAtTheLimit) {
  constexpr int kLimit = 5;
  params.timer_defer_limit = kLimit;
  ProbeProtocol proto{sim, net, interest, params};
  hear_traffic();
  // The channel stays audible (no time passes, so a cancel takes no wake):
  // exactly kLimit deferrals, then the caller acts on every further expiry.
  for (int d = 0; d < kLimit; ++d) {
    EXPECT_TRUE(proto.expire(self)) << d;
    proto.cancel(self);
  }
  EXPECT_FALSE(proto.expire(self));
  EXPECT_FALSE(proto.expire(self));
  EXPECT_EQ(proto.deferrals[0].count, kLimit);
  EXPECT_EQ(sim.scheduler().pending(), 0u);
}

TEST_F(ProtocolCoreTest, ParkedTimersFollowTheScriptedStampHistory) {
  ProbeProtocol proto{sim, net, interest, params};
  // Stamp B0 at 0.  At 0.5 ms item 0 (three deferrals already) and item 1
  // park; a stamp at 1 ms makes both stale.  Item 1's wake is the node's
  // event, which leaves item 0's first wake a1 to the stamp that rises at
  // exactly a1: it decides a1 on the stamp before it.
  const sim::Duration airtime = net::MacParams{}.t_tx_per_byte * 2;
  const sim::TimePoint parked = at_ms(0.5);
  proto.deferrals[0].count = 3;
  const sim::TimePoint a1 = at_ms(0.0) + airtime + window(4);
  const std::vector<sim::TimePoint> starts{at_ms(0.0), at_ms(1.0), a1};
  script_traffic(starts);
  sim.at(parked, [&] {
    ASSERT_TRUE(proto.expire(self, 0));
    ASSERT_TRUE(proto.expire(self, 1));
  });
  sim.run();

  const Chain want0 = reference(starts, parked, 3);
  const Chain want1 = reference(starts, parked, 0);
  // a1 defers on the stamp at 1 ms, then the next wake on the stamp at a1.
  EXPECT_EQ(want0.count, 6);
  EXPECT_EQ(want0.fire, a1 + airtime + window(6));
  EXPECT_EQ(want1.count, 3);
  ASSERT_EQ(proto.fires.size(), 2u);
  EXPECT_EQ(proto.fires[0], std::make_pair(want1.fire, 1u));
  EXPECT_EQ(proto.fires[1], std::make_pair(want0.fire, 0u));
  EXPECT_EQ(proto.deferrals[0].count, want0.count);
  EXPECT_EQ(proto.deferrals[1].count, want1.count);
}

TEST_F(ProtocolCoreTest, TimerDeferLimitCountsVirtualWakes) {
  constexpr int kLimit = 3;
  params.timer_defer_limit = kLimit;
  ProbeProtocol proto{sim, net, interest, params};
  // Traffic every 2 ms for 60 ms: every wake finds the stamp moved.
  std::vector<sim::TimePoint> starts;
  for (int k = 0; k < 30; ++k) starts.push_back(at_ms(2.0 * k));
  script_traffic(starts);
  const sim::TimePoint parked = at_ms(1.0);
  sim.at(parked, [&] { ASSERT_TRUE(proto.expire(self)); });
  sim.run();

  const Chain want = reference(starts, parked, 0);
  ASSERT_EQ(proto.fires.size(), 1u);
  EXPECT_EQ(proto.deferrals[0].count, kLimit);
  EXPECT_EQ(want.count, kLimit);
  EXPECT_EQ(proto.fires[0].first, want.fire);
  EXPECT_LT(want.fire, starts.back());  // it fired while the channel was still busy
}

TEST_F(ProtocolCoreTest, CancelMidChainTakesTheDueWakesDeferral) {
  ProbeProtocol proto{sim, net, interest, params};
  // Items 0 and 1 (three deferrals already) and item 2 park at 0.5 ms on
  // stamp B0; a stamp at 1 ms makes them stale.  Item 2's wake is the
  // node's event, after which nothing decides the first wake a1 of items
  // 0 and 1: item 0 is cancelled 0.1 ms after a1, item 1 exactly at a1.
  // A wake at a cancel's instant ran before the cancel, so both count a1.
  const std::vector<sim::TimePoint> starts{at_ms(0.0), at_ms(1.0)};
  script_traffic(starts);
  const sim::Duration airtime = net::MacParams{}.t_tx_per_byte * 2;
  const sim::TimePoint parked = at_ms(0.5);
  const sim::TimePoint a1 = starts[0] + airtime + window(4);
  proto.deferrals[0].count = 3;
  proto.deferrals[1].count = 3;
  sim.at(parked, [&] {
    for (std::uint32_t seq = 0; seq < 3; ++seq) ASSERT_TRUE(proto.expire(self, seq));
  });
  sim.at(a1 + sim::Duration::ms(0.1), [&] { proto.cancel(self, 0); });
  sim.at(a1, [&] { proto.cancel(self, 1); });
  sim.run();

  const Chain after = reference(starts, parked, 3, a1 + sim::Duration::ms(0.1));
  const Chain at = reference(starts, parked, 3, a1);
  EXPECT_EQ(after.count, 5);
  EXPECT_EQ(at.count, 5);
  EXPECT_EQ(proto.deferrals[0].count, after.count);
  EXPECT_EQ(proto.deferrals[1].count, at.count);
  ASSERT_EQ(proto.fires.size(), 1u);  // item 2 ran its chain out
  EXPECT_EQ(proto.fires[0].second, 2u);
  // The item's next timer starts from that count.
  hear_traffic();
  ASSERT_TRUE(proto.expire(self, 0));
  EXPECT_EQ(proto.deferrals[0].count, after.count + 1);
}

TEST_F(ProtocolCoreTest, CancelAtAFiringWakeFiresTheTimerFirst) {
  ProbeProtocol proto{sim, net, interest, params};
  // Item 0 parks at 0.5 ms on the stamp of a frame at 0 and hears nothing
  // more, so its wake fires.  The cancel at that instant was scheduled
  // before the park, so it runs before the node's event: the wake still
  // runs first, and the cancel finds the timer gone.
  const std::vector<sim::TimePoint> starts{at_ms(0.0)};
  script_traffic(starts);
  const sim::TimePoint parked = at_ms(0.5);
  const Chain want = reference(starts, parked, 0);
  sim.at(want.fire, [&] { proto.cancel(self, 0); });
  sim.at(parked, [&] { ASSERT_TRUE(proto.expire(self, 0)); });
  sim.run();
  ASSERT_EQ(proto.fires.size(), 1u);
  EXPECT_EQ(proto.fires[0], std::make_pair(want.fire, 0u));
  EXPECT_EQ(proto.deferrals[0].count, want.count);
  EXPECT_FALSE(proto.timers[0].valid());
}

TEST_F(ProtocolCoreTest, CrashAtAFiringWakeComesAfterTheFire) {
  ProbeProtocol proto{sim, net, interest, params};
  // As above, but the node crashes at the firing wake: the timer fires
  // before the network takes the node down, not inside its crash handler.
  const std::vector<sim::TimePoint> starts{at_ms(0.0)};
  script_traffic(starts);
  const sim::TimePoint parked = at_ms(0.5);
  const Chain want = reference(starts, parked, 0);
  sim.at(want.fire, [&] { net.set_up(self, false); });
  sim.at(parked, [&] { ASSERT_TRUE(proto.expire(self, 0)); });
  sim.run();
  ASSERT_EQ(proto.fires.size(), 1u);
  EXPECT_EQ(proto.fires[0].first, want.fire);
  EXPECT_EQ(proto.fires_seen.back(), 1u);
}

TEST_F(ProtocolCoreTest, DeliveryAtAFiringWakeComesAfterTheFire) {
  // With tout_dat at half of t_proc, W(8) = t_proc: a timer with 8
  // deferrals that saw a frame's stamp wakes, and fires, as the frame is
  // delivered.  It parks after the frame ended, so the node's event at
  // the wake was scheduled after the delivery's.
  const net::MacParams mac = quiet_mac();
  params.tout_dat = mac.t_proc * 0.5;
  ProbeProtocol proto{sim, net, interest, params};
  proto.deferrals[0].count = 7;
  const sim::Duration airtime = mac.t_tx_per_byte * 2;
  script_traffic({at_ms(0.0)});
  sim.at(at_ms(0.0) + airtime + params.tout_dat, [&] { ASSERT_TRUE(proto.expire(self, 0)); });
  sim.run();
  ASSERT_EQ(proto.fires.size(), 1u);
  EXPECT_EQ(proto.fires[0].first, at_ms(0.0) + airtime + mac.t_proc);
  // Nodes 0 and 2 take the frame after the fire.
  EXPECT_EQ(proto.fires_seen, (std::vector<std::size_t>{1, 1}));
}

TEST_F(ProtocolCoreTest, CrashDropsParkedTimers) {
  ProbeProtocol proto{sim, net, interest, params};
  hear_traffic();
  const std::size_t before = sim.scheduler().pending();
  ASSERT_TRUE(proto.expire(self, 0));
  ASSERT_TRUE(proto.expire(self, 1));
  EXPECT_EQ(sim.scheduler().pending(), before + 1);  // one event for the node
  net.set_up(self, false);
  EXPECT_EQ(sim.scheduler().pending(), before);
  EXPECT_FALSE(proto.timers[0].valid());
  EXPECT_FALSE(proto.timers[1].valid());
  // Traffic while the node is down still stamps its channel; nothing fires.
  hear_traffic();
  sim.run();
  EXPECT_TRUE(proto.fires.empty());
  net.set_up(self, true);
  sim.run();
  EXPECT_TRUE(proto.fires.empty());
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
