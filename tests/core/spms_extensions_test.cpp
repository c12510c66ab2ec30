#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/collector.hpp"
#include "core/spms.hpp"
#include "net/topology.hpp"
#include "obs/event_trace.hpp"
#include "sim/simulation.hpp"

/// Tests for the paper's flagged extensions (Sections 3.4 and 6): multiple
/// SCONEs and relay data caching.

namespace spms::core {
namespace {

net::MacParams quiet_mac() {
  net::MacParams mac;
  mac.num_slots = 1;
  return mac;
}

struct Rig {
  Rig(std::vector<net::Point> pts, double zone_radius, SpmsExtensions ext,
      std::uint64_t seed = 1)
      : sim(seed),
        net(sim, net::RadioTable::mica2(), quiet_mac(), {}, std::move(pts), zone_radius),
        routing(net),
        interest(net.size()),
        proto(sim, net, routing, interest, ProtocolParams{}, ext) {
    proto.set_delivery_callback([this](net::NodeId node, net::DataId item, sim::TimePoint at) {
      collector.record_delivery(node, item, at);
      delivered.push_back(node);
    });
    sim.events().set_sink([this](const obs::TraceRecord& r) {
      if (auto line = obs::format_legacy(r)) {
        trace.push_back(*line);
        if (on_trace) on_trace(*line);
      }
    });
  }

  net::DataId publish(net::NodeId source) {
    const net::DataId item{source, 0};
    collector.record_publish(item, sim.now(), interest.expected_count(item));
    proto.publish(source, item);
    return item;
  }

  [[nodiscard]] bool node_delivered(net::NodeId id) const {
    return std::find(delivered.begin(), delivered.end(), id) != delivered.end();
  }

  [[nodiscard]] std::size_t trace_count(const std::string& prefix) const {
    std::size_t n = 0;
    for (const auto& e : trace) {
      if (e.category == "spms" && e.message.rfind(prefix, 0) == 0) ++n;
    }
    return n;
  }

  sim::Simulation sim;
  net::Network net;
  routing::RoutingService routing;
  AllToAllInterest interest;
  SpmsProtocol proto;
  Collector collector;
  std::vector<net::NodeId> delivered;
  std::vector<obs::LegacyLine> trace;
  std::function<void(const obs::LegacyLine&)> on_trace;
};

// A -- r1 -- r2 -- r3 -- C in a line, 5 m pitch, one shared 21 m zone.
std::vector<net::Point> five_line() {
  return {{0, 0}, {5, 0}, {10, 0}, {15, 0}, {20, 0}};
}
constexpr net::NodeId kA{0}, kR1{1}, kR2{2}, kR3{3}, kC{4};

TEST(SpmsMultiScone, LadderWalksAllRememberedOriginators) {
  // C promotes holders as they advertise: r3 (closest), then r2, then r1 are
  // remembered with num_scones = 2.  Killing r3 AND r2 after their ADVs must
  // leave C recovering through the third originator, r1 — two concurrent
  // failures tolerated, as Section 3.4 promises for multiple SCONEs.
  SpmsExtensions ext;
  ext.num_scones = 2;
  Rig rig(five_line(), 21.0, ext);
  rig.on_trace = [&](const obs::LegacyLine& e) {
    // Crash each relay right after C's REQ to it goes out.
    if (e.message.rfind("req-direct n4 n0#0 to n3", 0) == 0 && rig.net.is_up(kR3)) {
      rig.sim.after(sim::Duration::ms(0.05), [&] { rig.net.set_up(kR3, false); });
    }
    if (e.message.rfind("req-direct n4 n0#0 to n2", 0) == 0 && rig.net.is_up(kR2)) {
      rig.sim.after(sim::Duration::ms(0.05), [&] { rig.net.set_up(kR2, false); });
    }
  };
  rig.publish(kA);
  rig.sim.run();

  EXPECT_TRUE(rig.node_delivered(kC));
  // The ladder reached r1 (the second SCONE) directly.
  EXPECT_GE(rig.trace_count("req-direct n4 n0#0 to n1"), 1u);
  EXPECT_GE(rig.trace_count("data n4"), 1u);
}

TEST(SpmsMultiScone, SingleSconeFallsBackToSourceInstead) {
  // Same crash schedule with the default single SCONE: r1 was forgotten, so
  // the ladder must resort to the source A instead.
  SpmsExtensions ext;
  ext.num_scones = 1;
  Rig rig(five_line(), 21.0, ext);
  rig.on_trace = [&](const obs::LegacyLine& e) {
    if (e.message.rfind("req-direct n4 n0#0 to n3", 0) == 0 && rig.net.is_up(kR3)) {
      rig.sim.after(sim::Duration::ms(0.05), [&] { rig.net.set_up(kR3, false); });
    }
    if (e.message.rfind("req-direct n4 n0#0 to n2", 0) == 0 && rig.net.is_up(kR2)) {
      rig.sim.after(sim::Duration::ms(0.05), [&] { rig.net.set_up(kR2, false); });
    }
  };
  rig.publish(kA);
  rig.sim.run();

  EXPECT_TRUE(rig.node_delivered(kC));
  EXPECT_GE(rig.trace_count("req-direct n4 n0#0 to n0"), 1u);  // the source
}

TEST(SpmsMultiScone, PromotionKeepsListBounded) {
  // With three closer-and-closer holders and num_scones = 1, only the two
  // most recent originators are addressable; behaviourally we just require
  // a clean full delivery (the bound is internal).
  SpmsExtensions ext;
  ext.num_scones = 1;
  Rig rig(five_line(), 21.0, ext);
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered());
}

TEST(SpmsRelayCaching, RelaysCacheAndAdvertise) {
  // Published protocol: a pure relay never advertises.  With the Section 6
  // extension it does, exactly once, after forwarding its first DATA copy.
  for (const bool caching : {false, true}) {
    SpmsExtensions ext;
    ext.relay_caching = caching;
    Rig rig({{0, 0}, {5, 0}, {10, 0}}, 12.0, ext);
    // Only C (n2) is interested; B (n1) can only touch the data as a relay.
    // AllToAllInterest wants everything, so instead watch who advertises:
    // without caching B only advertises after *requesting* like a receiver.
    rig.publish(net::NodeId{0});
    rig.sim.run();
    EXPECT_TRUE(rig.collector.all_delivered());
    EXPECT_GE(rig.trace_count("adv n1"), 1u);  // B holds the data either way here
  }
}

TEST(SpmsRelayCaching, UninterestedRelayCachesOnlyWithExtension) {
  class OnlyC final : public Interest {
   public:
    [[nodiscard]] bool wants(net::NodeId node, net::DataId item) const override {
      return node == net::NodeId{2} && node != item.origin;
    }
    [[nodiscard]] std::size_t expected_count(net::DataId) const override { return 1; }
  };

  for (const bool caching : {false, true}) {
    sim::Simulation sim{1};
    net::Network net(sim, net::RadioTable::mica2(), quiet_mac(), {},
                     {{0, 0}, {5, 0}, {10, 0}}, 12.0);
    routing::RoutingService routing(net);
    OnlyC interest;
    SpmsExtensions ext;
    ext.relay_caching = caching;
    SpmsProtocol proto(sim, net, routing, interest, ProtocolParams{}, ext);
    std::size_t relay_advs = 0;
    sim.events().set_sink([&](const obs::TraceRecord& r) {
      const auto line = obs::format_legacy(r);
      if (line && line->category == "spms" && line->message.rfind("adv n1", 0) == 0) {
        ++relay_advs;
      }
    });
    proto.publish(net::NodeId{0}, {net::NodeId{0}, 0});
    sim.run();
    if (caching) {
      EXPECT_EQ(relay_advs, 1u) << "cached relay must re-advertise once";
    } else {
      EXPECT_EQ(relay_advs, 0u) << "published protocol: pure relays never advertise";
    }
  }
}

TEST(SpmsRelayCaching, ImprovesRecoveryPath) {
  // C pulls through r2 (multi-hop to A).  With caching, r2 now holds the
  // data; when a second consumer (r3) later asks, its acquisition can be
  // served locally even if the original holders are down.
  SpmsExtensions ext;
  ext.relay_caching = true;
  Rig rig(five_line(), 21.0, ext);
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered());
  // Everyone ends up holding (receivers by request, relays by caching), and
  // each holder advertised exactly once.
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rig.trace_count("adv n" + std::to_string(i) + " "), 1u) << "node " << i;
  }
}

// --- Cross-zone dissemination (Section 6 future work) -----------------------

/// Only the far end of a long line is interested; everyone in between is a
/// bystander.  0..8 at 5 m pitch with a 12 m zone: node 8 sits three zones
/// away from the source — unreachable for published SPMS.
class FarEndOnly final : public Interest {
 public:
  [[nodiscard]] bool wants(net::NodeId node, net::DataId item) const override {
    return node == net::NodeId{8} && node != item.origin;
  }
  [[nodiscard]] std::size_t expected_count(net::DataId) const override { return 1; }
};

struct CrossZoneRig {
  explicit CrossZoneRig(SpmsExtensions ext)
      : sim(1),
        net(sim, net::RadioTable::mica2(), quiet_mac(), {}, line9(), 12.0),
        routing(net),
        proto(sim, net, routing, interest, ProtocolParams{}, ext) {
    proto.set_delivery_callback([this](net::NodeId node, net::DataId item, sim::TimePoint at) {
      collector.record_delivery(node, item, at);
    });
    sim.events().set_sink([this](const obs::TraceRecord& r) {
      if (auto line = obs::format_legacy(r)) {
        trace.push_back(*line);
        if (on_trace) on_trace(*line);
      }
    });
  }
  static std::vector<net::Point> line9() {
    std::vector<net::Point> pts;
    for (int i = 0; i < 9; ++i) pts.push_back({5.0 * i, 0.0});
    return pts;
  }
  void publish() {
    const net::DataId item{net::NodeId{0}, 0};
    collector.record_publish(item, sim.now(), interest.expected_count(item));
    proto.publish(net::NodeId{0}, item);
  }
  [[nodiscard]] std::size_t trace_count(const std::string& prefix) const {
    std::size_t n = 0;
    for (const auto& e : trace) {
      if (e.category == "spms" && e.message.rfind(prefix, 0) == 0) ++n;
    }
    return n;
  }
  sim::Simulation sim;
  net::Network net;
  routing::RoutingService routing;
  FarEndOnly interest;
  SpmsProtocol proto;
  Collector collector;
  std::vector<obs::LegacyLine> trace;
  std::function<void(const obs::LegacyLine&)> on_trace;
};

TEST(SpmsCrossZone, PublishedProtocolCannotReachSeparateZones) {
  CrossZoneRig rig{SpmsExtensions{}};  // ttl = 0: published protocol
  rig.publish();
  rig.sim.run();
  EXPECT_EQ(rig.collector.deliveries(), 0u);
  EXPECT_EQ(rig.trace_count("courier-adv"), 0u);
}

TEST(SpmsCrossZone, MetadataCourierReachesTheFarZone) {
  SpmsExtensions ext;
  ext.cross_zone_ttl = 4;
  CrossZoneRig rig{ext};
  rig.publish();
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered())
      << rig.collector.deliveries() << "/" << rig.collector.expected_deliveries();
  EXPECT_GE(rig.trace_count("courier-adv"), 2u);      // at least two zone crossings
  EXPECT_GE(rig.trace_count("req-crosszone n8"), 1u); // the far node pulled
  EXPECT_GE(rig.trace_count("data n8"), 1u);
}

TEST(SpmsCrossZone, TtlBoundsThePropagation) {
  SpmsExtensions ext;
  ext.cross_zone_ttl = 1;  // one crossing: covers ~24 m, node 8 sits at 40 m
  CrossZoneRig rig{ext};
  rig.publish();
  rig.sim.run();
  EXPECT_EQ(rig.collector.deliveries(), 0u);
  EXPECT_GE(rig.trace_count("courier-adv"), 1u);
}

TEST(SpmsCrossZone, SurvivesTransientRelayFailureOnTheRequestPath) {
  SpmsExtensions ext;
  ext.cross_zone_ttl = 4;
  CrossZoneRig rig{ext};
  // Crash a mid-route relay (n4 on the 8->6->4->2->0 source route) the
  // moment the far node's first REQ goes out; it recovers 30 ms later and
  // the requester's bounded re-send along the same trail completes the pull.
  bool crashed = false;
  rig.on_trace = [&](const obs::LegacyLine& e) {
    if (!crashed && e.message.rfind("req-crosszone n8", 0) == 0) {
      crashed = true;
      rig.net.set_up(net::NodeId{4}, false);
      rig.sim.after(sim::Duration::ms(30.0), [&] { rig.net.set_up(net::NodeId{4}, true); });
    }
  };
  rig.publish();
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered());
  EXPECT_GE(rig.trace_count("req-crosszone n8"), 2u);  // original + re-send
}

TEST(SpmsCrossZone, InZoneNodesStillUseNormalOperation) {
  // All-to-all interest with the extension on: couriering must not disturb
  // the normal intra-zone protocol (bystanders are interested, so nobody
  // even couriers).
  sim::Simulation sim{1};
  net::Network net(sim, net::RadioTable::mica2(), quiet_mac(), {}, CrossZoneRig::line9(), 12.0);
  routing::RoutingService routing(net);
  AllToAllInterest interest(9);
  SpmsExtensions ext;
  ext.cross_zone_ttl = 4;
  SpmsProtocol proto(sim, net, routing, interest, ProtocolParams{}, ext);
  Collector collector;
  proto.set_delivery_callback([&](net::NodeId n, net::DataId i, sim::TimePoint at) {
    collector.record_delivery(n, i, at);
  });
  const net::DataId item{net::NodeId{0}, 0};
  collector.record_publish(item, sim.now(), interest.expected_count(item));
  proto.publish(net::NodeId{0}, item);
  sim.run();
  EXPECT_TRUE(collector.all_delivered());
}

}  // namespace
}  // namespace spms::core
