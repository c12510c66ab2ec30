#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/collector.hpp"
#include "core/spms.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "trace_log.hpp"

/// Tests for the paper's flagged extensions (Sections 3.4 and 6): multiple
/// SCONEs and relay data caching.

namespace spms::core {
namespace {

using enum obs::TraceKind;

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

  sim::Simulation sim;
  net::Network net;
  routing::RoutingService routing;
  AllToAllInterest interest;
  SpmsProtocol proto;
  Collector collector;
  std::vector<net::NodeId> delivered;
  TraceLog trace{sim};
};

// A -- r1 -- r2 -- r3 -- C in a line, 5 m pitch, one shared 21 m zone.
std::vector<net::Point> five_line() {
  return {{0, 0}, {5, 0}, {10, 0}, {15, 0}, {20, 0}};
}
constexpr net::NodeId kA{0}, kR1{1}, kR2{2}, kR3{3}, kC{4};

/// C's direct REQ for A's item to `peer`.
TraceMatch c_requests(net::NodeId peer) {
  return {.kind = kSpmsReqDirect, .node = kC, .peer = peer, .item = {kA, 0}};
}

/// Crashes r3, then r2, 0.05 ms after C's REQ to it goes out.
void crash_relays_on_request(Rig& rig) {
  rig.trace.on_record = [&rig](const obs::TraceRecord& r) {
    for (const net::NodeId relay : {kR3, kR2}) {
      if (c_requests(relay)(r) && rig.net.is_up(relay)) {
        rig.sim.after(sim::Duration::ms(0.05), [&rig, relay] { rig.net.set_up(relay, false); });
      }
    }
  };
}

TEST(SpmsMultiScone, LadderWalksAllRememberedOriginators) {
  // C promotes holders as they advertise: r3 (closest), then r2, then r1 are
  // remembered with num_scones = 2.  Killing r3 AND r2 after their ADVs must
  // leave C recovering through the third originator, r1 — two concurrent
  // failures tolerated, as Section 3.4 promises for multiple SCONEs.
  SpmsExtensions ext;
  ext.num_scones = 2;
  Rig rig(five_line(), 21.0, ext);
  crash_relays_on_request(rig);
  rig.publish(kA);
  rig.sim.run();

  EXPECT_TRUE(rig.node_delivered(kC));
  // The ladder reached r1 (the second SCONE) directly, never the source.
  EXPECT_GE(rig.trace.count(c_requests(kR1)), 1u);
  EXPECT_EQ(rig.trace.count(c_requests(kA)), 0u);
  EXPECT_GE(rig.trace.count({.kind = kSpmsData, .node = kC}), 1u);
}

TEST(SpmsMultiScone, SingleSconeFallsBackToSourceInstead) {
  // Same crash schedule with the default single SCONE: r1 was forgotten, so
  // the ladder must resort to the source A instead.
  SpmsExtensions ext;
  ext.num_scones = 1;
  Rig rig(five_line(), 21.0, ext);
  crash_relays_on_request(rig);
  rig.publish(kA);
  rig.sim.run();

  EXPECT_TRUE(rig.node_delivered(kC));
  EXPECT_GE(rig.trace.count(c_requests(kA)), 1u);  // the source
  EXPECT_EQ(rig.trace.count(c_requests(kR1)), 0u);  // forgotten
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
    // B holds the data either way here.
    EXPECT_GE(rig.trace.count({.kind = kSpmsAdv, .node = kR1}), 1u);
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
    TraceLog trace(sim);
    proto.publish(net::NodeId{0}, {net::NodeId{0}, 0});
    sim.run();
    const std::size_t relay_advs = trace.count({.kind = kSpmsAdv, .node = net::NodeId{1}});
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
    EXPECT_EQ(rig.trace.count({.kind = kSpmsAdv, .node = net::NodeId{i}}), 1u) << "node " << i;
  }
}

// --- Cross-zone dissemination (Section 6 future work) -----------------------

constexpr net::NodeId kFar{8};

/// Only the far end of a long line is interested; everyone in between is a
/// bystander.  0..8 at 5 m pitch with a 12 m zone: node 8 sits three zones
/// away from the source — unreachable for published SPMS.
class FarEndOnly final : public Interest {
 public:
  [[nodiscard]] bool wants(net::NodeId node, net::DataId item) const override {
    return node == kFar && node != item.origin;
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
  sim::Simulation sim;
  net::Network net;
  routing::RoutingService routing;
  FarEndOnly interest;
  SpmsProtocol proto;
  Collector collector;
  TraceLog trace{sim};
};

TEST(SpmsCrossZone, PublishedProtocolCannotReachSeparateZones) {
  CrossZoneRig rig{SpmsExtensions{}};  // ttl = 0: published protocol
  rig.publish();
  rig.sim.run();
  EXPECT_EQ(rig.collector.deliveries(), 0u);
  EXPECT_EQ(rig.trace.count({.kind = kSpmsCourierAdv}), 0u);
}

TEST(SpmsCrossZone, MetadataCourierReachesTheFarZone) {
  SpmsExtensions ext;
  ext.cross_zone_ttl = 4;
  CrossZoneRig rig{ext};
  rig.publish();
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered())
      << rig.collector.deliveries() << "/" << rig.collector.expected_deliveries();
  // At least two zone crossings, and the far node pulled.
  EXPECT_GE(rig.trace.count({.kind = kSpmsCourierAdv}), 2u);
  EXPECT_GE(rig.trace.count({.kind = kSpmsReqCrosszone, .node = kFar}), 1u);
  EXPECT_GE(rig.trace.count({.kind = kSpmsData, .node = kFar}), 1u);
}

TEST(SpmsCrossZone, TtlBoundsThePropagation) {
  SpmsExtensions ext;
  ext.cross_zone_ttl = 1;  // one crossing: covers ~24 m, node 8 sits at 40 m
  CrossZoneRig rig{ext};
  rig.publish();
  rig.sim.run();
  EXPECT_EQ(rig.collector.deliveries(), 0u);
  EXPECT_GE(rig.trace.count({.kind = kSpmsCourierAdv}), 1u);
}

TEST(SpmsCrossZone, SurvivesTransientRelayFailureOnTheRequestPath) {
  SpmsExtensions ext;
  ext.cross_zone_ttl = 4;
  CrossZoneRig rig{ext};
  // Crash a mid-route relay (n4 on the 8->6->4->2->0 source route) the
  // moment the far node's first REQ goes out; it recovers 30 ms later and
  // the requester's bounded re-send along the same trail completes the pull.
  bool crashed = false;
  rig.trace.on_record = [&](const obs::TraceRecord& r) {
    if (!crashed && TraceMatch{.kind = kSpmsReqCrosszone, .node = kFar}(r)) {
      crashed = true;
      rig.net.set_up(net::NodeId{4}, false);
      rig.sim.after(sim::Duration::ms(30.0), [&] { rig.net.set_up(net::NodeId{4}, true); });
    }
  };
  rig.publish();
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered());
  // The original REQ and its re-send.
  EXPECT_GE(rig.trace.count({.kind = kSpmsReqCrosszone, .node = kFar}), 2u);
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
