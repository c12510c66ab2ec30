#include "core/spms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/collector.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "trace_log.hpp"

/// SPMS protocol-conformance tests.  The scenarios mirror the paper's worked
/// examples: Section 3.3 (failure-free cases I and II on the A/B/C line) and
/// Section 3.5 (failure cases 1 and 2 on the A/r1/r2/C line), plus the two
/// fault-tolerance claims of Section 3.4.

namespace spms::core {
namespace {

using enum obs::TraceKind;

net::MacParams quiet_mac() {
  net::MacParams mac;
  mac.num_slots = 1;  // deterministic: no random backoff
  return mac;
}

/// Interest that wants a fixed set of nodes.
class FixedInterest final : public Interest {
 public:
  explicit FixedInterest(std::vector<net::NodeId> wanted) : wanted_(std::move(wanted)) {}
  [[nodiscard]] bool wants(net::NodeId node, net::DataId item) const override {
    if (node == item.origin) return false;
    return std::find(wanted_.begin(), wanted_.end(), node) != wanted_.end();
  }
  [[nodiscard]] std::size_t expected_count(net::DataId item) const override {
    std::size_t n = 0;
    for (const auto id : wanted_) n += (id != item.origin);
    return n;
  }

 private:
  std::vector<net::NodeId> wanted_;
};

/// Full SPMS stack over an explicit deployment, with trace capture.
struct Rig {
  Rig(std::vector<net::Point> pts, double zone_radius, std::unique_ptr<Interest> interest_in,
      std::uint64_t seed = 1)
      : sim(seed),
        net(sim, net::RadioTable::mica2(), quiet_mac(), {}, std::move(pts), zone_radius),
        routing(net),
        interest(std::move(interest_in)),
        proto(sim, net, routing, *interest, ProtocolParams{}) {
    proto.set_delivery_callback([this](net::NodeId node, net::DataId item, sim::TimePoint at) {
      collector.record_delivery(node, item, at);
      delivered.emplace_back(node, item);
    });
  }

  /// Publishes item 0 from `source` and records it with the collector.
  net::DataId publish(net::NodeId source) {
    const net::DataId item{source, 0};
    collector.record_publish(item, sim.now(), interest->expected_count(item));
    proto.publish(source, item);
    return item;
  }

  [[nodiscard]] bool node_delivered(net::NodeId id) const {
    return std::any_of(delivered.begin(), delivered.end(),
                       [&](const auto& d) { return d.first == id; });
  }

  sim::Simulation sim;
  net::Network net;
  routing::RoutingService routing;
  std::unique_ptr<Interest> interest;
  SpmsProtocol proto;
  Collector collector;
  std::vector<std::pair<net::NodeId, net::DataId>> delivered;
  TraceLog trace{sim};
};

constexpr net::NodeId kA{0}, kB{1}, kC{2};

/// A -- 5 m -- B -- 5 m -- C, all mutual zone neighbors; A->C best path
/// goes through B (2 x 0.0125 mW < 0.05 mW direct).
std::vector<net::Point> abc_line() { return {{0, 0}, {5, 0}, {10, 0}}; }

// --- Section 3.3, Case I: both B and C need the data -------------------------

TEST(SpmsPaperExamples, CaseI_BothRelayAndDestinationRequest) {
  Rig rig(abc_line(), 12.0, std::make_unique<AllToAllInterest>(3));
  rig.publish(kA);
  rig.sim.run();

  EXPECT_TRUE(rig.node_delivered(kB));
  EXPECT_TRUE(rig.node_delivered(kC));
  EXPECT_TRUE(rig.collector.all_delivered());

  // B is A's next-hop neighbor: it requested directly from A.
  EXPECT_EQ(rig.trace.count({.kind = kSpmsReqDirect, .node = kB, .peer = kA}), 1u);
  // C waited for B's re-advertisement and then requested B directly —
  // never the source through the long path.
  EXPECT_EQ(rig.trace.count({.kind = kSpmsReqDirect, .node = kC, .peer = kB}), 1u);
  EXPECT_EQ(rig.trace.count({.kind = kSpmsReqMultihop, .node = kC}), 0u);
  // C's data came from B.
  EXPECT_EQ(rig.trace.count({.kind = kSpmsData, .node = kC, .peer = kB}), 1u);
  // Every receiver re-advertised exactly once (A, B, C each advertise).
  EXPECT_EQ(rig.trace.count({.kind = kSpmsAdv}), 3u);
}

// --- Section 3.3, Case II: B does not request -------------------------------

TEST(SpmsPaperExamples, CaseII_RelayNotInterestedMultiHopPull) {
  Rig rig(abc_line(), 12.0, std::make_unique<FixedInterest>(std::vector<net::NodeId>{kC}));
  rig.publish(kA);
  rig.sim.run();

  EXPECT_TRUE(rig.node_delivered(kC));
  EXPECT_FALSE(rig.node_delivered(kB));

  // C timed out on tau_ADV and requested A through the shortest path (via B).
  EXPECT_EQ(rig.trace.count({.kind = kSpmsReqMultihop, .node = kC, .peer = kA, .via = kB}), 1u);
  // B relayed the REQ and the DATA but never cached or advertised.
  EXPECT_EQ(rig.trace.count({.kind = kSpmsRelayReq, .node = kB, .peer = kC, .via = kA}), 1u);
  EXPECT_EQ(rig.trace.count({.kind = kSpmsRelayData, .node = kB, .peer = kC}), 1u);
  EXPECT_EQ(rig.trace.count({.kind = kSpmsAdv, .node = kB}), 0u);
  EXPECT_EQ(rig.trace.count({.kind = kSpmsData, .node = kB}), 0u);
  // The DATA's final hop into C came from B ("sent in exactly the same
  // manner as the received request").
  EXPECT_EQ(rig.trace.count({.kind = kSpmsData, .node = kC, .peer = kB}), 1u);
}

// --- Section 3.5 failure cases on A -- r1 -- r2 -- C ------------------------

constexpr net::NodeId kR1{1}, kR2{2}, kC4{3};

std::vector<net::Point> ar1r2c_line() { return {{0, 0}, {5, 0}, {10, 0}, {15, 0}}; }

TEST(SpmsPaperExamples, FailureCase1_RelayDiesBeforeAdvertising) {
  Rig rig(ar1r2c_line(), 16.0, std::make_unique<AllToAllInterest>(4));
  // r2 crashes right after hearing the source ADV, before it can do anything.
  rig.sim.at(sim::TimePoint::at(sim::Duration::ms(0.2)),
             [&] { rig.net.set_up(kR2, false); });
  rig.publish(kA);
  rig.sim.run();

  // C still gets the data…
  EXPECT_TRUE(rig.node_delivered(kC4));
  EXPECT_TRUE(rig.node_delivered(kR1));
  // …by eventually requesting the PRONE (r1) directly at a higher power
  // ("requests the data from the PRONE (r1) directly").
  EXPECT_GE(rig.trace.count({.kind = kSpmsReqDirect, .node = kC4, .peer = kR1}), 1u);
  EXPECT_EQ(rig.trace.count({.kind = kSpmsData, .node = kC4, .peer = kR1}), 1u);
  // r2 never served anything.
  EXPECT_EQ(rig.trace.count({.kind = kSpmsAdv, .node = kR2}), 0u);
}

TEST(SpmsPaperExamples, FailureCase2_RelayDiesAfterAdvertising) {
  Rig rig(ar1r2c_line(), 16.0, std::make_unique<AllToAllInterest>(4));
  // Crash r2 the moment C's direct REQ to it is in flight: r2's ADV is out,
  // but the REQ will land on a dead node.
  const TraceMatch req_to_r2{.kind = kSpmsReqDirect, .node = kC4, .peer = kR2, .item = {kA, 0}};
  rig.trace.on_record = [&](const obs::TraceRecord& r) {
    if (req_to_r2(r) && rig.net.is_up(kR2)) {
      rig.sim.after(sim::Duration::ms(0.05), [&] { rig.net.set_up(kR2, false); });
    }
  };
  rig.publish(kA);
  rig.sim.run();

  // C requested r2 (its promoted PRONE) first…
  ASSERT_GE(rig.trace.count(req_to_r2), 1u);
  // …then fell back to the SCONE (r1) directly, as in the paper's Case 2.
  EXPECT_GE(rig.trace.count({.kind = kSpmsReqDirect, .node = kC4, .peer = kR1}), 1u);
  EXPECT_TRUE(rig.node_delivered(kC4));
  EXPECT_EQ(rig.trace.count({.kind = kSpmsData, .node = kC4, .peer = kR1}), 1u);
}

// --- Section 3.4 fault-tolerance claims --------------------------------------

TEST(SpmsClaims, SourceFailureAfterFirstDeliveryStillDisseminates) {
  // Claim 1: "Failure of the source node after its data has been received by
  // any of its zone neighbor nodes" is tolerated.
  Rig rig(abc_line(), 12.0, std::make_unique<AllToAllInterest>(3));
  rig.trace.on_record = [&](const obs::TraceRecord& r) {
    if (TraceMatch{.kind = kSpmsData, .node = kB}(r) && rig.net.is_up(kA)) {
      rig.sim.after(sim::Duration::ms(0.01), [&] { rig.net.set_up(kA, false); });
    }
  };
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.node_delivered(kB));
  EXPECT_TRUE(rig.node_delivered(kC));  // served by B, not the dead source
  EXPECT_EQ(rig.trace.count({.kind = kSpmsData, .node = kC, .peer = kB}), 1u);
}

TEST(SpmsClaims, IntermediateFailureDuringRelayingIsTolerated) {
  // Claim 2: "Failure of any intermediate node during the entire protocol."
  // Kill r2 while it is relaying C's multi-hop REQ.
  Rig rig(ar1r2c_line(), 16.0,
          std::make_unique<FixedInterest>(std::vector<net::NodeId>{kC4}));
  rig.trace.on_record = [&](const obs::TraceRecord& r) {
    if (TraceMatch{.kind = kSpmsRelayReq, .node = kR2}(r) && rig.net.is_up(kR2)) {
      rig.net.set_up(kR2, false);  // queue (with the forwarded REQ) is wiped
    }
  };
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.node_delivered(kC4));
}

TEST(SpmsClaims, TransientSourceFailureRecoversViaRetry) {
  // Two nodes only: B's REQ lands while A is down; A repairs; B's retry is
  // served.  Exercises the tau_DAT timer + retry path end to end.
  Rig rig({{0, 0}, {5, 0}}, 12.0, std::make_unique<AllToAllInterest>(2));
  rig.sim.at(sim::TimePoint::at(sim::Duration::ms(0.15)), [&] { rig.net.set_up(kA, false); });
  rig.sim.at(sim::TimePoint::at(sim::Duration::ms(20.0)), [&] { rig.net.set_up(kA, true); });
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.node_delivered(kB));
  // The original REQ and at least one retry.
  EXPECT_GE(rig.trace.count({.kind = kSpmsReqDirect, .node = kB}), 2u);
}

// --- Dissemination properties -------------------------------------------------

TEST(SpmsDissemination, PropagatesAcrossZones) {
  // 9 nodes in a 40 m line, zone radius 12 m: the far end is 3 zones away
  // from the source and can only be reached through re-advertisement.
  std::vector<net::Point> pts;
  for (int i = 0; i < 9; ++i) pts.push_back({5.0 * i, 0.0});
  Rig rig(std::move(pts), 12.0, std::make_unique<AllToAllInterest>(9));
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.collector.all_delivered()) << rig.collector.deliveries() << "/"
                                             << rig.collector.expected_deliveries();
  EXPECT_TRUE(rig.node_delivered(net::NodeId{8}));
}

TEST(SpmsDissemination, EveryReceiverAdvertisesExactlyOnce) {
  Rig rig(ar1r2c_line(), 16.0, std::make_unique<AllToAllInterest>(4));
  rig.publish(kA);
  rig.sim.run();
  ASSERT_TRUE(rig.collector.all_delivered());
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.trace.count({.kind = kSpmsAdv, .node = net::NodeId{i}}), 1u) << "node " << i;
  }
}

TEST(SpmsDissemination, DuplicateDataIsIgnored) {
  Rig rig(abc_line(), 12.0, std::make_unique<AllToAllInterest>(3));
  const auto item = rig.publish(kA);
  rig.sim.run();
  ASSERT_TRUE(rig.collector.all_delivered());
  const auto delivered_before = rig.collector.deliveries();
  // Replay a DATA frame at C: state.has suppresses a second delivery.
  net::Packet dup;
  dup.type = net::PacketType::kData;
  dup.item = item;
  dup.requester = kC;
  ASSERT_TRUE(rig.net.send_to(kA, dup, kC));
  rig.sim.run();
  EXPECT_EQ(rig.collector.deliveries(), delivered_before);
}

TEST(SpmsDissemination, UninterestedNodesNeverRequest) {
  Rig rig(abc_line(), 12.0, std::make_unique<FixedInterest>(std::vector<net::NodeId>{kB}));
  rig.publish(kA);
  rig.sim.run();
  EXPECT_TRUE(rig.node_delivered(kB));
  EXPECT_EQ(rig.trace.count({.kind = kSpmsReqDirect, .node = kC}), 0u);
  EXPECT_EQ(rig.trace.count({.kind = kSpmsReqMultihop, .node = kC}), 0u);
}

TEST(SpmsDissemination, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    Rig rig(ar1r2c_line(), 16.0, std::make_unique<AllToAllInterest>(4), seed);
    rig.publish(kA);
    rig.sim.run();
    return std::make_tuple(rig.collector.deliveries(), rig.collector.delay_ms().mean(),
                           rig.net.energy().total_uj(), rig.net.counters().tx_total());
  };
  EXPECT_EQ(run(42), run(42));
}

}  // namespace
}  // namespace spms::core
