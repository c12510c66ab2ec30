#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/span_trace.hpp"

/// Unit invariants of the causal span assembly: span lifecycle folding,
/// parent chaining / depth, the journey census, relay tallies, the JSONL and
/// Perfetto exports, and the flight recorder's dump discipline.

namespace spms::obs {
namespace {

sim::TimePoint at(double ms) { return sim::TimePoint::zero() + sim::Duration::ms(ms); }

net::NodeId node(std::uint32_t v) { return net::NodeId{v}; }

net::DataId item(std::uint32_t origin, std::uint32_t seq) {
  return net::DataId{node(origin), seq};
}

/// A three-hop SPMS-style journey of item n0#0: n0 publishes, n1 pulls from
/// n0, n2 pulls from n1 (DATA carried by relay n9).
void feed_three_hop_journey(SpanTrace& spans) {
  const auto it = item(0, 0);
  spans.consume({.at = at(0.0), .kind = TraceKind::kPublish, .node = node(0), .item = it});
  spans.consume({.at = at(1.0), .kind = TraceKind::kSpmsAdv, .node = node(0), .item = it});
  spans.consume({.at = at(2.0), .kind = TraceKind::kSpmsReqDirect, .node = node(1),
                 .peer = node(0), .item = it});
  spans.consume({.at = at(3.0), .kind = TraceKind::kSpmsData, .node = node(1), .peer = node(0),
                 .parent = node(0), .item = it});
  spans.consume({.at = at(3.0), .kind = TraceKind::kDelivery, .node = node(1), .item = it,
                 .value = 3.0});
  spans.consume({.at = at(4.0), .kind = TraceKind::kSpmsReqMultihop, .node = node(2),
                 .peer = node(1), .via = node(9), .item = it});
  spans.consume({.at = at(4.5), .kind = TraceKind::kSpmsRelayReq, .node = node(9),
                 .peer = node(2), .via = node(1), .item = it});
  spans.consume({.at = at(5.5), .kind = TraceKind::kSpmsRelayData, .node = node(9),
                 .peer = node(2), .item = it});
  // The DATA's immediate transmitter is the relay n9; the causal parent is
  // the serving holder n1 (stamped from Packet::holder).
  spans.consume({.at = at(6.0), .kind = TraceKind::kSpmsData, .node = node(2), .peer = node(9),
                 .parent = node(1), .item = it});
  spans.consume({.at = at(6.0), .kind = TraceKind::kDelivery, .node = node(2), .item = it,
                 .value = 6.0});
}

TEST(SpanTrace, AssemblesParentLinkedJourney) {
  SpanTrace spans;
  feed_three_hop_journey(spans);

  ASSERT_EQ(spans.spans().size(), 3u);
  const Span* root = spans.find(item(0, 0), node(0));
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->root);
  EXPECT_TRUE(root->has_data);
  EXPECT_FALSE(root->parent.valid());
  EXPECT_EQ(spans.depth_of(*root), 0);

  const Span* hop1 = spans.find(item(0, 0), node(1));
  ASSERT_NE(hop1, nullptr);
  EXPECT_EQ(hop1->parent, node(0));
  EXPECT_EQ(hop1->data_src, node(0));
  EXPECT_TRUE(hop1->delivered);
  EXPECT_DOUBLE_EQ(hop1->t_first_req_ms, 2.0);
  EXPECT_DOUBLE_EQ(hop1->t_data_ms, 3.0);
  EXPECT_DOUBLE_EQ(hop1->delay_ms, 3.0);
  EXPECT_EQ(hop1->requests, 1u);
  EXPECT_EQ(spans.depth_of(*hop1), 1);

  const Span* hop2 = spans.find(item(0, 0), node(2));
  ASSERT_NE(hop2, nullptr);
  EXPECT_EQ(hop2->parent, node(1));   // the holder, not the relay
  EXPECT_EQ(hop2->data_src, node(9));  // the relay that carried the frame
  EXPECT_EQ(spans.depth_of(*hop2), 2);

  const auto js = spans.journey_stats();
  EXPECT_EQ(js.spans, 3u);
  EXPECT_EQ(js.delivered, 2u);
  EXPECT_EQ(js.complete, 2u);
  EXPECT_EQ(js.orphaned, 0u);
  EXPECT_EQ(js.max_depth, 2u);
  EXPECT_DOUBLE_EQ(js.completeness(), 1.0);
}

TEST(SpanTrace, RelayVerbsTallyPerNodeLoads) {
  SpanTrace spans;
  feed_three_hop_journey(spans);
  const auto loads = spans.relay_loads();
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_EQ(loads[0].first, node(9));
  EXPECT_EQ(loads[0].second.req_frames, 1u);
  EXPECT_EQ(loads[0].second.data_frames, 1u);
}

TEST(SpanTrace, MissingParentRecordOrphansTheChain) {
  SpanTrace spans;
  const auto it = item(0, 0);
  // n2's data names n1 as parent, but n1's own span never got a data record
  // (e.g. it fell off a bounded ring) and no publish was seen either.
  spans.consume({.at = at(6.0), .kind = TraceKind::kSpmsData, .node = node(2), .peer = node(1),
                 .parent = node(1), .item = it});
  spans.consume({.at = at(6.0), .kind = TraceKind::kDelivery, .node = node(2), .item = it,
                 .value = 6.0});
  const Span* s = spans.find(it, node(2));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(spans.depth_of(*s), -1);
  const auto js = spans.journey_stats();
  EXPECT_EQ(js.delivered, 1u);
  EXPECT_EQ(js.complete, 0u);
  EXPECT_EQ(js.orphaned, 1u);
}

TEST(SpanTrace, ParentFallsBackToPeerWithoutHolderStamp) {
  // SPIN/flooding stamp parent == the transmitting holder; a record without
  // the stamp (legacy stream) falls back to the immediate peer.
  SpanTrace spans;
  const auto it = item(3, 1);
  spans.consume({.at = at(0.0), .kind = TraceKind::kPublish, .node = node(3), .item = it});
  spans.consume({.at = at(1.0), .kind = TraceKind::kSpinData, .node = node(4), .peer = node(3),
                 .item = it});
  const Span* s = spans.find(it, node(4));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->parent, node(3));
  EXPECT_EQ(spans.depth_of(*s), 1);
}

TEST(SpanTrace, GiveUpClosesTheSpanWithoutData) {
  SpanTrace spans;
  const auto it = item(0, 2);
  spans.consume({.at = at(1.0), .kind = TraceKind::kSpmsReqDirect, .node = node(5),
                 .peer = node(0), .item = it});
  const Span* s = spans.find(it, node(5));
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->open());
  spans.consume({.at = at(9.0), .kind = TraceKind::kGiveUp, .node = node(5), .item = it,
                 .value = 3.0});
  EXPECT_FALSE(s->open());
  EXPECT_TRUE(s->gave_up);
  EXPECT_FALSE(s->has_data);
}

TEST(SpanTrace, JsonlExportCarriesSpansAndSummary) {
  SpanTrace spans;
  feed_three_hop_journey(spans);
  std::ostringstream out;
  spans.write_jsonl(out);
  const std::string text = out.str();

  EXPECT_NE(text.find(R"("type":"span","item":"n0#0","node":0)"), std::string::npos);
  EXPECT_NE(text.find(R"("parent":1)"), std::string::npos);
  EXPECT_NE(text.find(R"("data_src":9)"), std::string::npos);
  EXPECT_NE(text.find(R"("type":"span-summary","spans":3,"delivered":2,"complete":2,)"
                      R"("orphaned":0,"max_depth":2,"records_seen":10})"),
            std::string::npos);
  // Exactly one line per span plus the summary.
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')), 4u);
}

TEST(SpanTrace, PerfettoExportEmitsSlicesAndFlowArrows) {
  SpanTrace spans;
  feed_three_hop_journey(spans);
  std::ostringstream out;
  spans.write_perfetto(out);
  const std::string text = out.str();

  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.find(R"("name":"n0#0@n2")"), std::string::npos);
  EXPECT_NE(text.find(R"("ph":"X")"), std::string::npos);
  // Two resolved parent links -> two s/f flow pairs.
  std::size_t flows = 0;
  for (std::size_t pos = 0; (pos = text.find(R"("ph":"s")", pos)) != std::string::npos; ++pos) {
    ++flows;
  }
  EXPECT_EQ(flows, 2u);
}

// --- FlightRecorder ----------------------------------------------------------

TEST(FlightRecorder, DumpsRingAndOpenSpansOnAnomaly) {
  EventTrace events;
  events.enable_ring(8);
  SpanTrace spans;
  std::ostringstream out;
  FlightRecorder recorder{events, spans, out, /*max_dumps=*/2};

  const auto feed = [&](const TraceRecord& r) {
    events.emit(r);
    spans.consume(r);
    recorder.observe(r);
  };

  const auto it = item(0, 0);
  feed({.at = at(1.0), .kind = TraceKind::kSpmsReqDirect, .node = node(1), .peer = node(0),
        .item = it});
  EXPECT_EQ(recorder.dumps(), 0u);  // an open span alone is no anomaly

  feed({.at = at(9.0), .kind = TraceKind::kGiveUp, .node = node(1), .item = it, .value = 3.0});
  EXPECT_EQ(recorder.dumps(), 1u);

  const std::string text = out.str();
  EXPECT_NE(text.find(R"("type":"flight-dump","dump":1)"), std::string::npos);
  EXPECT_NE(text.find(R"("trigger":"give-up")"), std::string::npos);
  EXPECT_NE(text.find(R"("type":"flight-record")"), std::string::npos);
  // The span closed at the trigger instant (give-up), so no open spans.
  EXPECT_NE(text.find(R"("open_spans":0)"), std::string::npos);
}

TEST(FlightRecorder, CapsDumpsAndCountsSuppressed) {
  EventTrace events;
  events.enable_ring(4);
  SpanTrace spans;
  std::ostringstream out;
  FlightRecorder recorder{events, spans, out, /*max_dumps=*/1};

  for (std::uint32_t i = 0; i < 3; ++i) {
    const TraceRecord r{.at = at(1.0 + i), .kind = TraceKind::kGiveUp, .node = node(i),
                        .item = item(0, i), .value = 1.0};
    events.emit(r);
    spans.consume(r);
    recorder.observe(r);
  }
  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_EQ(recorder.suppressed(), 2u);
}

}  // namespace
}  // namespace spms::obs
