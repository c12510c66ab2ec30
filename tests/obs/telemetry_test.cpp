#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/event_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

/// Unit invariants of the obs layer: O(1) counter handles, pull gauges,
/// histogram bucketing, the typed trace's ring/sink contracts, and
/// the sampler's fixed-grid semantics.

namespace spms::obs {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, CounterRegistrationIsIdempotentAndHandlesAdd) {
  MetricsRegistry reg;
  const auto a = reg.counter("net.tx_adv");
  const auto b = reg.counter("net.tx_req");
  EXPECT_NE(a.idx, b.idx);
  EXPECT_EQ(reg.counter("net.tx_adv").idx, a.idx);  // register-or-get
  EXPECT_EQ(reg.counter_count(), 2u);

  reg.add(a);
  reg.add(a, 41);
  EXPECT_EQ(reg.counter_value("net.tx_adv"), 42u);
  EXPECT_EQ(reg.counter_value("net.tx_req"), 0u);
  EXPECT_EQ(reg.counter_value("never.registered"), 0u);
}

TEST(MetricsRegistry, InvalidCounterHandleIsACheckedNoOp) {
  MetricsRegistry reg;
  reg.counter("x");
  CounterHandle invalid;
  EXPECT_FALSE(invalid.valid());
  reg.add(invalid, 100);  // must not crash or touch anything
  EXPECT_EQ(reg.counter_value("x"), 0u);
}

TEST(MetricsRegistry, GaugesPullOnDemandAndReRegistrationReplaces) {
  MetricsRegistry reg;
  double source = 1.0;
  reg.register_gauge("g", [&source] { return source; });
  source = 7.0;  // gauge reads the live value, not registration-time state
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 7.0);

  reg.register_gauge("g", [] { return -1.0; });
  EXPECT_EQ(reg.gauge_count(), 1u);  // replaced, not duplicated
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), -1.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("missing"), 0.0);
}

TEST(MetricsRegistry, GaugeSamplesFollowRegistrationOrder) {
  MetricsRegistry reg;
  reg.register_gauge("b", [] { return 2.0; });
  reg.register_gauge("a", [] { return 1.0; });
  const auto names = reg.gauge_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "b");
  EXPECT_EQ(names[1], "a");
  const auto row = reg.sample_gauges();
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0], 2.0);
  EXPECT_DOUBLE_EQ(row[1], 1.0);
}

TEST(MetricsRegistry, HistogramBucketsAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  const auto h = reg.histogram("delay", {1.0, 10.0});
  reg.observe(h, 0.5);   // <= 1        -> bucket 0
  reg.observe(h, 1.0);   // == bound    -> bucket 0 (inclusive)
  reg.observe(h, 5.0);   // (1, 10]     -> bucket 1
  reg.observe(h, 10.5);  // > last      -> +inf bucket
  const auto snaps = reg.histogram_snapshots();
  ASSERT_EQ(snaps.size(), 1u);
  const auto& s = snaps[0];
  ASSERT_EQ(s.counts.size(), 3u);  // bounds + implicit +inf
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 10.5);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 5.0 + 10.5);
}

// --- EventTrace --------------------------------------------------------------

TraceRecord adv_record(std::uint32_t node, std::uint32_t origin, std::uint32_t seq) {
  return {.at = sim::TimePoint::zero() + sim::Duration::ms(1.5),
          .kind = TraceKind::kSpmsAdv,
          .node = net::NodeId{node},
          .item = net::DataId{net::NodeId{origin}, seq}};
}

TEST(EventTrace, DisabledByDefaultAndEmitIsDropped) {
  EventTrace t;
  EXPECT_FALSE(t.enabled());
  t.emit(adv_record(1, 0, 0));
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_TRUE(t.ring_snapshot().empty());
}

TEST(EventTrace, SinkReceivesEveryRecord) {
  EventTrace t;
  std::vector<TraceRecord> seen;
  t.set_sink([&seen](const TraceRecord& r) { seen.push_back(r); });
  EXPECT_TRUE(t.enabled());
  t.emit(adv_record(3, 0, 1));
  t.emit(adv_record(4, 0, 2));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].node, net::NodeId{3});
  EXPECT_EQ(seen[1].item.seq, 2u);
  EXPECT_EQ(t.emitted(), 2u);

  t.set_sink(nullptr);
  EXPECT_FALSE(t.enabled());
  t.emit(adv_record(5, 0, 3));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(EventTrace, RingKeepsNewestRecordsOldestFirst) {
  EventTrace t;
  t.enable_ring(3);
  EXPECT_TRUE(t.enabled());
  for (std::uint32_t i = 0; i < 5; ++i) t.emit(adv_record(i, 0, i));
  const auto snap = t.ring_snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].node, net::NodeId{2});  // oldest retained
  EXPECT_EQ(snap[1].node, net::NodeId{3});
  EXPECT_EQ(snap[2].node, net::NodeId{4});  // newest
  EXPECT_EQ(t.emitted(), 5u);
  EXPECT_EQ(t.dropped(), 2u);

  t.enable_ring(0);
  EXPECT_FALSE(t.enabled());
  EXPECT_TRUE(t.ring_snapshot().empty());
}

TEST(AppendRecordJson, RendersOnlyPopulatedFields) {
  std::string out;
  TraceRecord drop{.at = sim::TimePoint::zero() + sim::Duration::ms(2.0),
                   .kind = TraceKind::kFrameDrop,
                   .cause = static_cast<std::uint8_t>(DropCause::kLinkFault),
                   .node = net::NodeId{6},
                   .peer = net::NodeId{1},
                   .item = net::DataId{net::NodeId{1}, 3}};
  json::Writer first{out};
  append_record_json(drop, first);
  EXPECT_EQ(out,
            R"({"t_ms":2,"kind":"frame-drop","cause":"link-fault","node":6,"peer":1,)"
            R"("item":"n1#3","value":0})");

  out.clear();
  TraceRecord publish{.kind = TraceKind::kPublish,
                      .node = net::NodeId{0},
                      .item = net::DataId{net::NodeId{0}, 0},
                      .value = 15.0};
  json::Writer second{out};
  append_record_json(publish, second);
  // No cause member (kind carries none), no peer/via (invalid ids omitted).
  EXPECT_EQ(out, R"({"t_ms":0,"kind":"publish","node":0,"item":"n0#0","value":15})");
}

// --- Sampler -----------------------------------------------------------------

TEST(Sampler, SamplesOnFixedGridAtDispatchBoundaries) {
  MetricsRegistry reg;
  double v = 0.0;
  reg.register_gauge("v", [&v] { return v; });
  Sampler s{reg, sim::Duration::ms(10.0)};

  const auto at = [](double ms) { return sim::TimePoint::zero() + sim::Duration::ms(ms); };
  v = 1.0;
  s.observe(at(0.0));  // first dispatch samples immediately
  v = 2.0;
  s.observe(at(4.0));  // before the next due instant: no sample
  v = 3.0;
  s.observe(at(12.0));  // past 10ms: sample
  v = 4.0;

  const auto& series = s.series();
  ASSERT_EQ(series.samples(), 2u);
  ASSERT_EQ(series.names.size(), 1u);
  EXPECT_EQ(series.names[0], "v");
  EXPECT_DOUBLE_EQ(series.t_ms[0], 0.0);
  EXPECT_DOUBLE_EQ(series.t_ms[1], 12.0);
  EXPECT_DOUBLE_EQ(series.rows[0][0], 1.0);
  EXPECT_DOUBLE_EQ(series.rows[1][0], 3.0);
}

TEST(Sampler, BurstsYieldOneSampleAndGapsNeverCatchUp) {
  MetricsRegistry reg;
  reg.register_gauge("g", [] { return 1.0; });
  Sampler s{reg, sim::Duration::ms(10.0)};
  const auto at = [](double ms) { return sim::TimePoint::zero() + sim::Duration::ms(ms); };

  s.observe(at(0.0));
  // A long quiet gap: the grid advances past `now` in one step — the next
  // observation must not emit a backlog of catch-up samples.
  s.observe(at(95.0));
  s.observe(at(95.0));  // same-instant burst: one sample only
  s.observe(at(96.0));  // still before the next grid point (100ms)
  EXPECT_EQ(s.series().samples(), 2u);

  s.observe(at(100.0));  // on the grid point: due (due instants are inclusive)
  EXPECT_EQ(s.series().samples(), 3u);

  auto taken = s.take_series();
  EXPECT_EQ(taken.samples(), 3u);
  EXPECT_TRUE(s.series().empty());
}

}  // namespace
}  // namespace spms::obs
