#include "obs/flight_recorder.hpp"

#include <string>

#include "obs/json.hpp"

namespace spms::obs {

namespace {

/// Open spans per dump: enough context to see what was in flight without an
/// anomaly inside a large campaign ballooning the file.
constexpr std::size_t kMaxOpenSpansPerDump = 256;

}  // namespace

void FlightRecorder::observe(const TraceRecord& r) {
  if (!is_anomaly(r)) return;
  if (dumps_ >= max_dumps_) {
    ++suppressed_;
    return;
  }
  dump(r);
}

void FlightRecorder::dump(const TraceRecord& trigger) {
  ++dumps_;
  const auto ring = events_.ring_snapshot();

  std::size_t open = 0;
  for (const auto& s : spans_.spans()) {
    if (s.open()) ++open;
  }

  std::string line;
  json::Writer head{line};
  head.begin_object()
      .str("type", "flight-dump")
      .u64("dump", dumps_)
      .d("t_ms", trigger.at.to_ms())
      .str("trigger", trace_kind_name(trigger.kind));
  if (const char* cause = trace_cause_name(trigger.kind, trigger.cause)) head.str("cause", cause);
  if (trigger.node.valid()) head.u64("node", trigger.node.v);
  if (trigger.item.origin.valid()) head.item("item", trigger.item);
  head.u64("ring", ring.size()).u64("open_spans", open).end_object();
  line += '\n';
  out_ << line;

  for (const auto& rec : ring) {
    line.clear();
    json::Writer w{line};
    w.begin_object().str("type", "flight-record").u64("dump", dumps_).key("record");
    append_record_json(rec, w);
    w.end_object();
    line += '\n';
    out_ << line;
  }

  std::size_t written = 0;
  for (const auto& s : spans_.spans()) {
    if (!s.open()) continue;
    if (written >= kMaxOpenSpansPerDump) break;
    ++written;
    line.clear();
    json::Writer{line}
        .begin_object()
        .str("type", "flight-span")
        .u64("dump", dumps_)
        .item("item", s.item)
        .u64("node", s.node.v)
        .d("t_start_ms", s.t_start_ms)
        .u64("requests", s.requests)
        .end_object();
    line += '\n';
    out_ << line;
  }
}

}  // namespace spms::obs
