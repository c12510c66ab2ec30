#include "obs/span_trace.hpp"

#include <algorithm>
#include <string>

#include "obs/json.hpp"

namespace spms::obs {

Span& SpanTrace::span_of(net::DataId item, net::NodeId node) {
  const auto [it, fresh] = index_.try_emplace(Key{item, node}, spans_.size());
  if (fresh) {
    auto& s = spans_.emplace_back();
    s.item = item;
    s.node = node;
  }
  return spans_[it->second];
}

void SpanTrace::consume(const TraceRecord& r) {
  ++records_seen_;
  const double t = r.at.to_ms();
  switch (r.kind) {
    case TraceKind::kPublish: {
      Span& s = span_of(r.item, r.node);
      s.root = true;
      s.has_data = true;
      if (s.t_start_ms < 0.0) s.t_start_ms = t;
      if (s.t_data_ms < 0.0) s.t_data_ms = t;
      break;
    }
    case TraceKind::kSpmsReqDirect:
    case TraceKind::kSpmsReqMultihop:
    case TraceKind::kSpmsReqCrosszone:
    case TraceKind::kSpinReq: {
      Span& s = span_of(r.item, r.node);
      ++s.requests;
      if (s.t_start_ms < 0.0) s.t_start_ms = t;
      if (s.t_first_req_ms < 0.0) s.t_first_req_ms = t;
      break;
    }
    case TraceKind::kSpmsData:
    case TraceKind::kSpinData:
    case TraceKind::kFloodData: {
      Span& s = span_of(r.item, r.node);
      if (s.t_start_ms < 0.0) s.t_start_ms = t;
      if (!s.has_data) {
        s.has_data = true;
        s.t_data_ms = t;
        s.parent = r.parent.valid() ? r.parent : r.peer;
        s.data_src = r.peer;
      }
      break;
    }
    case TraceKind::kDelivery: {
      Span& s = span_of(r.item, r.node);
      if (s.t_start_ms < 0.0) s.t_start_ms = t;
      if (s.t_data_ms < 0.0) s.t_data_ms = t;
      s.has_data = true;
      s.delivered = true;
      s.delay_ms = r.value;
      break;
    }
    case TraceKind::kGiveUp: {
      Span& s = span_of(r.item, r.node);
      if (s.t_start_ms < 0.0) s.t_start_ms = t;
      s.gave_up = true;
      break;
    }
    case TraceKind::kSpmsRelayReq:
      ++relay_[r.node].req_frames;
      break;
    case TraceKind::kSpmsRelayData:
      ++relay_[r.node].data_frames;
      break;
    default:
      break;  // no span content (ADVs, drops, faults, battery, routing…)
  }
}

const Span* SpanTrace::find(net::DataId item, net::NodeId node) const {
  const auto it = index_.find(Key{item, node});
  return it == index_.end() ? nullptr : &spans_[it->second];
}

const Span* SpanTrace::parent_of(const Span& s) const {
  if (!s.parent.valid()) return nullptr;
  return find(s.item, s.parent);
}

int SpanTrace::depth_of(const Span& s) const {
  int depth = 0;
  const Span* cur = &s;
  // The chain length is bounded by the span count; anything longer is a
  // cycle (a corrupt stream) and reads as broken rather than looping.
  for (std::size_t guard = 0; guard <= spans_.size(); ++guard) {
    if (cur->root) return depth;
    const Span* up = parent_of(*cur);
    if (up == nullptr) return -1;
    cur = up;
    ++depth;
  }
  return -1;
}

JourneyStats SpanTrace::journey_stats() const {
  JourneyStats js;
  js.spans = spans_.size();
  for (const auto& s : spans_) {
    if (!s.delivered) continue;
    ++js.delivered;
    const int d = depth_of(s);
    if (d >= 0) {
      ++js.complete;
      js.max_depth = std::max(js.max_depth, static_cast<std::size_t>(d));
    } else {
      ++js.orphaned;
    }
  }
  return js;
}

std::vector<std::pair<net::NodeId, RelayLoad>> SpanTrace::relay_loads() const {
  std::vector<std::pair<net::NodeId, RelayLoad>> out(relay_.begin(), relay_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first.v < b.first.v; });
  return out;
}

void SpanTrace::write_jsonl(std::ostream& out) const {
  std::string line;
  for (const auto& s : spans_) {
    line.clear();
    json::Writer w{line};
    w.begin_object().str("type", "span").item("item", s.item).u64("node", s.node.v);
    if (s.parent.valid()) w.u64("parent", s.parent.v);
    if (s.data_src.valid() && s.data_src != s.parent) w.u64("data_src", s.data_src.v);
    w.d("t_start_ms", s.t_start_ms);
    if (s.t_first_req_ms >= 0.0) w.d("t_first_req_ms", s.t_first_req_ms);
    if (s.t_data_ms >= 0.0) w.d("t_data_ms", s.t_data_ms);
    if (s.delivered) w.d("delay_ms", s.delay_ms);
    w.u64("requests", s.requests);
    const int depth = depth_of(s);
    if (depth >= 0) w.u64("depth", static_cast<std::uint64_t>(depth));
    if (s.root) w.u64("root", 1);
    if (s.delivered) w.u64("delivered", 1);
    if (s.gave_up) w.u64("gave_up", 1);
    w.end_object();
    line += '\n';
    out << line;
  }
  const JourneyStats js = journey_stats();
  line.clear();
  json::Writer{line}
      .begin_object()
      .str("type", "span-summary")
      .u64("spans", js.spans)
      .u64("delivered", js.delivered)
      .u64("complete", js.complete)
      .u64("orphaned", js.orphaned)
      .u64("max_depth", js.max_depth)
      .u64("records_seen", records_seen_)
      .end_object();
  line += '\n';
  out << line;
}

void SpanTrace::write_perfetto(std::ostream& out) const {
  // Chrome trace-event format: timestamps in microseconds.  Each item maps
  // to one pid (its first-seen index) so the UI groups a journey's slices;
  // tid is the node.  Flow events draw the parent->child causality arrows.
  // One event per line inside the traceEvents array.
  std::string line;
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&] {
    out << (first ? "\n" : ",\n") << line;
    first = false;
  };

  std::unordered_map<net::DataId, std::size_t> item_pid;
  const auto pid_of = [&](net::DataId item) {
    return item_pid.try_emplace(item, item_pid.size()).first->second;
  };

  std::string name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t_start_ms < 0.0) continue;
    const double end_ms = s.t_data_ms >= 0.0 ? s.t_data_ms : s.t_start_ms;
    name.clear();
    net::append_item(name, s.item);
    name += '@';
    net::append_node(name, s.node);
    line.clear();
    json::Writer w{line};
    w.begin_object()
        .str("name", name)
        .str("cat", "span")
        .str("ph", "X")
        .d("ts", s.t_start_ms * 1000.0)
        .d("dur", (end_ms - s.t_start_ms) * 1000.0)
        .u64("pid", pid_of(s.item))
        .u64("tid", s.node.v)
        .key("args")
        .begin_object()
        .u64("requests", s.requests);
    if (s.parent.valid()) w.u64("parent", s.parent.v);
    if (s.delivered) w.d("delay_ms", s.delay_ms);
    if (s.root) w.u64("root", 1);
    w.end_object().end_object();
    emit();

    // Flow arrow from the parent's completion to this span's completion.
    const Span* up = parent_of(s);
    if (up == nullptr || up->t_data_ms < 0.0 || s.t_data_ms < 0.0) continue;
    const std::uint64_t flow_id = static_cast<std::uint64_t>(i) + 1;
    line.clear();
    json::Writer{line}
        .begin_object()
        .str("name", "hop")
        .str("cat", "hop")
        .str("ph", "s")
        .u64("id", flow_id)
        .d("ts", up->t_data_ms * 1000.0)
        .u64("pid", pid_of(s.item))
        .u64("tid", up->node.v)
        .end_object();
    emit();
    line.clear();
    json::Writer{line}
        .begin_object()
        .str("name", "hop")
        .str("cat", "hop")
        .str("ph", "f")
        .str("bp", "e")
        .u64("id", flow_id)
        .d("ts", s.t_data_ms * 1000.0)
        .u64("pid", pid_of(s.item))
        .u64("tid", s.node.v)
        .end_object();
    emit();
  }
  out << "\n]}\n";
}

}  // namespace spms::obs
