#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "net/ids.hpp"
#include "obs/event_trace.hpp"
#include "sim/simulation.hpp"

/// \file trace_log.hpp
/// The protocol tests' view of a run's typed trace: every record the
/// simulation emits, counted by field patterns.

namespace spms::core {

/// A pattern over trace records: `kind` must match, and node, peer, via and
/// item must each match where the pattern sets them (an invalid id matches
/// anything).
struct TraceMatch {
  obs::TraceKind kind;
  net::NodeId node{};
  net::NodeId peer{};
  net::NodeId via{};
  net::DataId item{};

  [[nodiscard]] bool operator()(const obs::TraceRecord& r) const {
    const auto is = [](net::NodeId want, net::NodeId got) { return !want.valid() || want == got; };
    return r.kind == kind && is(node, r.node) && is(peer, r.peer) && is(via, r.via) &&
           (!item.origin.valid() || item == r.item);
  }
};

/// Installs itself as `sim`'s trace sink and keeps every record.
class TraceLog {
 public:
  explicit TraceLog(sim::Simulation& sim) {
    sim.events().set_sink([this](const obs::TraceRecord& r) {
      records_.push_back(r);
      if (on_record) on_record(r);
    });
  }
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  [[nodiscard]] std::size_t count(const TraceMatch& m) const {
    return static_cast<std::size_t>(std::count_if(records_.begin(), records_.end(), m));
  }

  /// Called with each record as it is emitted, after it is kept.
  std::function<void(const obs::TraceRecord&)> on_record;

 private:
  std::vector<obs::TraceRecord> records_;
};

}  // namespace spms::core
