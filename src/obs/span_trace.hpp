#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "net/ids.hpp"
#include "obs/event_trace.hpp"

/// \file span_trace.hpp
/// Causal dissemination spans assembled from the typed event trace.
///
/// One span models the lifecycle of one (item, node) pair: the node's
/// acquisition of the item from first request (or publish, at the origin) to
/// delivery, with a causal parent pointing at the upstream node the data
/// came from.  Because every protocol stamps the serving holder into
/// TraceRecord::parent, chaining parents walks a delivered item's complete
/// journey back to its publish — which is what per-hop latency breakdowns
/// and relay energy attribution need and flat counters cannot give.
///
/// Assembly is a pure fold over TraceRecords: consume() never touches the
/// simulation, so feeding a SpanTrace from the EventTrace sink keeps the
/// zero-perturbation contract (byte-identical results with spans on or off).

namespace spms::obs {

/// One (item, node) lifecycle.  Times are -1 until the phase is observed.
struct Span {
  net::DataId item;
  net::NodeId node;
  /// Upstream holder this node's copy came from; invalid for the origin's
  /// root span (and for spans whose data record was never observed).
  net::NodeId parent;
  /// Immediate transmitter of the DATA frame (== parent except when SPMS
  /// relays carried it); invalid until the data record is observed.
  net::NodeId data_src;
  double t_start_ms = -1.0;      ///< first evidence (publish / first REQ / data)
  double t_first_req_ms = -1.0;  ///< first REQ this node sent for the item
  double t_data_ms = -1.0;       ///< DATA (or publish, at the origin) observed
  double delay_ms = -1.0;        ///< collector delay at delivery (kDelivery value)
  std::uint32_t requests = 0;    ///< REQ frames sent (all escalation rungs)
  bool root = false;             ///< origin publish span
  bool has_data = false;         ///< item acquired (delivery or relay-cache)
  bool delivered = false;        ///< kDelivery observed (an interested node)
  bool gave_up = false;          ///< acquisition abandoned (kGiveUp)

  /// Open = an acquisition that started but neither completed nor gave up —
  /// what the flight recorder dumps on an anomaly.
  [[nodiscard]] bool open() const { return !has_data && !gave_up; }
};

/// Relay work tallied per node from the SPMS relay verbs.
struct RelayLoad {
  std::uint64_t req_frames = 0;   ///< REQs forwarded toward a holder
  std::uint64_t data_frames = 0;  ///< DATA frames carried back
};

/// Journey reconstruction census over the delivered spans.
struct JourneyStats {
  std::size_t spans = 0;       ///< spans assembled in total
  std::size_t delivered = 0;   ///< spans with a kDelivery record
  std::size_t complete = 0;    ///< delivered spans whose parent chain reaches a root
  std::size_t orphaned = 0;    ///< delivered spans with a broken chain (parent never seen)
  std::size_t max_depth = 0;   ///< longest complete chain (hops from the origin)

  [[nodiscard]] double completeness() const {
    return delivered == 0 ? 1.0 : static_cast<double>(complete) / static_cast<double>(delivered);
  }
};

/// Assembles spans from trace records.  Feed every record in emission order
/// (the EventTrace sink does); query or export after the run.
class SpanTrace {
 public:
  /// Folds one record into the span set.  O(1) amortized.
  void consume(const TraceRecord& r);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t records_seen() const { return records_seen_; }

  /// The span of (item, node), or nullptr when none was assembled.
  [[nodiscard]] const Span* find(net::DataId item, net::NodeId node) const;

  /// Hops from the origin's root span (root = 0), or -1 when the parent
  /// chain is broken — a span on it names no parent, or a parent whose span
  /// the fed records never opened (a partial stream).
  [[nodiscard]] int depth_of(const Span& s) const;

  [[nodiscard]] JourneyStats journey_stats() const;

  /// Per-node relay work (SPMS relay verbs), ascending node id.
  [[nodiscard]] std::vector<std::pair<net::NodeId, RelayLoad>> relay_loads() const;

  /// Queryable JSONL: one {"type":"span",...} line per span plus a final
  /// {"type":"span-summary",...} line carrying the journey census and the
  /// count of records consumed.
  void write_jsonl(std::ostream& out) const;

  /// Chrome/Perfetto trace-event JSON: one complete ("X") slice per span
  /// (pid = item, tid = node) and a flow arrow ("s"/"f") per resolved
  /// parent link, so a journey reads as a chain of slices across node
  /// tracks in the Perfetto UI.
  void write_perfetto(std::ostream& out) const;

 private:
  struct Key {
    net::DataId item;
    net::NodeId node;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      const std::size_t h = std::hash<net::DataId>{}(k.item);
      return h ^ (std::hash<net::NodeId>{}(k.node) + 0x9e3779b97f4a7c15ull + (h << 6));
    }
  };

  Span& span_of(net::DataId item, net::NodeId node);
  [[nodiscard]] const Span* parent_of(const Span& s) const;

  std::vector<Span> spans_;  ///< creation order (deterministic given the stream)
  std::unordered_map<Key, std::size_t, KeyHash> index_;
  std::unordered_map<net::NodeId, RelayLoad> relay_;
  std::uint64_t records_seen_ = 0;
};

}  // namespace spms::obs
