#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/ids.hpp"
#include "sim/time.hpp"

/// \file event_trace.hpp
/// Typed event tracing for simulations.
///
/// Every layer emits fixed-size tagged records (publish, delivery, frame
/// drop, fault transition, battery threshold, route change, protocol
/// verbs) instead of formatted strings.  Consumers choose their view:
///
///  * a bounded ring buffer keeps the last N records in memory (post-mortem
///    of long runs without unbounded growth);
///  * a sink streams records (e.g. to a JSONL file).
///
/// When no consumer is installed, enabled() is false and every emit site is
/// a single branch — records are never even constructed.  Emission never
/// touches the scheduler or the RNG, so enabling tracing leaves the event
/// stream byte-identical (the zero-perturbation contract, pinned by the
/// telemetry determinism suite).

namespace spms::obs {

namespace json {
class Writer;
}

/// Discriminator of one trace record.
enum class TraceKind : std::uint8_t {
  // Cross-layer lifecycle records.
  kPublish = 0,           ///< traffic source published an item at `node`
  kDelivery,              ///< protocol delivered `item` to `node`; value = delay ms
  kFrameDrop,             ///< MAC/PHY dropped a frame; cause = DropCause
  kFaultTransition,       ///< node went down / was repaired / died; cause = FaultPhase
  kBatteryThreshold,      ///< residual crossed a bucket; cause = BatteryBucket
  kRouteChange,           ///< DBF rebuild changed `value` entries at `node`
  // Protocol verbs.
  kSpmsAdv,               ///< zone-wide ADV of `item` by `node`
  kSpmsReqDirect,         ///< REQ to `peer` (single hop)
  kSpmsReqMultihop,       ///< REQ to `peer` via `via`
  kSpmsReqCrosszone,      ///< cross-zone REQ to `peer` via `via`
  kSpmsCourierAdv,        ///< courier re-ADV after crossing zones
  kSpmsRelayReq,          ///< relayed REQ for `peer` toward `via`
  kSpmsRelayData,         ///< relayed DATA for `peer`
  kSpmsData,              ///< DATA for `item` sent by `node` (src = `peer`)
  kSpinAdv,
  kSpinReq,               ///< REQ of `item` to `peer`
  kSpinData,              ///< DATA of `item` from `peer`
  kFloodData,             ///< flooding: first copy of `item` reached `node` from `peer`
  kGiveUp,                ///< acquisition abandoned after max retries; value = attempts
};

/// Number of TraceKind values (sized for per-kind lookup tables).
inline constexpr std::size_t kTraceKindCount =
    static_cast<std::size_t>(TraceKind::kGiveUp) + 1;

/// Cause codes for kFrameDrop; mirrors net::NetCounters' dropped_* fields.
enum class DropCause : std::uint8_t {
  kSenderDown = 0,
  kOutOfRange,
  kReceiverDown,
  kLinkFault,
  kBatteryDead,
};

/// Cause codes for kFaultTransition.
enum class FaultPhase : std::uint8_t {
  kDown = 0,
  kRepair,
  kPermanentDeath,
};

/// Cause codes for kBatteryThreshold: the bucket just *entered*.  Ordered so
/// that a node's bucket only ever increases; one record per crossing.
enum class BatteryBucket : std::uint8_t {
  kAbove50 = 0,  ///< initial state, never emitted
  kBelow50,
  kBelow20,
  kBelow10,
  kDepleted,
};

/// One fixed-size trace record.  `cause` is interpreted per kind (DropCause,
/// FaultPhase or BatteryBucket); unused fields stay at their invalid /
/// zero defaults and are omitted from the JSONL rendering.
struct TraceRecord {
  sim::TimePoint at{};
  TraceKind kind = TraceKind::kPublish;
  std::uint8_t cause = 0;
  net::NodeId node{};  ///< primary subject
  net::NodeId peer{};  ///< counterpart (REQ target, DATA source, requester…)
  net::NodeId via{};   ///< relay / next hop where applicable
  /// Causal parent of this record's (item, node) span: the upstream node
  /// whose span the data came from (the answering holder for SPMS — which
  /// may differ from `peer` when relays carried the DATA — the serving
  /// advertiser for SPIN, the rebroadcaster for flooding).  Invalid on
  /// records that carry no causality; SpanTrace links journeys through it.
  net::NodeId parent{};
  net::DataId item{};
  double value = 0.0;  ///< delay ms, residual fraction, changed entries…
};

/// Stable kind name used in the JSONL rendering ("frame-drop", …).
[[nodiscard]] const char* trace_kind_name(TraceKind k);

/// Stable cause name for the record's kind, or nullptr when the kind
/// carries no cause.
[[nodiscard]] const char* trace_cause_name(TraceKind k, std::uint8_t cause);

/// Writes the JSON object rendering of `r` as `w`'s next value: one line of
/// the trace file, or the "record" member of a flight-record line.
void append_record_json(const TraceRecord& r, json::Writer& w);

/// The typed trace hub.  At most one sink and one optional ring buffer;
/// enabled() is true when either exists.
class EventTrace {
 public:
  using Sink = std::function<void(const TraceRecord&)>;

  /// Installs (or clears, with nullptr) the telemetry sink.
  void set_sink(Sink sink) {
    sink_ = std::move(sink);
    refresh_enabled();
  }

  /// Keeps the most recent `capacity` records in memory (0 disables).
  void enable_ring(std::size_t capacity) {
    ring_.clear();
    ring_.reserve(capacity);
    ring_capacity_ = capacity;
    ring_head_ = 0;
    dropped_ = 0;
    refresh_enabled();
  }

  /// True when any consumer is installed; emit sites use this to skip
  /// record construction entirely.
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records `r`: appends to the ring (evicting the oldest when full) and
  /// forwards to the sink.  No-op when nothing is installed.
  void emit(const TraceRecord& r) {
    if (!enabled_) return;
    ++emitted_;
    if (ring_capacity_ > 0) {
      if (ring_.size() < ring_capacity_) {
        ring_.push_back(r);
      } else {
        ring_[ring_head_] = r;
        ring_head_ = (ring_head_ + 1) % ring_capacity_;
        ++dropped_;
      }
    }
    if (sink_) sink_(r);
  }

  /// Records currently retained, oldest first.
  [[nodiscard]] std::vector<TraceRecord> ring_snapshot() const;

  /// Total records emitted while enabled.
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  /// Records evicted from the ring because it was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  void refresh_enabled() {
    enabled_ = static_cast<bool>(sink_) || ring_capacity_ > 0;
  }

  Sink sink_;
  std::vector<TraceRecord> ring_;
  std::size_t ring_capacity_ = 0;
  std::size_t ring_head_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  bool enabled_ = false;
};

}  // namespace spms::obs
