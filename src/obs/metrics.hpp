#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file metrics.hpp
/// Named metrics with O(1) hot-path updates.
///
/// Three instrument families:
///
///  * counters — monotonically increasing u64s, updated through a
///    pre-resolved CounterHandle (a plain index; no string lookup after
///    registration);
///  * gauges — pull-style: a named callback sampled only at observation
///    points (the Sampler's dispatch hook or the final export), so the
///    layers keep their native counters as the single source of truth and
///    the hot path pays nothing;
///  * histograms — fixed bucket bounds resolved at registration, updated
///    through a HistogramHandle (one upper_bound over a handful of doubles).
///
/// A registry is per-run plumbing, not a global: TelemetrySession owns one
/// and the layers register against it when (and only when) telemetry is on.

namespace spms::obs {

namespace json {
class Writer;
}

/// Pre-resolved counter index.  Default-constructed handles are invalid and
/// add() through them is a checked no-op, so emit sites can keep handles
/// unconditionally and only registration is gated on telemetry.
struct CounterHandle {
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t idx = kInvalid;
  [[nodiscard]] constexpr bool valid() const { return idx != kInvalid; }
};

/// Pre-resolved histogram index.
struct HistogramHandle {
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t idx = kInvalid;
  [[nodiscard]] constexpr bool valid() const { return idx != kInvalid; }
};

/// Snapshot of one histogram for export.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;        ///< upper bounds, ascending; +inf implied last
  std::vector<std::uint64_t> counts; ///< bounds.size() + 1 buckets
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Writes `h`'s members — name, count, sum, min, max, bounds, counts — into
/// the object `w` has open: the one spelling of a histogram that the metrics
/// file and the rollup sidecar share.
void write_histogram_members(json::Writer& w, const HistogramSnapshot& h);

/// Detached copy of a registry's counters and histograms — what a RunResult
/// can carry after the registry (and the run that owned it) is gone.  Gauges
/// are deliberately absent: they are views into live simulation state and
/// die with it.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< registration order
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] bool empty() const { return counters.empty() && histograms.empty(); }

  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const {
    for (const auto& [n, v] : counters) {
      if (n == name) return v;
    }
    return 0;
  }
};

/// The per-run metrics registry.
class MetricsRegistry {
 public:
  using GaugeFn = std::function<double()>;

  /// Registers (or finds) a counter and returns its handle.
  CounterHandle counter(std::string_view name);

  /// O(1) hot-path add; invalid handles are ignored.
  void add(CounterHandle h, std::uint64_t delta = 1) {
    if (h.valid()) counters_[h.idx].value += delta;
  }

  /// Registers a pull gauge; re-registering a name replaces its callback.
  void register_gauge(std::string_view name, GaugeFn fn);

  /// Registers (or finds) a histogram with the given ascending upper
  /// bounds; a final +inf bucket is implicit.
  HistogramHandle histogram(std::string_view name, std::vector<double> bounds);

  /// Records one observation; invalid handles are ignored.
  void observe(HistogramHandle h, double v);

  /// Looks up a counter's current value (0 when unregistered) — test /
  /// export convenience, not the hot path.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  /// Evaluates a gauge by name; 0 when unregistered.
  [[nodiscard]] double gauge_value(std::string_view name) const;

  /// Gauge names in registration order (the Sampler's column order).
  [[nodiscard]] std::vector<std::string> gauge_names() const;

  /// Evaluates every gauge in registration order.
  [[nodiscard]] std::vector<double> sample_gauges() const;

  /// Export iteration, registration order.
  void visit_counters(const std::function<void(std::string_view, std::uint64_t)>& fn) const;
  void visit_gauges(const std::function<void(std::string_view, double)>& fn) const;
  [[nodiscard]] std::vector<HistogramSnapshot> histogram_snapshots() const;

  /// Detached counters + histograms (see MetricsSnapshot).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus text exposition (version 0.0.4): counters and evaluated
  /// gauges as single samples, histograms as the le-bucket family
  /// (`_bucket`/`_sum`/`_count`).  Metric names are sanitized to the
  /// [a-zA-Z0-9_] charset ('.' and '-' become '_').
  void write_prometheus(std::ostream& out) const;

  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] std::size_t gauge_count() const { return gauges_.size(); }

 private:
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };
  struct Gauge {
    std::string name;
    GaugeFn fn;
  };
  struct Histogram {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  std::vector<Counter> counters_;
  std::vector<Gauge> gauges_;
  std::vector<Histogram> histograms_;
  std::unordered_map<std::string, std::uint32_t> counter_index_;
  std::unordered_map<std::string, std::uint32_t> gauge_index_;
  std::unordered_map<std::string, std::uint32_t> histogram_index_;
};

}  // namespace spms::obs
