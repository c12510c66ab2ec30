#pragma once

#include <array>
#include <cstddef>
#include <fstream>
#include <memory>
#include <string>

#include "obs/event_trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span_trace.hpp"

/// \file telemetry.hpp
/// Per-run telemetry wiring: one TelemetrySession observes one Scenario.
///
/// The session owns the run's MetricsRegistry, registers the cross-layer
/// gauge catalog (scheduler, net, routing, faults, battery, trace), feeds
/// per-kind counters and the delivery-delay histogram from the typed trace
/// sink, and optionally samples a gauge time series through the scheduler's
/// dispatch hook.  Everything is strictly observational — no events, no
/// cancellations, no RNG draws — so attaching a session leaves the run's
/// event stream (and therefore its serialized result) byte-identical; the
/// telemetry determinism suite pins this.

namespace spms::exp {

class Scenario;
struct RunResult;

/// Per-run telemetry switches.  Everything defaults to off, and the struct
/// lives OUTSIDE ExperimentConfig on purpose: telemetry never influences
/// the simulation, so it must never feed the store's config key either.
struct TelemetryOptions {
  /// Build the metric catalog even when nothing below asks for it (the
  /// catalog is always built when any option is set; this flag alone turns
  /// the session on for callers that only want the final registry values).
  bool metrics = false;

  /// > 0: snapshot every gauge each time the clock passes another multiple
  /// of this interval, observed at event-dispatch boundaries (see
  /// obs::Sampler).  The series lands in RunResult::series.  A non-finite
  /// value, or one that rounds to less than 1 ns, makes TelemetrySession
  /// throw std::invalid_argument.
  double sample_every_ms = 0.0;

  /// > 0: keep the most recent N typed trace records in memory
  /// (EventTrace::ring_snapshot() on the scenario's trace).
  std::size_t trace_ring = 0;

  /// Non-empty: stream every typed trace record to this JSONL file.
  std::string trace_out;

  /// Non-empty: write final counters/gauges/histograms plus the sampled
  /// series to this JSONL file.
  std::string metrics_out;

  /// Format of metrics_out: JSONL (the default) or Prometheus text
  /// exposition.  A format alone does not activate the session.
  enum class MetricsFormat { kJson, kProm };
  MetricsFormat metrics_format = MetricsFormat::kJson;

  /// Assemble causal dissemination spans in memory (obs::SpanTrace); the
  /// result lands in RunResult::spans.  Implied by the three outputs below.
  bool spans = false;

  /// Non-empty: write the assembled spans as queryable JSONL.
  std::string spans_out;

  /// Non-empty: write the assembled spans as Chrome/Perfetto trace-event
  /// JSON (load in ui.perfetto.dev).
  std::string perfetto_out;

  /// Non-empty: attach an obs::FlightRecorder dumping ring + open spans to
  /// this JSONL file on anomalies.  Forces a default ring of 256 records
  /// when trace_ring is 0 (a flight dump with no ring is pointless).
  std::string flight_out;

  [[nodiscard]] bool span_assembly() const {
    return spans || !spans_out.empty() || !perfetto_out.empty() || !flight_out.empty();
  }

  /// True when any single-file output is set.
  [[nodiscard]] bool writes_files() const {
    return !trace_out.empty() || !metrics_out.empty() || !spans_out.empty() ||
           !perfetto_out.empty() || !flight_out.empty();
  }

  [[nodiscard]] bool any() const {
    return metrics || sample_every_ms > 0.0 || trace_ring > 0 || !trace_out.empty() ||
           !metrics_out.empty() || span_assembly();
  }
};

/// Observes one Scenario for one run.  Construct after the Scenario (and
/// before start(), so the first event is seen); call finish() once the run
/// is over.  Inert when options.any() is false.  The scenario must outlive
/// the session.
class TelemetrySession {
 public:
  TelemetrySession(Scenario& scenario, const TelemetryOptions& options);
  ~TelemetrySession();
  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  [[nodiscard]] const obs::MetricsRegistry& registry() const { return registry_; }
  [[nodiscard]] const obs::Sampler* sampler() const { return sampler_.get(); }
  /// The span assembly, or nullptr when span_assembly() was off.
  [[nodiscard]] const obs::SpanTrace* spans() const { return span_trace_.get(); }
  /// The flight recorder, or nullptr when flight_out was empty.
  [[nodiscard]] const obs::FlightRecorder* flight() const { return flight_.get(); }

  /// Moves the sampled series into `result`, writes metrics_out if
  /// requested, and detaches every hook/sink.  Idempotent; the destructor
  /// detaches too, so a session abandoned by an exception never leaves a
  /// dangling hook on the scenario.
  void finish(RunResult& result);

 private:
  void register_catalog();
  void install_sink();
  void detach();
  void write_metrics_file(const RunResult& result);

  Scenario& scenario_;
  TelemetryOptions options_;
  bool active_ = false;
  bool finished_ = false;
  bool detached_ = false;
  obs::MetricsRegistry registry_;
  /// trace.<kind> counter per TraceKind, pre-resolved at construction so
  /// the sink's hot path is two array index operations.
  std::array<obs::CounterHandle, obs::kTraceKindCount> kind_counters_{};
  obs::HistogramHandle delay_hist_;
  std::unique_ptr<obs::Sampler> sampler_;
  /// shared_ptr because finish() hands the assembly to RunResult::spans
  /// without copying it.
  std::shared_ptr<obs::SpanTrace> span_trace_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::ofstream trace_file_;
  std::ofstream flight_file_;
  std::string scratch_;  ///< reused JSONL line buffer
};

}  // namespace spms::exp
