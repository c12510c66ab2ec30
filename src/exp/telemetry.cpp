#include "exp/telemetry.hpp"

#include <cmath>
#include <stdexcept>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/json.hpp"
#include "obs/process_stats.hpp"

namespace spms::exp {

namespace {

const std::vector<double>& delay_bounds() {
  static const std::vector<double> bounds{1.0,   2.0,   5.0,    10.0,   20.0,   50.0,
                                          100.0, 200.0, 500.0,  1000.0, 2000.0, 5000.0};
  return bounds;
}

}  // namespace

TelemetrySession::TelemetrySession(Scenario& scenario, const TelemetryOptions& options)
    : scenario_(scenario), options_(options) {
  // Sampler::observe steps its due instant by the interval until it passes
  // the clock, which an interval that is not finite, rounds to 0 ns or
  // overflows the nanosecond clock never does.
  const double every_ns = options_.sample_every_ms * 1e6;
  if (!std::isfinite(every_ns) || (every_ns > 0.0 && (every_ns < 0.5 || every_ns >= 0x1p63))) {
    throw std::invalid_argument{"TelemetrySession: sample_every_ms must be finite and round "
                                "to at least 1 ns"};
  }
  if (!options_.any()) return;
  active_ = true;

  // A flight dump with no ring would carry no recent past, so an explicit
  // flight_out implies a default-sized ring.
  if (!options_.flight_out.empty() && options_.trace_ring == 0) options_.trace_ring = 256;

  if (options_.trace_ring > 0) {
    scenario_.simulation().events().enable_ring(options_.trace_ring);
  }
  if (!options_.trace_out.empty()) {
    trace_file_.open(options_.trace_out, std::ios::out | std::ios::trunc);
    if (!trace_file_) {
      throw std::runtime_error{"TelemetrySession: cannot open trace file " + options_.trace_out};
    }
  }
  if (options_.span_assembly()) {
    span_trace_ = std::make_shared<obs::SpanTrace>();
  }
  if (!options_.flight_out.empty()) {
    flight_file_.open(options_.flight_out, std::ios::out | std::ios::trunc);
    if (!flight_file_) {
      throw std::runtime_error{"TelemetrySession: cannot open flight file " + options_.flight_out};
    }
    flight_ = std::make_unique<obs::FlightRecorder>(scenario_.simulation().events(), *span_trace_,
                                                    flight_file_);
  }

  register_catalog();
  install_sink();

  if (options_.sample_every_ms > 0.0) {
    sampler_ = std::make_unique<obs::Sampler>(registry_,
                                              sim::Duration::ms(options_.sample_every_ms));
    scenario_.simulation().scheduler().set_dispatch_hook(
        [s = sampler_.get()](sim::TimePoint now) { s->observe(now); });
  }
}

TelemetrySession::~TelemetrySession() { detach(); }

void TelemetrySession::register_catalog() {
  // Pull gauges: each reads a layer's native counter on demand, so the
  // layers pay nothing until a sample or the final export asks.  Lambdas
  // capture raw layer pointers; the scenario outlives the session by
  // contract.
  auto& sched = scenario_.simulation().scheduler();
  registry_.register_gauge("sched.pending", [&sched] {
    return static_cast<double>(sched.pending());
  });
  registry_.register_gauge("sched.events_executed", [&sched] {
    return static_cast<double>(sched.events_executed());
  });
  registry_.register_gauge("sched.events_cancelled", [&sched] {
    return static_cast<double>(sched.events_cancelled());
  });

  auto* nw = &scenario_.network();
  // counters() is a reference to the network's own counters, so each gauge
  // reads its field in place.
  net::visit_counters(nw->counters(), [this](std::string_view name, const std::uint64_t& field) {
    registry_.register_gauge(name, [counter = &field] { return static_cast<double>(*counter); });
  });
  registry_.register_gauge("net.mac_queue_depth_max", [nw] {
    return static_cast<double>(nw->max_mac_queue_depth());
  });
  registry_.register_gauge("net.grid_queries", [nw] {
    return static_cast<double>(nw->grid_queries());
  });
  registry_.register_gauge("energy.protocol_uj", [nw] { return nw->energy().protocol_uj(); });
  registry_.register_gauge("energy.total_uj", [nw] { return nw->energy().total_uj(); });

  auto* col = &scenario_.collector();
  registry_.register_gauge("delivery.published", [col] {
    return static_cast<double>(col->published());
  });
  registry_.register_gauge("delivery.delivered", [col] {
    return static_cast<double>(col->deliveries());
  });
  registry_.register_gauge("delivery.unknown_item", [col] {
    return static_cast<double>(col->unknown_item_deliveries());
  });

  if (auto* routing = scenario_.routing(); routing != nullptr) {
    registry_.register_gauge("routing.dbf_rebuilds", [routing] {
      return static_cast<double>(routing->rebuild_count());
    });
    registry_.register_gauge("routing.route_changes", [routing] {
      return static_cast<double>(routing->route_changes());
    });
    registry_.register_gauge("routing.dbf_messages", [routing] {
      return static_cast<double>(routing->total_stats().messages);
    });
  }

  if (auto* faults = scenario_.faults(); faults != nullptr) {
    registry_.register_gauge("faults.node_downs", [faults] {
      return static_cast<double>(faults->stats().node_downs);
    });
    registry_.register_gauge("faults.node_repairs", [faults] {
      return static_cast<double>(faults->stats().node_repairs);
    });
    registry_.register_gauge("faults.permanent_deaths", [faults] {
      return static_cast<double>(faults->stats().permanent_deaths);
    });
  }

  if (nw->battery_params().finite) {
    registry_.register_gauge("battery.depleted_nodes", [nw] {
      return static_cast<double>(nw->depleted_count());
    });
    registry_.register_gauge("battery.residual_mean_uj", [nw] {
      return nw->battery_summary().residual_mean_uj;
    });
  }

  auto& events = scenario_.simulation().events();
  registry_.register_gauge("trace.emitted", [&events] {
    return static_cast<double>(events.emitted());
  });
  registry_.register_gauge("trace.ring_dropped", [&events] {
    return static_cast<double>(events.dropped());
  });

  // OS-level process view (obs/process_stats.hpp); monotonic over the
  // process, so in a batch it reflects the fattest run so far, not this one.
  registry_.register_gauge("process.peak_rss_bytes", [] {
    return static_cast<double>(obs::peak_rss_bytes());
  });
}

void TelemetrySession::install_sink() {
  for (std::size_t k = 0; k < obs::kTraceKindCount; ++k) {
    std::string name = "trace.";
    name += obs::trace_kind_name(static_cast<obs::TraceKind>(k));
    kind_counters_[k] = registry_.counter(name);
  }
  delay_hist_ = registry_.histogram("delivery.delay_ms", delay_bounds());

  scenario_.simulation().events().set_sink([this](const obs::TraceRecord& r) {
    registry_.add(kind_counters_[static_cast<std::size_t>(r.kind)]);
    if (r.kind == obs::TraceKind::kDelivery && r.value >= 0.0) {
      registry_.observe(delay_hist_, r.value);
    }
    // Span assembly first, recorder second: a dump triggered by this record
    // must see the span set as of this instant (including this record).
    if (span_trace_) span_trace_->consume(r);
    if (flight_) flight_->observe(r);
    if (trace_file_.is_open()) {
      scratch_.clear();
      obs::json::Writer w{scratch_};
      obs::append_record_json(r, w);
      scratch_ += '\n';
      trace_file_.write(scratch_.data(), static_cast<std::streamsize>(scratch_.size()));
    }
  });
}

void TelemetrySession::finish(RunResult& result) {
  if (!active_ || finished_) return;
  finished_ = true;
  if (sampler_) result.series = sampler_->take_series();
  if (options_.metrics) result.metrics = registry_.snapshot();
  if (span_trace_) {
    if (!options_.spans_out.empty()) {
      std::ofstream out{options_.spans_out, std::ios::out | std::ios::trunc};
      if (!out) {
        throw std::runtime_error{"TelemetrySession: cannot open spans file " + options_.spans_out};
      }
      span_trace_->write_jsonl(out);
    }
    if (!options_.perfetto_out.empty()) {
      std::ofstream out{options_.perfetto_out, std::ios::out | std::ios::trunc};
      if (!out) {
        throw std::runtime_error{"TelemetrySession: cannot open perfetto file " +
                                 options_.perfetto_out};
      }
      span_trace_->write_perfetto(out);
    }
    result.spans = span_trace_;
  }
  if (!options_.metrics_out.empty()) write_metrics_file(result);
  detach();
}

void TelemetrySession::detach() {
  if (!active_ || detached_) return;
  detached_ = true;
  scenario_.simulation().scheduler().set_dispatch_hook(nullptr);
  scenario_.simulation().events().set_sink(nullptr);
  // The ring (if any) stays attached so post-run code can still read
  // ring_snapshot() off the scenario.
  if (trace_file_.is_open()) trace_file_.close();
  if (flight_file_.is_open()) flight_file_.close();
}

void TelemetrySession::write_metrics_file(const RunResult& result) {
  std::ofstream out{options_.metrics_out, std::ios::out | std::ios::trunc};
  if (!out) {
    throw std::runtime_error{"TelemetrySession: cannot open metrics file " +
                             options_.metrics_out};
  }

  if (options_.metrics_format == TelemetryOptions::MetricsFormat::kProm) {
    // The exposition format has no series/sample concept; the final state
    // is what a scrape would see.
    registry_.write_prometheus(out);
    return;
  }

  std::string line;
  registry_.visit_counters([&](std::string_view name, std::uint64_t value) {
    line.clear();
    obs::json::Writer{line}
        .begin_object()
        .str("type", "counter")
        .str("name", name)
        .u64("value", value)
        .end_object();
    line += '\n';
    out << line;
  });
  registry_.visit_gauges([&](std::string_view name, double value) {
    line.clear();
    obs::json::Writer{line}
        .begin_object()
        .str("type", "gauge")
        .str("name", name)
        .d("value", value)
        .end_object();
    line += '\n';
    out << line;
  });
  for (const auto& h : registry_.histogram_snapshots()) {
    line.clear();
    obs::json::Writer w{line};
    w.begin_object().str("type", "histogram");
    obs::write_histogram_members(w, h);
    w.end_object();
    line += '\n';
    out << line;
  }

  const auto& series = result.series;
  for (std::size_t s = 0; s < series.samples(); ++s) {
    line.clear();
    obs::json::Writer w{line};
    w.begin_object().str("type", "sample").d("t_ms", series.t_ms[s]).key("values").begin_object();
    for (std::size_t c = 0; c < series.names.size(); ++c) w.d(series.names[c], series.rows[s][c]);
    w.end_object().end_object();
    line += '\n';
    out << line;
  }
}

}  // namespace spms::exp
