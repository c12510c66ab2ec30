#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/json.hpp"

namespace spms::obs {

namespace {

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; our registry
/// names use '.' and '-' as separators, which map to '_'.
std::string prom_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out.front() >= '0' && out.front() <= '9')) out.insert(out.begin(), '_');
  return out;
}

/// A sample value in the exposition format, which (unlike JSON) spells the
/// non-finite values: `+Inf`, `-Inf`, `NaN`.
void append_sample_value(std::string& s, double v) {
  if (std::isnan(v)) {
    s += "NaN";
  } else if (std::isinf(v)) {
    s += v > 0 ? "+Inf" : "-Inf";
  } else {
    json::append_double(s, v);
  }
}

}  // namespace

void write_histogram_members(json::Writer& w, const HistogramSnapshot& h) {
  w.str("name", h.name).u64("count", h.count).d("sum", h.sum).d("min", h.min).d("max", h.max);
  w.key("bounds").begin_array();
  for (const double b : h.bounds) w.d(b);
  w.end_array().key("counts").begin_array();
  for (const std::uint64_t c : h.counts) w.u64(c);
  w.end_array();
}

CounterHandle MetricsRegistry::counter(std::string_view name) {
  const auto it = counter_index_.find(std::string{name});
  if (it != counter_index_.end()) return CounterHandle{it->second};
  const auto idx = static_cast<std::uint32_t>(counters_.size());
  counters_.push_back(Counter{std::string{name}, 0});
  counter_index_.emplace(std::string{name}, idx);
  return CounterHandle{idx};
}

void MetricsRegistry::register_gauge(std::string_view name, GaugeFn fn) {
  const auto it = gauge_index_.find(std::string{name});
  if (it != gauge_index_.end()) {
    gauges_[it->second].fn = std::move(fn);
    return;
  }
  const auto idx = static_cast<std::uint32_t>(gauges_.size());
  gauges_.push_back(Gauge{std::string{name}, std::move(fn)});
  gauge_index_.emplace(std::string{name}, idx);
}

HistogramHandle MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds) {
  assert(std::is_sorted(bounds.begin(), bounds.end()));
  const auto it = histogram_index_.find(std::string{name});
  if (it != histogram_index_.end()) return HistogramHandle{it->second};
  const auto idx = static_cast<std::uint32_t>(histograms_.size());
  Histogram h;
  h.name = std::string{name};
  h.counts.assign(bounds.size() + 1, 0);
  h.bounds = std::move(bounds);
  histograms_.push_back(std::move(h));
  histogram_index_.emplace(std::string{name}, idx);
  return HistogramHandle{idx};
}

void MetricsRegistry::observe(HistogramHandle h, double v) {
  if (!h.valid()) return;
  Histogram& hist = histograms_[h.idx];
  // Inclusive upper bounds (v == bound lands in that bound's bucket), the
  // usual le-bucket convention: lower_bound finds the first bound >= v.
  const auto it = std::lower_bound(hist.bounds.begin(), hist.bounds.end(), v);
  ++hist.counts[static_cast<std::size_t>(it - hist.bounds.begin())];
  if (hist.count == 0) {
    hist.min = hist.max = v;
  } else {
    hist.min = std::min(hist.min, v);
    hist.max = std::max(hist.max, v);
  }
  ++hist.count;
  hist.sum += v;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const auto it = counter_index_.find(std::string{name});
  return it == counter_index_.end() ? 0 : counters_[it->second].value;
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const auto it = gauge_index_.find(std::string{name});
  return it == gauge_index_.end() ? 0.0 : gauges_[it->second].fn();
}

std::vector<std::string> MetricsRegistry::gauge_names() const {
  std::vector<std::string> names;
  names.reserve(gauges_.size());
  for (const Gauge& g : gauges_) names.push_back(g.name);
  return names;
}

std::vector<double> MetricsRegistry::sample_gauges() const {
  std::vector<double> out;
  out.reserve(gauges_.size());
  for (const Gauge& g : gauges_) out.push_back(g.fn());
  return out;
}

void MetricsRegistry::visit_counters(
    const std::function<void(std::string_view, std::uint64_t)>& fn) const {
  for (const Counter& c : counters_) fn(c.name, c.value);
}

void MetricsRegistry::visit_gauges(const std::function<void(std::string_view, double)>& fn) const {
  for (const Gauge& g : gauges_) fn(g.name, g.fn());
}

std::vector<HistogramSnapshot> MetricsRegistry::histogram_snapshots() const {
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const Histogram& h : histograms_) {
    out.push_back(HistogramSnapshot{h.name, h.bounds, h.counts, h.count, h.sum, h.min, h.max});
  }
  return out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const Counter& c : counters_) out.counters.emplace_back(c.name, c.value);
  out.histograms = histogram_snapshots();
  return out;
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::string buf;
  for (const Counter& c : counters_) {
    const std::string name = prom_name(c.name);
    buf.clear();
    buf += "# TYPE ";
    buf += name;
    buf += " counter\n";
    buf += name;
    buf += ' ';
    json::append_u64(buf, c.value);
    buf += '\n';
    out << buf;
  }
  for (const Gauge& g : gauges_) {
    const std::string name = prom_name(g.name);
    buf.clear();
    buf += "# TYPE ";
    buf += name;
    buf += " gauge\n";
    buf += name;
    buf += ' ';
    append_sample_value(buf, g.fn());
    buf += '\n';
    out << buf;
  }
  for (const Histogram& h : histograms_) {
    const std::string name = prom_name(h.name);
    buf.clear();
    buf += "# TYPE ";
    buf += name;
    buf += " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      buf += name;
      buf += "_bucket{le=\"";
      if (i < h.bounds.size()) {
        append_sample_value(buf, h.bounds[i]);
      } else {
        buf += "+Inf";
      }
      buf += "\"} ";
      json::append_u64(buf, cumulative);
      buf += '\n';
    }
    buf += name;
    buf += "_sum ";
    append_sample_value(buf, h.sum);
    buf += '\n';
    buf += name;
    buf += "_count ";
    json::append_u64(buf, h.count);
    buf += '\n';
    out << buf;
  }
}

}  // namespace spms::obs
