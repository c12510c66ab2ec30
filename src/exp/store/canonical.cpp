#include "exp/store/canonical.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <system_error>
#include <type_traits>

#include "obs/json.hpp"

namespace spms::exp::store {

namespace {

// --- minimal JSON scanning ---------------------------------------------------
//
// The store only ever reads what it wrote: flat objects of string / number /
// bool members, plus one record level whose "config" / "result" values are
// such objects.  The scanner below covers exactly that; anything else is a
// parse failure, which the store treats as a corrupt line.

struct Cursor {
  std::string_view s;
  std::size_t pos = 0;

  [[nodiscard]] bool eof() const { return pos >= s.size(); }
  [[nodiscard]] char peek() const { return s[pos]; }
  void skip_ws() {
    while (!eof() && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\r' || s[pos] == '\n')) ++pos;
  }
  bool consume(char c) {
    skip_ws();
    if (eof() || s[pos] != c) return false;
    ++pos;
    return true;
  }
};

/// Parses a JSON string literal at the cursor into its unescaped value.
bool parse_string(Cursor& c, std::string& out) {
  if (!c.consume('"')) return false;
  out.clear();
  while (!c.eof()) {
    const char ch = c.s[c.pos++];
    if (ch == '"') return true;
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.eof()) return false;
    const char esc = c.s[c.pos++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (c.pos + 4 > c.s.size()) return false;
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = c.s[c.pos++];
          v <<= 4;
          if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        if (v > 0xFF) return false;  // the writer only escapes control bytes
        out += static_cast<char>(v);
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

/// Returns the raw text of the next value (string, balanced object, or bare
/// primitive token) without interpreting it.
bool scan_raw_value(Cursor& c, std::string_view& raw) {
  c.skip_ws();
  if (c.eof()) return false;
  const std::size_t start = c.pos;
  if (c.peek() == '"') {
    std::string ignored;
    if (!parse_string(c, ignored)) return false;
  } else if (c.peek() == '{') {
    int depth = 0;
    bool in_string = false;
    while (!c.eof()) {
      const char ch = c.s[c.pos++];
      if (in_string) {
        if (ch == '\\') {
          if (c.eof()) return false;
          ++c.pos;
        } else if (ch == '"') {
          in_string = false;
        }
      } else if (ch == '"') {
        in_string = true;
      } else if (ch == '{') {
        ++depth;
      } else if (ch == '}') {
        if (--depth == 0) break;
      }
    }
    if (depth != 0) return false;
  } else {
    while (!c.eof()) {
      const char ch = c.peek();
      if (ch == ',' || ch == '}' || ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n') break;
      ++c.pos;
    }
    if (c.pos == start) return false;
  }
  raw = c.s.substr(start, c.pos - start);
  return true;
}

/// Walks the members of one object, invoking `member(key, raw_value)`.
/// Returns false on any syntax error.
template <typename Fn>
bool scan_object(std::string_view json, Fn&& member) {
  Cursor c{json};
  if (!c.consume('{')) return false;
  c.skip_ws();
  if (c.consume('}')) {
    c.skip_ws();
    return c.eof();
  }
  for (;;) {
    std::string key;
    if (!parse_string(c, key)) return false;
    if (!c.consume(':')) return false;
    std::string_view raw;
    if (!scan_raw_value(c, raw)) return false;
    if (!member(key, raw)) return false;
    if (c.consume(',')) continue;
    if (!c.consume('}')) return false;
    c.skip_ws();
    return c.eof();
  }
}

bool parse_raw_string(std::string_view raw, std::string& out) {
  Cursor c{raw};
  if (!parse_string(c, out)) return false;
  c.skip_ws();
  return c.eof();
}

bool parse_raw_bool(std::string_view raw, bool& out) {
  if (raw == "true") out = true;
  else if (raw == "false") out = false;
  else return false;
  return true;
}

template <typename Int>
bool parse_raw_int(std::string_view raw, Int& out) {
  const auto res = std::from_chars(raw.data(), raw.data() + raw.size(), out);
  return res.ec == std::errc{} && res.ptr == raw.data() + raw.size();
}

/// The writer spells a non-finite double as null; it reads back as NaN.
bool parse_raw_double(std::string_view raw, double& out) {
  if (raw == "null") {
    out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  const auto res = std::from_chars(raw.data(), raw.data() + raw.size(), out);
  return res.ec == std::errc{} && res.ptr == raw.data() + raw.size();
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 14695981039346656037ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string canonical_config_json(const ExperimentConfig& c) {
  std::string out;
  obs::json::Writer w{out};
  w.begin_object();
  visit_fields(c, [&w](std::string_view key, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, std::string>) {
      w.str(key, v);
    } else if constexpr (std::is_enum_v<T>) {
      w.str(key, to_string(v));
    } else if constexpr (std::is_same_v<T, bool>) {
      w.b(key, v);
    } else if constexpr (std::is_same_v<T, double>) {
      w.d(key, v);
    } else if constexpr (std::is_same_v<T, sim::Duration>) {
      w.i64(key, v.count_nanos());
    } else if constexpr (std::is_signed_v<T>) {
      w.i64(key, v);
    } else {
      w.u64(key, v);
    }
  });
  w.end_object();
  return out;
}

std::string key_for_canonical(std::string_view canonical_config) {
  const std::string salt = "spms-exp-store/v" + std::to_string(kSchemaVersion) + "\n";
  const std::uint64_t h = fnv1a(canonical_config, fnv1a(salt));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return std::string{buf};
}

std::string config_key(const ExperimentConfig& config) {
  return key_for_canonical(canonical_config_json(config));
}

std::string result_to_json(const RunResult& r) {
  std::string out;
  obs::json::Writer w{out};
  w.begin_object();
  w.str("protocol", r.protocol);
  w.str("label", r.label);
  w.u64("nodes", r.nodes);
  w.d("zone_radius_m", r.zone_radius_m);
  w.u64("items_published", r.items_published);
  w.u64("expected_deliveries", r.expected_deliveries);
  w.u64("deliveries", r.deliveries);
  w.d("delivery_ratio", r.delivery_ratio);
  w.d("mean_delay_ms", r.mean_delay_ms);
  w.d("p95_delay_ms", r.p95_delay_ms);
  w.d("max_delay_ms", r.max_delay_ms);
  w.d("energy.protocol_tx_uj", r.energy.protocol_tx_uj);
  w.d("energy.protocol_rx_uj", r.energy.protocol_rx_uj);
  w.d("energy.routing_tx_uj", r.energy.routing_tx_uj);
  w.d("energy.routing_rx_uj", r.energy.routing_rx_uj);
  w.d("energy.idle_uj", r.energy.idle_uj);
  w.d("energy_per_item_uj", r.energy_per_item_uj);
  w.d("protocol_energy_per_item_uj", r.protocol_energy_per_item_uj);
  w.u64("battery.depleted_nodes", r.battery.depleted_nodes);
  w.d("battery.initial_total_uj", r.battery.initial_total_uj);
  w.d("battery.spent_total_uj", r.battery.spent_total_uj);
  w.d("battery.residual_mean_uj", r.battery.residual_mean_uj);
  w.d("battery.residual_stddev_uj", r.battery.residual_stddev_uj);
  w.d("battery.residual_min_uj", r.battery.residual_min_uj);
  w.d("battery.residual_gini", r.battery.residual_gini);
  w.u64("net.tx_adv", r.net_counters.tx_adv);
  w.u64("net.tx_req", r.net_counters.tx_req);
  w.u64("net.tx_data", r.net_counters.tx_data);
  w.u64("net.tx_route", r.net_counters.tx_route);
  w.u64("net.tx_bytes", r.net_counters.tx_bytes);
  w.u64("net.deliveries", r.net_counters.deliveries);
  w.u64("net.dropped_sender_down", r.net_counters.dropped_sender_down);
  w.u64("net.dropped_out_of_range", r.net_counters.dropped_out_of_range);
  w.u64("net.dropped_receiver_down", r.net_counters.dropped_receiver_down);
  w.u64("net.dropped_link_fault", r.net_counters.dropped_link_fault);
  w.u64("net.dropped_battery_dead", r.net_counters.dropped_battery_dead);
  w.u64("dbf.rounds", r.dbf_total.rounds);
  w.u64("dbf.messages", r.dbf_total.messages);
  w.u64("dbf.message_bytes", r.dbf_total.message_bytes);
  w.d("dbf.energy_uj", r.dbf_total.energy_uj);
  w.b("dbf.converged", r.dbf_total.converged);
  w.u64("faults.events", r.fault_stats.fault_events);
  w.u64("faults.node_downs", r.fault_stats.node_downs);
  w.u64("faults.node_repairs", r.fault_stats.node_repairs);
  w.u64("faults.permanent_deaths", r.fault_stats.permanent_deaths);
  w.u64("faults.max_concurrent_down", r.fault_stats.max_concurrent_down);
  w.d("faults.total_downtime_ms", r.fault_stats.total_downtime_ms);
  w.d("faults.outage_time_ms", r.fault_stats.outage_time_ms);
  w.u64("faults.outage_deliveries", r.fault_stats.deliveries_during_outage);
  w.u64("faults.recoveries_sampled", r.fault_stats.recoveries_sampled);
  w.d("faults.mean_recovery_latency_ms", r.fault_stats.mean_recovery_latency_ms);
  w.u64("faults.repairs_unrecovered", r.fault_stats.repairs_unrecovered);
  w.d("faults.time_to_first_death_ms", r.fault_stats.time_to_first_death_ms);
  w.d("faults.time_to_10pct_dead_ms", r.fault_stats.time_to_10pct_dead_ms);
  w.d("faults.half_life_ms", r.fault_stats.half_life_ms);
  w.u64("failures_injected", r.failures_injected);
  w.u64("mobility_epochs", r.mobility_epochs);
  w.u64("given_up", r.given_up);
  w.u64("unknown_item_deliveries", r.unknown_item_deliveries);
  w.d("sim_time_ms", r.sim_time_ms);
  w.u64("events_executed", r.events_executed);
  w.b("event_limit_hit", r.event_limit_hit);
  w.end_object();
  return out;
}

std::optional<RunResult> result_from_json(std::string_view json) {
  RunResult r;
  const bool ok = scan_object(json, [&](const std::string& key, std::string_view raw) {
    if (key == "protocol") return parse_raw_string(raw, r.protocol);
    if (key == "label") return parse_raw_string(raw, r.label);
    if (key == "nodes") return parse_raw_int(raw, r.nodes);
    if (key == "zone_radius_m") return parse_raw_double(raw, r.zone_radius_m);
    if (key == "items_published") return parse_raw_int(raw, r.items_published);
    if (key == "expected_deliveries") return parse_raw_int(raw, r.expected_deliveries);
    if (key == "deliveries") return parse_raw_int(raw, r.deliveries);
    if (key == "delivery_ratio") return parse_raw_double(raw, r.delivery_ratio);
    if (key == "mean_delay_ms") return parse_raw_double(raw, r.mean_delay_ms);
    if (key == "p95_delay_ms") return parse_raw_double(raw, r.p95_delay_ms);
    if (key == "max_delay_ms") return parse_raw_double(raw, r.max_delay_ms);
    if (key == "energy.protocol_tx_uj") return parse_raw_double(raw, r.energy.protocol_tx_uj);
    if (key == "energy.protocol_rx_uj") return parse_raw_double(raw, r.energy.protocol_rx_uj);
    if (key == "energy.routing_tx_uj") return parse_raw_double(raw, r.energy.routing_tx_uj);
    if (key == "energy.routing_rx_uj") return parse_raw_double(raw, r.energy.routing_rx_uj);
    if (key == "energy.idle_uj") return parse_raw_double(raw, r.energy.idle_uj);
    if (key == "energy_per_item_uj") return parse_raw_double(raw, r.energy_per_item_uj);
    if (key == "protocol_energy_per_item_uj")
      return parse_raw_double(raw, r.protocol_energy_per_item_uj);
    if (key == "battery.depleted_nodes") return parse_raw_int(raw, r.battery.depleted_nodes);
    if (key == "battery.initial_total_uj")
      return parse_raw_double(raw, r.battery.initial_total_uj);
    if (key == "battery.spent_total_uj") return parse_raw_double(raw, r.battery.spent_total_uj);
    if (key == "battery.residual_mean_uj")
      return parse_raw_double(raw, r.battery.residual_mean_uj);
    if (key == "battery.residual_stddev_uj")
      return parse_raw_double(raw, r.battery.residual_stddev_uj);
    if (key == "battery.residual_min_uj")
      return parse_raw_double(raw, r.battery.residual_min_uj);
    if (key == "battery.residual_gini") return parse_raw_double(raw, r.battery.residual_gini);
    if (key == "net.tx_adv") return parse_raw_int(raw, r.net_counters.tx_adv);
    if (key == "net.tx_req") return parse_raw_int(raw, r.net_counters.tx_req);
    if (key == "net.tx_data") return parse_raw_int(raw, r.net_counters.tx_data);
    if (key == "net.tx_route") return parse_raw_int(raw, r.net_counters.tx_route);
    if (key == "net.tx_bytes") return parse_raw_int(raw, r.net_counters.tx_bytes);
    if (key == "net.deliveries") return parse_raw_int(raw, r.net_counters.deliveries);
    if (key == "net.dropped_sender_down")
      return parse_raw_int(raw, r.net_counters.dropped_sender_down);
    if (key == "net.dropped_out_of_range")
      return parse_raw_int(raw, r.net_counters.dropped_out_of_range);
    if (key == "net.dropped_receiver_down")
      return parse_raw_int(raw, r.net_counters.dropped_receiver_down);
    if (key == "net.dropped_link_fault")
      return parse_raw_int(raw, r.net_counters.dropped_link_fault);
    if (key == "net.dropped_battery_dead")
      return parse_raw_int(raw, r.net_counters.dropped_battery_dead);
    if (key == "dbf.rounds") return parse_raw_int(raw, r.dbf_total.rounds);
    if (key == "dbf.messages") return parse_raw_int(raw, r.dbf_total.messages);
    if (key == "dbf.message_bytes") return parse_raw_int(raw, r.dbf_total.message_bytes);
    if (key == "dbf.energy_uj") return parse_raw_double(raw, r.dbf_total.energy_uj);
    if (key == "dbf.converged") return parse_raw_bool(raw, r.dbf_total.converged);
    if (key == "faults.events") return parse_raw_int(raw, r.fault_stats.fault_events);
    if (key == "faults.node_downs") return parse_raw_int(raw, r.fault_stats.node_downs);
    if (key == "faults.node_repairs") return parse_raw_int(raw, r.fault_stats.node_repairs);
    if (key == "faults.permanent_deaths")
      return parse_raw_int(raw, r.fault_stats.permanent_deaths);
    if (key == "faults.max_concurrent_down")
      return parse_raw_int(raw, r.fault_stats.max_concurrent_down);
    if (key == "faults.total_downtime_ms")
      return parse_raw_double(raw, r.fault_stats.total_downtime_ms);
    if (key == "faults.outage_time_ms")
      return parse_raw_double(raw, r.fault_stats.outage_time_ms);
    if (key == "faults.outage_deliveries")
      return parse_raw_int(raw, r.fault_stats.deliveries_during_outage);
    if (key == "faults.recoveries_sampled")
      return parse_raw_int(raw, r.fault_stats.recoveries_sampled);
    if (key == "faults.mean_recovery_latency_ms")
      return parse_raw_double(raw, r.fault_stats.mean_recovery_latency_ms);
    if (key == "faults.repairs_unrecovered")
      return parse_raw_int(raw, r.fault_stats.repairs_unrecovered);
    if (key == "faults.time_to_first_death_ms")
      return parse_raw_double(raw, r.fault_stats.time_to_first_death_ms);
    if (key == "faults.time_to_10pct_dead_ms")
      return parse_raw_double(raw, r.fault_stats.time_to_10pct_dead_ms);
    if (key == "faults.half_life_ms")
      return parse_raw_double(raw, r.fault_stats.half_life_ms);
    if (key == "failures_injected") return parse_raw_int(raw, r.failures_injected);
    if (key == "mobility_epochs") return parse_raw_int(raw, r.mobility_epochs);
    if (key == "given_up") return parse_raw_int(raw, r.given_up);
    if (key == "unknown_item_deliveries")
      return parse_raw_int(raw, r.unknown_item_deliveries);
    if (key == "sim_time_ms") return parse_raw_double(raw, r.sim_time_ms);
    if (key == "events_executed") return parse_raw_int(raw, r.events_executed);
    if (key == "event_limit_hit") return parse_raw_bool(raw, r.event_limit_hit);
    return true;  // unknown member: tolerated (forward compatibility)
  });
  if (!ok) return std::nullopt;
  return r;
}

std::optional<RawRecord> parse_record_line(std::string_view line) {
  RawRecord rec;
  bool have_schema = false, have_key = false, have_config = false, have_result = false;
  const bool ok = scan_object(line, [&](const std::string& key, std::string_view raw) {
    if (key == "schema") {
      have_schema = true;
      return parse_raw_int(raw, rec.schema);
    }
    if (key == "key") {
      have_key = true;
      return parse_raw_string(raw, rec.key);
    }
    if (key == "config") {
      have_config = true;
      if (raw.empty() || raw.front() != '{') return false;
      rec.config_json.assign(raw);
      return true;
    }
    if (key == "result") {
      have_result = true;
      if (raw.empty() || raw.front() != '{') return false;
      rec.result_json.assign(raw);
      return true;
    }
    return true;
  });
  if (!ok || !have_schema || !have_key || !have_config || !have_result) return std::nullopt;
  return rec;
}

std::string make_record_line(std::string_view key, std::string_view canonical_config,
                             std::string_view result_json) {
  std::string line;
  obs::json::Writer{line}
      .begin_object()
      .i64("schema", kSchemaVersion)
      .str("key", key)
      .raw("config", canonical_config)
      .raw("result", result_json)
      .end_object();
  return line;
}

}  // namespace spms::exp::store
