#include "exp/store/canonical.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <system_error>
#include <type_traits>
#include <vector>

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

template <typename Number>
bool parse_raw_number(std::string_view raw, Number& out) {
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

/// The one typed field writer: writes one field of visit_fields or
/// visit_result_fields under its store key.  Enums go by name, durations as
/// integer nanoseconds.
struct FieldWriter {
  obs::json::Writer& w;

  template <class T>
  void operator()(std::string_view key, const T& v) const {
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
  }
};

/// Parses one raw member value into a result field of its type.
template <class T>
bool read_field(std::string_view raw, T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return parse_raw_string(raw, v);
  } else if constexpr (std::is_same_v<T, bool>) {
    v = raw == "true";
    return v || raw == "false";
  } else if constexpr (std::is_same_v<T, double>) {
    if (raw == "null") {  // the writer's spelling of a non-finite double
      v = std::numeric_limits<double>::quiet_NaN();
      return true;
    }
    return parse_raw_number(raw, v);
  } else {
    return parse_raw_number(raw, v);
  }
}

}  // namespace

std::string canonical_config_json(const ExperimentConfig& c) {
  std::string out;
  obs::json::Writer w{out};
  w.begin_object();
  visit_fields(c, FieldWriter{w});
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
  visit_result_fields(r, FieldWriter{w});
  w.end_object();
  return out;
}

std::optional<RunResult> result_from_json(std::string_view json) {
  // The stored keys in list order.  A line result_to_json wrote holds them
  // in this order, so each member is checked against the key after the one
  // before it, and the list is searched only when that check fails.
  static const std::vector<std::string_view> keys = [] {
    std::vector<std::string_view> k;
    const RunResult defaults;
    visit_result_fields(defaults, [&k](std::string_view key, const auto&) { k.push_back(key); });
    return k;
  }();
  std::vector<std::string_view> raw_of(keys.size());  // member value per field; empty = absent
  std::size_t next = 0;
  const bool syntax_ok = scan_object(json, [&](const std::string& key, std::string_view raw) {
    std::size_t i = next;
    if (i >= keys.size() || keys[i] != key) {
      i = static_cast<std::size_t>(std::find(keys.begin(), keys.end(), key) - keys.begin());
      if (i == keys.size()) return true;  // unknown member: tolerated (forward compatibility)
    }
    raw_of[i] = raw;
    next = i + 1;
    return true;
  });
  if (!syntax_ok) return std::nullopt;

  RunResult r;
  bool ok = true;
  std::size_t i = 0;
  visit_result_fields(r, [&](std::string_view, auto& field) {
    const std::string_view raw = raw_of[i++];
    if (!raw.empty() && !read_field(raw, field)) ok = false;
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
      return parse_raw_number(raw, rec.schema);
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
