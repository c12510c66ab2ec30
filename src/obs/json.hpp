#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/ids.hpp"

/// \file json.hpp
/// The one JSON writer.  Every JSON file the simulator writes — store
/// records, trace, span, Perfetto, flight, metrics and rollup files — is
/// spelled here, and Table::print_json escapes its cells here.
///
/// Spelling rules:
///  * strings: `"` and `\` are backslash-escaped, newline, carriage return
///    and tab use `\n` `\r` `\t`, every other byte below 0x20 is `\u00xx`
///    (lower-case hex); all other bytes, UTF-8 included, pass through;
///  * integers: plain decimal;
///  * finite doubles: the shortest form that reads back bit-exactly
///    (std::to_chars), e.g. `2`, `0.1`, `1e-308`;
///  * non-finite doubles (NaN, +-inf) are `null`: JSON has no spelling for
///    them, and null says "no number" instead of fabricating one (the rule
///    of stats/percentiles.hpp).  The store reads null back as NaN;
///  * item ids: the string `n<origin>#<seq>` (net::append_item);
///  * layout: compact, with no whitespace; ',' between members and between
///    elements.
///
/// The writer appends to a std::string the caller owns, so a caller that
/// writes many lines keeps reusing one buffer.

namespace spms::obs::json {

/// Appends `s` as a quoted, escaped JSON string.
void append_string(std::string& out, std::string_view s);
/// Appends `v` per the number rules above (null when not finite).
void append_double(std::string& out, double v);
void append_u64(std::string& out, std::uint64_t v);
void append_i64(std::string& out, std::int64_t v);

/// Writes one JSON value (usually an object) into `out`, placing the commas
/// and braces.  Inside an object, call key() or a two-argument member
/// writer; inside an array, the one-argument value writers.  The writer
/// checks nothing: the caller closes what it opens.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  /// Starts the member `k`; the next value written is its value.
  Writer& key(std::string_view k) {
    str(k);
    out_ += ':';
    need_comma_ = false;
    return *this;
  }

  Writer& str(std::string_view v) { return value(append_string, v); }
  Writer& u64(std::uint64_t v) { return value(append_u64, v); }
  Writer& i64(std::int64_t v) { return value(append_i64, v); }
  Writer& d(double v) { return value(append_double, v); }
  Writer& b(bool v) { return raw(v ? "true" : "false"); }
  Writer& item(net::DataId v) {
    value_start();
    out_ += '"';
    net::append_item(out_, v);
    out_ += '"';
    return *this;
  }
  /// An already-rendered JSON value, copied verbatim.
  Writer& raw(std::string_view json) {
    value_start();
    out_ += json;
    return *this;
  }

  Writer& str(std::string_view k, std::string_view v) { return key(k).str(v); }
  Writer& u64(std::string_view k, std::uint64_t v) { return key(k).u64(v); }
  Writer& i64(std::string_view k, std::int64_t v) { return key(k).i64(v); }
  Writer& d(std::string_view k, double v) { return key(k).d(v); }
  Writer& b(std::string_view k, bool v) { return key(k).b(v); }
  Writer& item(std::string_view k, net::DataId v) { return key(k).item(v); }
  Writer& raw(std::string_view k, std::string_view json) { return key(k).raw(json); }

 private:
  /// Emits the ',' owed to a preceding sibling, then marks a value written.
  void value_start() {
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }
  /// Writes one scalar with its append_* spelling.
  template <typename T>
  Writer& value(void (*append)(std::string&, T), T v) {
    value_start();
    append(out_, v);
    return *this;
  }
  Writer& open(char c) {
    value_start();
    out_ += c;
    need_comma_ = false;
    return *this;
  }
  Writer& close(char c) {
    out_ += c;
    need_comma_ = true;
    return *this;
  }

  std::string& out_;
  bool need_comma_ = false;
};

}  // namespace spms::obs::json
