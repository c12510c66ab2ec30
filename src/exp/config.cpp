#include "exp/config.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace spms::exp {

namespace {

// from_chars takes no leading '+' or whitespace, no '-' for an unsigned
// type, and reports overflow, so "-1" or "2^64" never wraps into a count.
template <class Number>
bool parse_number(std::string_view text, Number& out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  if constexpr (std::is_floating_point_v<Number>) return std::isfinite(out);
  return true;
}

// The config's enums are scoped (so every int is a value of them), number
// their enumerators from 0, and name every other value "?".
template <class Enum>
bool parse_enum(std::string_view text, Enum& out) {
  for (int i = 0; std::string_view{to_string(static_cast<Enum>(i))} != "?"; ++i) {
    if (text == to_string(static_cast<Enum>(i))) {
      out = static_cast<Enum>(i);
      return true;
    }
  }
  return false;
}

}  // namespace

void set_field(ExperimentConfig& cfg, std::string_view key, std::string_view text) {
  bool known = false;
  bool parsed = false;
  visit_fields(cfg, [&](std::string_view k, auto& field) {
    if (k != key) return;
    known = true;
    using T = std::decay_t<decltype(field)>;
    T value = field;
    if constexpr (std::is_same_v<T, std::string>) {
      value = text;
      parsed = true;
    } else if constexpr (std::is_enum_v<T>) {
      parsed = parse_enum(text, value);
    } else if constexpr (std::is_same_v<T, bool>) {
      parsed = text == "true" || text == "false";
      value = text == "true";
    } else if constexpr (std::is_same_v<T, sim::Duration>) {
      std::int64_t ns = 0;
      parsed = parse_number(text, ns);
      value = sim::Duration::nanos(ns);
    } else {
      parsed = parse_number(text, value);
    }
    if (parsed) field = std::move(value);
  });
  if (!known) throw std::invalid_argument{"unknown config key '" + std::string{key} + "'"};
  if (!parsed) {
    throw std::invalid_argument{"bad value '" + std::string{text} + "' for config key '" +
                                std::string{key} + "'"};
  }
}

}  // namespace spms::exp
