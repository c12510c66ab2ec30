#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "obs/json.hpp"

/// \file stored_fields.hpp
/// Result comparisons through exp::visit_result_fields: a field added to
/// the list is compared by every test that uses them.

namespace spms::exp {

/// Every stored field of `r` as (store key, value spelled by the JSON
/// writer), in list order.  A finite double is spelled in its shortest
/// round-trip form, so equal spellings mean bit-equal values.
inline std::vector<std::pair<std::string_view, std::string>> stored_fields(const RunResult& r) {
  std::vector<std::pair<std::string_view, std::string>> fields;
  visit_result_fields(r, [&fields](std::string_view key, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    std::string text;
    obs::json::Writer w{text};
    if constexpr (std::is_same_v<T, std::string>) {
      w.str(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      w.b(v);
    } else if constexpr (std::is_same_v<T, double>) {
      w.d(v);
    } else {
      w.u64(v);
    }
    fields.emplace_back(key, std::move(text));
  });
  return fields;
}

/// Expects every stored field of `a` and `b` to be bit-identical, naming
/// each field that is not.
inline void expect_bit_identical(const RunResult& a, const RunResult& b) {
  const auto fa = stored_fields(a);
  const auto fb = stored_fields(b);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].second, fb[i].second) << fa[i].first;
  }
}

}  // namespace spms::exp
