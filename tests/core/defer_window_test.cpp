#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/protocol.hpp"

namespace spms::core {
namespace {

TEST(DeferWindowTest, TableMatchesThePowFormula) {
  // The table must hold exactly what min(2^(d/8), 256) computes at run time
  // (the volatile exponent keeps the reference from being constant-folded).
  const sim::Duration base = ProtocolParams{}.tout_dat;
  for (int d = 0; d <= 200; ++d) {
    volatile double exponent = static_cast<double>(d) / 8.0;
    const double growth = std::min(std::pow(2.0, exponent), 256.0);
    ASSERT_EQ(defer_growth(d), growth) << "d = " << d;
    ASSERT_EQ(defer_window(base, d), base * growth) << "d = " << d;
  }
}

}  // namespace
}  // namespace spms::core
