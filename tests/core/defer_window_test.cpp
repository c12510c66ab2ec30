#include <gtest/gtest.h>

#include "core/protocol.hpp"

namespace spms::core {
namespace {

TEST(DeferWindowTest, GrowthDoublesEveryEightDeferralsUpTo256) {
  // min(2^(d/8), 256): exact powers of two at multiples of 8, capped at 64.
  EXPECT_EQ(defer_growth(0), 1.0);
  EXPECT_EQ(defer_growth(8), 2.0);
  EXPECT_EQ(defer_growth(64), 256.0);
  EXPECT_EQ(defer_growth(200), 256.0);
  const sim::Duration base = ProtocolParams{}.tout_dat;
  EXPECT_EQ(defer_window(base, 0), base);
  EXPECT_EQ(defer_window(base, 8), base * 2.0);
  EXPECT_EQ(defer_window(base, 200), base * 256.0);
}

}  // namespace
}  // namespace spms::core
