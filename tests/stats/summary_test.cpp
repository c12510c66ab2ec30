#include "stats/summary.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace spms::stats {
namespace {

TEST(SummaryTest, EmptySummaryIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SummaryTest, SingleValue) {
  Summary s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_DOUBLE_EQ(s.sum(), 42.0);
}

TEST(SummaryTest, KnownMoments) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SummaryTest, NegativeValues) {
  Summary s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(SummaryTest, WelfordStableForLargeOffsets) {
  // Catastrophic cancellation check: values with a huge common offset.
  Summary s;
  for (const double x : {1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0}) s.add(x);
  EXPECT_NEAR(s.mean(), 1e9 + 10.0, 1e-3);
  EXPECT_NEAR(s.variance(), 22.5, 1e-3);
}

TEST(SummaryDispersionTest, SampleStatsMatchHandComputation) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance 4 (the classic example); sample variance 32/7.
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 32.0 / 7.0);
  EXPECT_DOUBLE_EQ(s.sample_stddev(), std::sqrt(32.0 / 7.0));
}

TEST(SummaryDispersionTest, DegenerateCountsAreZero) {
  Summary s;
  EXPECT_EQ(s.sample_variance(), 0.0);
  EXPECT_EQ(s.sample_stddev(), 0.0);
  s.add(3.0);
  EXPECT_EQ(s.sample_variance(), 0.0);
  EXPECT_EQ(s.sample_stddev(), 0.0);
}

}  // namespace
}  // namespace spms::stats
