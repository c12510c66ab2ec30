#include "stats/aggregate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace spms::stats {
namespace {

TEST(SummaryDispersionTest, SampleStatsMatchHandComputation) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance 4 (the classic example); sample variance 32/7.
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 32.0 / 7.0);
  EXPECT_DOUBLE_EQ(s.sample_stddev(), std::sqrt(32.0 / 7.0));
  EXPECT_DOUBLE_EQ(s.stderr_mean(), std::sqrt(32.0 / 7.0) / std::sqrt(8.0));
}

TEST(SummaryDispersionTest, DegenerateCountsAreZero) {
  Summary s;
  EXPECT_EQ(s.sample_variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
  s.add(3.0);
  EXPECT_EQ(s.sample_variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(AggregateTest, SnapshotsASummary) {
  Summary s;
  s.add(1.0);
  s.add(3.0);
  const auto a = Aggregate::of(s);
  EXPECT_EQ(a.n, 2u);
  EXPECT_DOUBLE_EQ(a.mean, 2.0);
  EXPECT_DOUBLE_EQ(a.stddev, std::sqrt(2.0));          // sample variance 2
  EXPECT_DOUBLE_EQ(a.stderr_mean, std::sqrt(2.0) / std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 3.0);
  std::ostringstream os;
  os << a;
  EXPECT_NE(os.str().find("n=2"), std::string::npos);
}

}  // namespace
}  // namespace spms::stats
