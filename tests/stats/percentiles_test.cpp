#include "stats/percentiles.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace spms::stats {
namespace {

TEST(PercentilesTest, EmptySampleHasDefinedNaNAnswer) {
  // Hardened contract: no observations means "no data", answered with quiet
  // NaN for every quantile and accessor — never a fabricated number that
  // could be mistaken for a measurement.
  Percentiles p;
  EXPECT_EQ(p.count(), 0u);
  EXPECT_TRUE(std::isnan(p.quantile(0.0)));
  EXPECT_TRUE(std::isnan(p.quantile(0.5)));
  EXPECT_TRUE(std::isnan(p.quantile(1.0)));
  EXPECT_TRUE(std::isnan(p.median()));
  EXPECT_TRUE(std::isnan(p.p95()));
  EXPECT_TRUE(std::isnan(p.p99()));
  // Still empty and still NaN on a repeat query (no state was corrupted).
  EXPECT_EQ(p.count(), 0u);
  EXPECT_TRUE(std::isnan(p.quantile(0.5)));
}

TEST(PercentilesTest, SingleValue) {
  Percentiles p;
  p.add(7.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 7.0);
}

TEST(PercentilesTest, MedianOfOddCount) {
  Percentiles p;
  for (const double x : {5.0, 1.0, 3.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.median(), 3.0);
}

TEST(PercentilesTest, InterpolatesEvenCount) {
  Percentiles p;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.median(), 2.5);     // numpy-style linear interpolation
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 4.0);
}

TEST(PercentilesTest, KnownQuartiles) {
  Percentiles p;
  for (int i = 0; i <= 100; ++i) p.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(p.quantile(0.25), 25.0);
  EXPECT_DOUBLE_EQ(p.median(), 50.0);
  EXPECT_DOUBLE_EQ(p.p95(), 95.0);
  EXPECT_DOUBLE_EQ(p.p99(), 99.0);
}

#ifdef NDEBUG
TEST(PercentilesTest, OutOfRangeQuantileClampsInRelease) {
  // Debug builds assert on q outside [0,1]; release builds clamp to the
  // extremes instead of indexing out of bounds.
  Percentiles p;
  for (const double x : {1.0, 2.0, 3.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.5), 3.0);
}
#endif

TEST(PercentilesTest, InsertAfterQueryResorts) {
  Percentiles p;
  p.add(10.0);
  p.add(20.0);
  EXPECT_DOUBLE_EQ(p.median(), 15.0);
  p.add(0.0);  // arrives after the sort
  EXPECT_DOUBLE_EQ(p.median(), 10.0);
}

TEST(PercentilesTest, ReportsFootprintAndReservesGeometrically) {
  Percentiles p;
  EXPECT_EQ(p.sample_count(), 0u);
  EXPECT_EQ(p.memory_bytes(), 0u);
  p.add(1.0);
  // First allocation jumps straight to the reserve floor: growing a
  // million-sample buffer 1.5x-at-a-time out of push_back is exactly the
  // realloc churn the explicit policy removes.
  EXPECT_EQ(p.memory_bytes(), 1024u * sizeof(double));
  for (int i = 0; i < 2500; ++i) p.add(static_cast<double>(i));
  EXPECT_EQ(p.sample_count(), 2501u);
  EXPECT_EQ(p.memory_bytes(), 4096u * sizeof(double));  // floor doubled twice
}

}  // namespace
}  // namespace spms::stats
