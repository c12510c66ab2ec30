#include "net/topology.hpp"

#include <gtest/gtest.h>

#include "net/geometry.hpp"

namespace spms::net {
namespace {

TEST(GeometryTest, DistanceBasics) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(distance_sq({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(distance({-3, 0}, {0, 4}), 5.0);
}

TEST(GeometryTest, PointArithmetic) {
  const Point p = Point{1, 2} + Point{3, 4};
  EXPECT_DOUBLE_EQ(p.x, 4.0);
  EXPECT_DOUBLE_EQ(p.y, 6.0);
  const Point q = Point{1, 2} - Point{3, 4};
  EXPECT_DOUBLE_EQ(q.x, -2.0);
  EXPECT_DOUBLE_EQ(q.y, -2.0);
}

TEST(TopologyTest, GridHasExpectedLayout) {
  const auto pts = grid_deployment(3, 5.0);
  ASSERT_EQ(pts.size(), 9u);
  EXPECT_EQ(pts[0], (Point{0, 0}));
  EXPECT_EQ(pts[1], (Point{5, 0}));   // row-major: column moves first
  EXPECT_EQ(pts[3], (Point{0, 5}));
  EXPECT_EQ(pts[8], (Point{10, 10}));
}

TEST(TopologyTest, GridNeighborSpacing) {
  const auto pts = grid_deployment(4, 2.5);
  // Adjacent points in a row are exactly one pitch apart.
  EXPECT_DOUBLE_EQ(distance(pts[0], pts[1]), 2.5);
  // Diagonal neighbors are pitch*sqrt(2).
  EXPECT_NEAR(distance(pts[0], pts[5]), 2.5 * std::sqrt(2.0), 1e-12);
}

TEST(TopologyTest, GridSideFor) {
  EXPECT_EQ(grid_side_for(1), 1u);
  EXPECT_EQ(grid_side_for(4), 2u);
  EXPECT_EQ(grid_side_for(5), 3u);
  EXPECT_EQ(grid_side_for(9), 3u);
  EXPECT_EQ(grid_side_for(10), 4u);
  EXPECT_EQ(grid_side_for(169), 13u);
  EXPECT_EQ(grid_side_for(225), 15u);
}

TEST(TopologyTest, RandomDeploymentWithinField) {
  sim::Rng rng{3};
  const auto pts = random_deployment(200, 50.0, rng);
  ASSERT_EQ(pts.size(), 200u);
  for (const auto& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 50.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 50.0);
  }
}

TEST(TopologyTest, RandomDeploymentDeterministicPerSeed) {
  sim::Rng a{3}, b{3}, c{4};
  const auto pa = random_deployment(10, 50.0, a);
  const auto pb = random_deployment(10, 50.0, b);
  const auto pc = random_deployment(10, 50.0, c);
  EXPECT_EQ(pa, pb);
  EXPECT_NE(pa, pc);
}

// EXPERIMENTS.md's "5 m grid pitch" calibration note: that pitch gives
// zone sizes close to the paper's n1=45 (radius ~20 m) and ns=5 (lowest
// level, 5.48 m).
TEST(TopologyTest, FiveMeterPitchReproducesPaperZoneSizes) {
  const auto pts = grid_deployment(13, 5.0);  // 169 nodes
  const Point centre = pts[6 * 13 + 6];       // middle of the field
  auto count_within = [&](double r) {
    std::size_t c = 0;
    for (const auto& p : pts) {
      if (p != centre && distance(p, centre) <= r) ++c;
    }
    return c;
  };
  EXPECT_EQ(count_within(20.0), 48u);  // paper n1 = 45
  EXPECT_EQ(count_within(5.48), 4u);   // paper ns = 5
}

}  // namespace
}  // namespace spms::net
