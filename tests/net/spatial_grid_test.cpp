#include "net/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

/// \file spatial_grid_test.cpp
/// Property suite for the uniform-grid spatial index and its integration
/// into Network.  The grid only promises a conservative superset per disc
/// query; Network promises *exact* brute-force results (same inclusive
/// d^2 <= r^2 membership, ascending-id order).  Both promises are checked
/// against literal brute-force scans under random deployments, mobility
/// teleports, and up/down churn — any mismatch would silently change RNG
/// draw order and break byte-for-byte run reproducibility.

namespace spms::net {
namespace {

// --- SpatialGrid unit properties ---------------------------------------------

TEST(SpatialGridTest, VisitDiscCoversAllMembers) {
  std::mt19937_64 gen(42);
  std::uniform_real_distribution<double> coord(-50.0, 150.0);
  std::vector<Point> pts;
  for (std::uint32_t i = 0; i < 200; ++i) pts.push_back({coord(gen), coord(gen)});
  SpatialGrid grid;
  grid.reset(/*cell_size_m=*/20.0, pts);
  for (int q = 0; q < 50; ++q) {
    const Point c{coord(gen), coord(gen)};
    const double r = std::uniform_real_distribution<double>(0.0, 60.0)(gen);
    std::set<std::uint32_t> visited;
    grid.visit_disc(c, r, [&](std::uint32_t id) { visited.insert(id); });
    for (std::uint32_t i = 0; i < 200; ++i) {
      if (distance_sq(pts[i], c) <= r * r) {
        EXPECT_TRUE(visited.count(i)) << "id " << i << " inside disc but not visited";
      }
    }
  }
}

TEST(SpatialGridTest, VisitDiscIsExactlyOncePerId) {
  std::vector<Point> pts;
  for (std::uint32_t i = 0; i < 16; ++i) {
    pts.push_back({static_cast<double>(i % 4) * 5.0, static_cast<double>(i / 4) * 5.0});
  }
  SpatialGrid grid;
  grid.reset(10.0, pts);
  std::vector<std::uint32_t> visited;
  grid.visit_disc({7.5, 7.5}, 100.0, [&](std::uint32_t id) { visited.push_back(id); });
  std::sort(visited.begin(), visited.end());
  ASSERT_EQ(visited.size(), 16u);
  EXPECT_EQ(std::adjacent_find(visited.begin(), visited.end()), visited.end())
      << "an id was visited twice";
}

TEST(SpatialGridTest, MoveRelocatesAcrossCells) {
  SpatialGrid grid;
  grid.reset(10.0, {{5.0, 5.0}, {5.0, 6.0}});
  grid.move(0, {5.0, 5.0}, {95.0, 95.0});
  std::vector<std::uint32_t> near_old;
  grid.visit_disc({5.0, 5.0}, 2.0, [&](std::uint32_t id) { near_old.push_back(id); });
  EXPECT_EQ(near_old, (std::vector<std::uint32_t>{1}));
  std::vector<std::uint32_t> near_new;
  grid.visit_disc({95.0, 95.0}, 2.0, [&](std::uint32_t id) { near_new.push_back(id); });
  EXPECT_EQ(near_new, (std::vector<std::uint32_t>{0}));
}

TEST(SpatialGridTest, SameCellMoveKeepsMembership) {
  SpatialGrid grid;
  grid.reset(10.0, {{1.0, 1.0}});
  grid.move(0, {1.0, 1.0}, {2.0, 2.0});  // same cell: early-return path
  int seen = 0;
  grid.visit_disc({2.0, 2.0}, 1.0, [&](std::uint32_t) { ++seen; });
  EXPECT_EQ(seen, 1);
}

TEST(SpatialGridTest, NegativeCoordinatesHashDistinctCells) {
  // Cells at negative coordinates must stay distinct from their mirror
  // images.  Place points around the origin and check disc queries stay
  // local.
  SpatialGrid grid;
  grid.reset(10.0, {{-5.0, -5.0}, {5.0, 5.0}, {-5.0, 5.0}, {5.0, -5.0}});
  std::vector<std::uint32_t> hits;
  grid.visit_disc({-5.0, -5.0}, 1.0, [&](std::uint32_t id) { hits.push_back(id); });
  EXPECT_EQ(hits, (std::vector<std::uint32_t>{0}));
}

TEST(SpatialGridTest, MovesLeavingTheInitialBoxKeepTheContract) {
  // The cell array covers the deployment's bounding box; teleports far out
  // of it, to negative coordinates included, grow the box.  After every
  // batch of moves each disc query must still visit each id at most once
  // and cover the brute-force disc, and a field-wide disc every id once.
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> inside(0.0, 50.0);
  std::uniform_real_distribution<double> outside(-300.0, 400.0);
  std::vector<Point> pts;
  for (std::uint32_t i = 0; i < 100; ++i) pts.push_back({inside(gen), inside(gen)});
  SpatialGrid grid;
  grid.reset(10.0, pts);
  std::uniform_int_distribution<std::uint32_t> pick(0, 99);
  std::vector<std::uint32_t> count(pts.size());
  for (int batch = 0; batch < 20; ++batch) {
    for (int m = 0; m < 10; ++m) {
      const std::uint32_t id = pick(gen);
      const Point to = batch % 2 == 0 ? Point{outside(gen), outside(gen)}
                                      : Point{inside(gen), inside(gen)};
      grid.move(id, pts[id], to);
      pts[id] = to;
    }
    for (int q = 0; q < 20; ++q) {
      const Point c{outside(gen), outside(gen)};
      const double r = std::uniform_real_distribution<double>(0.0, 120.0)(gen);
      std::fill(count.begin(), count.end(), 0);
      grid.visit_disc(c, r, [&](std::uint32_t id) { ++count[id]; });
      for (std::uint32_t i = 0; i < pts.size(); ++i) {
        ASSERT_LE(count[i], 1u) << "batch " << batch << ": id " << i << " visited twice";
        if (distance_sq(pts[i], c) <= r * r) {
          ASSERT_EQ(count[i], 1u) << "batch " << batch << ": id " << i << " inside, not visited";
        }
      }
    }
    std::fill(count.begin(), count.end(), 0);
    grid.visit_disc({50.0, 50.0}, 1000.0, [&](std::uint32_t id) { ++count[id]; });
    ASSERT_EQ(std::count(count.begin(), count.end(), 1u), 100) << "batch " << batch;
  }
}

// --- Network vs brute force --------------------------------------------------

/// Literal reference implementation of neighbors_within.
std::vector<NodeId> brute_neighbors(const Network& net, NodeId center, double radius_m,
                                    bool include_down) {
  std::vector<NodeId> out;
  const Point c = net.position(center);
  const double r2 = radius_m * radius_m;
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    const NodeId id{i};
    if (id == center) continue;
    if (!include_down && !net.is_up(id)) continue;
    if (distance_sq(net.position(id), c) <= r2) out.push_back(id);
  }
  return out;  // ascending by construction
}

std::size_t brute_contention(const Network& net, NodeId center, double radius_m) {
  std::size_t n = 0;
  const Point c = net.position(center);
  const double r2 = radius_m * radius_m;
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    const NodeId id{i};
    if (id == center || !net.is_up(id)) continue;
    if (distance_sq(net.position(id), c) <= r2) ++n;
  }
  return n;
}

class GridNetworkTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr double kZone = 20.0;
  static constexpr std::size_t kNodes = 120;

  void build(std::mt19937_64& gen) {
    std::uniform_real_distribution<double> coord(0.0, 100.0);
    std::vector<Point> pts;
    for (std::size_t i = 0; i < kNodes; ++i) pts.push_back({coord(gen), coord(gen)});
    net = std::make_unique<Network>(sim, RadioTable::mica2(), MacParams{},
                                    EnergyModelParams{}, pts, kZone);
  }

  /// Checks every node as a query center at several radii, both liveness
  /// filters, against brute force.
  void check_all(const char* stage) {
    for (const double r : {kZone, kZone / 2.0, kZone * 2.5, 0.0}) {
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        const NodeId id{i};
        for (const bool down : {true, false}) {
          ASSERT_EQ(net->neighbors_within(id, r, down), brute_neighbors(*net, id, r, down))
              << stage << ": center " << i << " r " << r << " include_down " << down;
        }
        ASSERT_EQ(net->contention_count(id, r), brute_contention(*net, id, r))
            << stage << ": center " << i << " r " << r;
      }
    }
  }

  sim::Simulation sim{7};
  std::unique_ptr<Network> net;
};

TEST_P(GridNetworkTest, MatchesBruteForceUnderChurn) {
  std::mt19937_64 gen(GetParam());
  build(gen);
  check_all("fresh deployment");

  // Mobility: teleport a third of the nodes, some far outside the original
  // field (negative coordinates included).
  std::uniform_real_distribution<double> far(-80.0, 180.0);
  std::uniform_int_distribution<std::uint32_t> pick(0, kNodes - 1);
  for (int i = 0; i < static_cast<int>(kNodes) / 3; ++i) {
    net->set_position(NodeId{pick(gen)}, {far(gen), far(gen)});
  }
  check_all("after teleports");

  // Churn: fail a random subset, then repair some of them.
  std::vector<NodeId> failed;
  for (int i = 0; i < 30; ++i) {
    const NodeId id{pick(gen)};
    net->set_up(id, false);
    failed.push_back(id);
  }
  check_all("after failures");
  for (std::size_t i = 0; i < failed.size(); i += 2) net->set_up(failed[i], true);
  check_all("after repairs");

  // Move nodes while some are down: down nodes keep their zone membership.
  for (int i = 0; i < 20; ++i) {
    net->set_position(NodeId{pick(gen)}, {far(gen), far(gen)});
  }
  check_all("teleports with downs");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridNetworkTest, ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(GridNetworkTest2, ScratchBufferOverloadMatchesAllocatingOverload) {
  sim::Simulation sim{3};
  std::mt19937_64 gen(11);
  std::uniform_real_distribution<double> coord(0.0, 60.0);
  std::vector<Point> pts;
  for (int i = 0; i < 50; ++i) pts.push_back({coord(gen), coord(gen)});
  Network net(sim, RadioTable::mica2(), MacParams{}, EnergyModelParams{}, pts, 20.0);
  std::vector<NodeId> reused;  // deliberately reused dirty across queries
  for (std::uint32_t i = 0; i < 50; ++i) {
    net.neighbors_within(NodeId{i}, 20.0, /*include_down=*/true, reused);
    EXPECT_EQ(reused, net.neighbors_within(NodeId{i}, 20.0, /*include_down=*/true));
  }
}

}  // namespace
}  // namespace spms::net
