#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "core/interest.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

/// \file cluster_interest_reference_test.cpp
/// ClusterInterest's grid-backed build against the full field scans it
/// replaces, kept here verbatim as the reference: heads (order included),
/// every node's head and every origin's expected_count() must match
/// exactly.  The lattices put nodes at equal distances from cell centres and
/// from several heads, so the tie-breaks are exercised, not just the
/// distances.

namespace spms::core {
namespace {

struct ReferenceClusters {
  std::vector<net::NodeId> heads;
  std::vector<net::NodeId> head_of;
};

ReferenceClusters reference_clusters(const net::Network& net, double head_spacing_m) {
  ReferenceClusters ref;
  const std::size_t n = net.size();
  double max_x = 0.0, max_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = net.position(net::NodeId{static_cast<std::uint32_t>(i)});
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const auto cells_x = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(max_x / head_spacing_m)));
  const auto cells_y = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(max_y / head_spacing_m)));
  std::vector<bool> is_head(n, false);
  for (std::size_t cy = 0; cy < cells_y; ++cy) {
    for (std::size_t cx = 0; cx < cells_x; ++cx) {
      const net::Point centre{(static_cast<double>(cx) + 0.5) * head_spacing_m,
                              (static_cast<double>(cy) + 0.5) * head_spacing_m};
      net::NodeId best;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const net::NodeId id{static_cast<std::uint32_t>(i)};
        const double d = distance(net.position(id), centre);
        if (d < best_d) {
          best_d = d;
          best = id;
        }
      }
      if (best.valid() && !is_head[best.v]) {
        is_head[best.v] = true;
        ref.heads.push_back(best);
      }
    }
  }
  ref.head_of.assign(n, net::kNoNode);
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId id{static_cast<std::uint32_t>(i)};
    double best_d = std::numeric_limits<double>::infinity();
    for (const net::NodeId h : ref.heads) {
      const double d = distance(net.position(id), net.position(h));
      if (d < best_d) {
        best_d = d;
        ref.head_of[i] = h;
      }
    }
  }
  return ref;
}

std::size_t reference_expected_count(const net::Network& net, const ClusterInterest& interest,
                                     net::DataId item) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (interest.wants(net::NodeId{static_cast<std::uint32_t>(i)}, item)) ++count;
  }
  return count;
}

void check_against_reference(const net::Network& net, double head_spacing_m) {
  const ClusterInterest interest(net, head_spacing_m, 0.05, 0xC1057E8ull);
  const ReferenceClusters ref = reference_clusters(net, head_spacing_m);
  ASSERT_EQ(interest.heads(), ref.heads);
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    ASSERT_EQ(interest.head_of(net::NodeId{i}), ref.head_of[i]) << "node " << i;
  }
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    for (const std::uint32_t seq : {0u, 1u}) {
      const net::DataId item{net::NodeId{i}, seq};
      ASSERT_EQ(interest.expected_count(item), reference_expected_count(net, interest, item))
          << "origin " << i << " seq " << seq;
    }
  }
}

TEST(ClusterInterestReferenceTest, Lattice32x32WithEquidistantTies) {
  // 5 m pitch.  At 10 m head spacing (the scenarios' setting) each centre
  // holds a node, and many nodes lie halfway between two heads; at 5 m and
  // 15 m every centre sits at the same distance from four nodes.
  sim::Simulation sim{1};
  const net::Network net(sim, net::RadioTable::mica2(), {}, {}, net::grid_deployment(32, 5.0), 10.0);
  for (const double spacing : {10.0, 5.0, 15.0}) {
    SCOPED_TRACE(spacing);
    check_against_reference(net, spacing);
  }
}

TEST(ClusterInterestReferenceTest, SevenBySevenFixture) {
  sim::Simulation sim{1};
  const net::Network net(sim, net::RadioTable::mica2(), {}, {}, net::grid_deployment(7, 5.0), 20.0);
  check_against_reference(net, 20.0);
}

using RandomParam = std::tuple<std::uint64_t /*seed*/, double /*head spacing*/>;

class ClusterInterestRandomReferenceTest : public ::testing::TestWithParam<RandomParam> {};

TEST_P(ClusterInterestRandomReferenceTest, Matches500NodeDeployment) {
  const auto [seed, spacing] = GetParam();
  sim::Simulation sim{seed};
  auto pts = net::random_deployment(500, 110.0, sim.rng());
  const net::Network net(sim, net::RadioTable::mica2(), {}, {}, std::move(pts), 10.0);
  check_against_reference(net, spacing);
}

// Spacing 10 matches the scenarios (head spacing = zone radius).  At 3 m
// many centres lie farther than half a spacing from every node, so the
// search has to widen its first disc.
INSTANTIATE_TEST_SUITE_P(Seeds, ClusterInterestRandomReferenceTest,
                         ::testing::Values(RandomParam{1, 10.0}, RandomParam{2, 10.0},
                                           RandomParam{3, 10.0}, RandomParam{4, 3.0}));

TEST(ClusterInterestReferenceTest, FieldWithAnEmptySquare) {
  // Centres inside the empty square are far from every node, and nodes on
  // its rim are far from the heads across it.
  sim::Simulation sim{5};
  auto pts = net::random_deployment(400, 110.0, sim.rng());
  std::erase_if(pts, [](net::Point p) {
    return p.x > 25.0 && p.x < 85.0 && p.y > 25.0 && p.y < 85.0;
  });
  const net::Network net(sim, net::RadioTable::mica2(), {}, {}, std::move(pts), 10.0);
  check_against_reference(net, 10.0);
}

TEST(ClusterInterestReferenceTest, FieldReachingIntoNegativeCoordinates) {
  // Heads are chosen for centres in the positive quadrant only; nodes left
  // of or below it still join their nearest head.
  sim::Simulation sim{9};
  auto pts = net::random_deployment(200, 80.0, sim.rng());
  for (auto& p : pts) p = {p.x - 40.0, p.y - 20.0};
  const net::Network net(sim, net::RadioTable::mica2(), {}, {}, std::move(pts), 10.0);
  check_against_reference(net, 10.0);
}

}  // namespace
}  // namespace spms::core
