#include "routing/bellman_ford.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace spms::routing {
namespace {

net::MacParams quiet_mac() {
  net::MacParams mac;
  mac.num_slots = 1;
  return mac;
}

struct Rig {
  Rig(std::vector<net::Point> pts, double radius, std::uint64_t seed = 1)
      : sim(seed), net(sim, net::RadioTable::mica2(), quiet_mac(), {}, std::move(pts), radius) {}
  sim::Simulation sim;
  net::Network net;
};

TEST(BellmanFordTest, MultiHopBeatsDirectOnALine) {
  // 0 -- 5 m -- 1 -- 5 m -- 2: direct 0->2 needs level 4 (0.05 mW), two
  // 5 m hops need 2 * 0.0125 = 0.025 mW: the relay wins.
  Rig rig({{0, 0}, {5, 0}, {10, 0}}, 12.0);
  RoutingService routing(rig.net);
  const auto route = routing.route(net::NodeId{0}, net::NodeId{2});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->next_hop, net::NodeId{1});
  EXPECT_DOUBLE_EQ(route->cost, 0.025);
  EXPECT_EQ(route->hops, 2);
  EXPECT_FALSE(routing.is_next_hop_neighbor(net::NodeId{0}, net::NodeId{2}));
  EXPECT_TRUE(routing.is_next_hop_neighbor(net::NodeId{0}, net::NodeId{1}));
}

TEST(BellmanFordTest, SecondBestHasDistinctFirstHop) {
  Rig rig({{0, 0}, {5, 0}, {10, 0}}, 12.0);
  RoutingService routing(rig.net);
  const auto* entry = routing.table(net::NodeId{0}).find(net::NodeId{2});
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->best.valid());
  ASSERT_TRUE(entry->second.valid());
  EXPECT_NE(entry->best.next_hop, entry->second.next_hop);
  // The second path is the direct link at the higher level.
  EXPECT_EQ(entry->second.next_hop, net::NodeId{2});
  EXPECT_DOUBLE_EQ(entry->second.cost, 0.05);
  EXPECT_GE(entry->second.cost, entry->best.cost);
}

TEST(BellmanFordTest, AdjacentNodesRouteDirectly) {
  Rig rig({{0, 0}, {5, 0}, {10, 0}}, 12.0);
  RoutingService routing(rig.net);
  const auto route = routing.route(net::NodeId{0}, net::NodeId{1});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->next_hop, net::NodeId{1});
  EXPECT_EQ(route->hops, 1);
}

TEST(BellmanFordTest, NoEntryOutsideZone) {
  Rig rig({{0, 0}, {5, 0}, {10, 0}, {30, 0}}, 12.0);
  RoutingService routing(rig.net);
  EXPECT_FALSE(routing.route(net::NodeId{0}, net::NodeId{3}).has_value());
  EXPECT_FALSE(routing.next_hop(net::NodeId{0}, net::NodeId{3}).valid());
}

TEST(BellmanFordTest, RoutesAreSymmetricInCost) {
  Rig rig(net::grid_deployment(5, 5.0), 15.0);
  RoutingService routing(rig.net);
  for (std::uint32_t a = 0; a < rig.net.size(); ++a) {
    for (std::uint32_t b = a + 1; b < rig.net.size(); ++b) {
      const auto ab = routing.route(net::NodeId{a}, net::NodeId{b});
      const auto ba = routing.route(net::NodeId{b}, net::NodeId{a});
      ASSERT_EQ(ab.has_value(), ba.has_value());
      if (ab) {
        EXPECT_DOUBLE_EQ(ab->cost, ba->cost) << a << "->" << b;
      }
    }
  }
}

TEST(BellmanFordTest, ConvergesWithStats) {
  Rig rig(net::grid_deployment(6, 5.0), 20.0);
  RoutingService routing(rig.net);
  const auto& stats = routing.last_stats();
  EXPECT_TRUE(stats.converged);
  EXPECT_GE(stats.rounds, 2u);  // at least one relaxation + one quiet round
  EXPECT_EQ(stats.messages, stats.rounds * rig.net.size());
  EXPECT_GT(stats.message_bytes, 0u);
}

TEST(BellmanFordTest, ChargesRoutingEnergy) {
  Rig rig(net::grid_deployment(4, 5.0), 15.0);
  RoutingService routing(rig.net);
  const auto energy = rig.net.energy();
  EXPECT_GT(energy.routing_tx_uj, 0.0);
  EXPECT_GT(energy.routing_rx_uj, 0.0);
  EXPECT_DOUBLE_EQ(energy.protocol_uj(), 0.0);
  EXPECT_NEAR(routing.last_stats().energy_uj, energy.routing_uj(), 1e-9);
}

TEST(BellmanFordTest, EnergyChargingCanBeDisabled) {
  Rig rig(net::grid_deployment(4, 5.0), 15.0);
  DbfParams params;
  params.charge_energy = false;
  RoutingService routing(rig.net, params);
  EXPECT_DOUBLE_EQ(rig.net.energy().routing_uj(), 0.0);
  EXPECT_GT(routing.last_stats().messages, 0u);
}

TEST(BellmanFordTest, RebuildFollowsMobility) {
  Rig rig({{0, 0}, {5, 0}, {10, 0}}, 12.0);
  RoutingService routing(rig.net);
  ASSERT_EQ(routing.next_hop(net::NodeId{0}, net::NodeId{2}), net::NodeId{1});
  // Move the relay away: the direct link becomes the only path.
  rig.net.set_position(net::NodeId{1}, {0, 50});
  routing.rebuild();
  const auto route = routing.route(net::NodeId{0}, net::NodeId{2});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->next_hop, net::NodeId{2});
  EXPECT_EQ(route->hops, 1);
  // Cumulative stats advanced.
  EXPECT_GT(routing.total_stats().rounds, routing.last_stats().rounds);
}

TEST(BellmanFordTest, ZigZagPathThroughGrid) {
  // Diagonal destination: two 5 m axis hops (0.025) beat one 7.07 m hop
  // (level 4: 0.05).
  Rig rig(net::grid_deployment(2, 5.0), 12.0);
  RoutingService routing(rig.net);
  const auto route = routing.route(net::NodeId{0}, net::NodeId{3});
  ASSERT_TRUE(route.has_value());
  EXPECT_DOUBLE_EQ(route->cost, 0.025);
  EXPECT_EQ(route->hops, 2);
}

// ---------------------------------------------------------------------------
// Property sweep: DBF must agree with the Dijkstra reference on best-path
// costs for every (source, destination) pair, across deployments.
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<std::size_t /*side*/, double /*pitch*/, double /*radius*/>;

class DbfAgreesWithDijkstra : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DbfAgreesWithDijkstra, AllPairs) {
  const auto [side, pitch, radius] = GetParam();
  Rig rig(net::grid_deployment(side, pitch), radius);
  RoutingService routing(rig.net);
  ASSERT_TRUE(routing.last_stats().converged);
  const auto& zones = routing.zones();
  for (std::uint32_t a = 0; a < rig.net.size(); ++a) {
    for (std::uint32_t b = 0; b < rig.net.size(); ++b) {
      if (a == b) continue;
      const auto dbf = routing.route(net::NodeId{a}, net::NodeId{b});
      const auto ref = dijkstra_reference(rig.net, zones, net::NodeId{a}, net::NodeId{b});
      ASSERT_EQ(dbf.has_value(), ref.has_value()) << a << "->" << b;
      if (dbf) {
        // Costs must agree exactly; hop counts can differ between equal-cost
        // paths (the grid is full of ties), so only sanity-check them.
        EXPECT_NEAR(dbf->cost, ref->cost, 1e-12) << a << "->" << b;
        EXPECT_GE(dbf->hops, 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GridSweep, DbfAgreesWithDijkstra,
                         ::testing::Values(SweepParam{3, 5.0, 12.0}, SweepParam{4, 5.0, 20.0},
                                           SweepParam{5, 5.0, 11.0}, SweepParam{4, 7.0, 22.0},
                                           SweepParam{6, 4.0, 15.0}, SweepParam{5, 10.0, 45.0}));

class DbfRandomDeployments : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbfRandomDeployments, AgreesWithDijkstraAndIsSane) {
  sim::Simulation sim{GetParam()};
  auto pts = net::random_deployment(30, 40.0, sim.rng());
  net::Network net(sim, net::RadioTable::mica2(), quiet_mac(), {}, std::move(pts), 20.0);
  RoutingService routing(net);
  ASSERT_TRUE(routing.last_stats().converged);
  const auto& zones = routing.zones();
  for (std::uint32_t a = 0; a < net.size(); ++a) {
    for (std::uint32_t b = 0; b < net.size(); ++b) {
      if (a == b) continue;
      const auto dbf = routing.route(net::NodeId{a}, net::NodeId{b});
      const auto ref = dijkstra_reference(net, zones, net::NodeId{a}, net::NodeId{b});
      ASSERT_EQ(dbf.has_value(), ref.has_value());
      if (!dbf) continue;
      EXPECT_NEAR(dbf->cost, ref->cost, 1e-12);
      // A route never costs more than the direct link (which always exists
      // inside the zone).
      const auto direct = net.radio().min_power_for(net.distance_between(net::NodeId{a}, net::NodeId{b}));
      ASSERT_TRUE(direct.has_value());
      EXPECT_LE(dbf->cost, *direct + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbfRandomDeployments, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace spms::routing
