#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "routing/bellman_ford.hpp"
#include "sim/simulation.hpp"

/// \file dbf_reference_test.cpp
/// RoutingService::rebuild() against a literal reference relaxation: the
/// same synchronous rounds, each lookup a linear search of the neighbor's
/// vector, neighbors visited in zone order.  Every RouteEntry (best and
/// second: next hop, cost, hops) and the round count must match exactly —
/// not to a tolerance, and hop counts included.

namespace spms::routing {
namespace {

using Vector = std::vector<std::pair<net::NodeId, std::pair<double, int>>>;

struct Reference {
  std::vector<std::vector<std::pair<net::NodeId, RouteEntry>>> tables;
  std::size_t rounds = 0;
};

const std::pair<double, int>* lookup(const Vector& vec, net::NodeId dest) {
  for (const auto& [d, val] : vec) {
    if (d == dest) return &val;
  }
  return nullptr;
}

bool better(const Route& a, const Route& b) {
  return a.cost < b.cost ||
         (a.cost == b.cost && (a.hops < b.hops || (a.hops == b.hops && a.next_hop < b.next_hop)));
}

Reference reference_dbf(const net::Network& net, const ZoneMap& zones, std::size_t max_rounds) {
  const std::size_t n = net.size();
  const auto weight = [&](net::NodeId u, net::NodeId v) {
    return *net.radio().min_power_for(net.distance_between(u, v));
  };
  std::vector<Vector> vec(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    vec[u].push_back({net::NodeId{u}, {0.0, 0}});
    for (const net::NodeId v : zones.zone(net::NodeId{u})) {
      vec[u].push_back({v, {weight(net::NodeId{u}, v), 1}});
    }
  }

  Reference ref;
  bool changed = true;
  while (changed && ref.rounds < max_rounds) {
    ++ref.rounds;
    changed = false;
    std::vector<Vector> next = vec;
    for (std::uint32_t u = 0; u < n; ++u) {
      const net::NodeId uid{u};
      for (auto& [dest, val] : next[u]) {
        if (dest == uid) continue;
        for (const net::NodeId v : zones.zone(uid)) {
          const auto* offer = lookup(vec[v.v], dest);
          if (offer == nullptr) continue;
          const double cost = weight(uid, v) + offer->first;
          const int hops = offer->second + 1;
          if (cost < val.first || (cost == val.first && hops < val.second)) {
            val = {cost, hops};
            changed = true;
          }
        }
      }
    }
    vec = std::move(next);
  }

  ref.tables.resize(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    const net::NodeId uid{u};
    for (const net::NodeId dest : zones.zone(uid)) {
      RouteEntry entry;
      for (const net::NodeId v : zones.zone(uid)) {
        const auto* offer = lookup(vec[v.v], dest);
        if (offer == nullptr) continue;
        const Route cand{v, weight(uid, v) + offer->first, offer->second + 1};
        if (better(cand, entry.best)) {
          entry.second = entry.best;
          entry.best = cand;
        } else if (better(cand, entry.second)) {
          entry.second = cand;
        }
      }
      ref.tables[u].push_back({dest, entry});
    }
  }
  return ref;
}

void expect_same_route(const Route& got, const Route& want, const char* which, std::uint32_t u,
                       net::NodeId dest) {
  EXPECT_EQ(got.next_hop, want.next_hop) << which << " " << u << "->" << dest.v;
  EXPECT_EQ(got.cost, want.cost) << which << " " << u << "->" << dest.v;
  EXPECT_EQ(got.hops, want.hops) << which << " " << u << "->" << dest.v;
}

void check_against_reference(const net::Network& net, const RoutingService& routing) {
  const Reference ref = reference_dbf(net, routing.zones(), DbfParams{}.max_rounds);
  EXPECT_EQ(routing.last_stats().rounds, ref.rounds);
  for (std::uint32_t u = 0; u < net.size(); ++u) {
    const auto& got = routing.table(net::NodeId{u}).entries();
    const auto& want = ref.tables[u];
    ASSERT_EQ(got.size(), want.size()) << "node " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, want[i].first) << "node " << u << " entry " << i;
      expect_same_route(got[i].second.best, want[i].second.best, "best", u, want[i].first);
      expect_same_route(got[i].second.second, want[i].second.second, "second", u, want[i].first);
    }
  }
}

DbfParams uncharged() {
  DbfParams p;
  p.charge_energy = false;
  return p;
}

class DbfMatchesReferenceRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbfMatchesReferenceRandom, EveryEntryOn300Nodes) {
  sim::Simulation sim{GetParam()};
  auto pts = net::random_deployment(300, 100.0, sim.rng());
  net::Network net(sim, net::RadioTable::mica2(), {}, {}, std::move(pts), 15.0);
  RoutingService routing(net, uncharged());
  ASSERT_TRUE(routing.last_stats().converged);
  check_against_reference(net, routing);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbfMatchesReferenceRandom, ::testing::Values(21u, 22u));

TEST(DbfMatchesReference, EveryEntryOnALatticeFullOfTies) {
  sim::Simulation sim{1};
  net::Network net(sim, net::RadioTable::mica2(), {}, {}, net::grid_deployment(14, 5.0), 12.0);
  RoutingService routing(net, uncharged());
  ASSERT_TRUE(routing.last_stats().converged);
  check_against_reference(net, routing);
}

TEST(DbfMatchesReference, RebuildAfterMobilityMatches) {
  // A rebuild after nodes move must match the reference on the new
  // positions, zones and weights.
  sim::Simulation sim{5};
  auto pts = net::random_deployment(120, 60.0, sim.rng());
  net::Network net(sim, net::RadioTable::mica2(), {}, {}, std::move(pts), 15.0);
  RoutingService routing(net, uncharged());
  for (std::uint32_t i = 0; i < 120; i += 7) {
    net.set_position(net::NodeId{i}, {60.0 - net.position(net::NodeId{i}).y,
                                      net.position(net::NodeId{i}).x});
  }
  routing.rebuild();
  check_against_reference(net, routing);
}

}  // namespace
}  // namespace spms::routing
