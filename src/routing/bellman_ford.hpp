#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "routing/routing_table.hpp"
#include "routing/zone.hpp"

/// \file bellman_ford.hpp
/// Intra-zone shortest-path routing via distributed Bellman-Ford (DBF).
///
/// "The Distributed Bellman Ford algorithm is executed in each zone to form
/// the routes … If a graphical representation of the network is considered
/// where the weight w on an edge (i,j) denotes the minimum power at which i
/// needs to transmit to reach j, DBF finds the shortest path between any two
/// nodes in the weighted graph."
///
/// The implementation runs synchronous rounds: every node broadcasts its
/// distance vector to its zone (one frame at the zone power level), every
/// node relaxes, and the algorithm stops after the first round in which no
/// table changed.  Message count and energy are charged to
/// EnergyUse::kRouting so the mobility experiment can include the cost of
/// reconvergence (Fig. 12 and the 239-packet break-even analysis).

namespace spms::routing {

/// Tunables of the DBF execution and its cost accounting.
struct DbfParams {
  std::size_t header_bytes = 2;     ///< fixed frame overhead of a DV update
  std::size_t bytes_per_entry = 6;  ///< per-destination (id + cost) payload
  bool charge_energy = true;        ///< account DV traffic on the meters
  std::size_t max_rounds = 256;     ///< safety bound (>= zone diameter + 1)
};

/// Outcome of one (re)build.
struct DbfStats {
  std::size_t rounds = 0;        ///< synchronous rounds until stability
  std::uint64_t messages = 0;    ///< DV broadcasts sent
  std::uint64_t message_bytes = 0;
  double energy_uj = 0.0;        ///< TX+RX energy charged for the build
  bool converged = false;        ///< false only if max_rounds tripped
};

/// Owns the zone map and every node's routing table; rebuilt on demand
/// (initially and after mobility epochs).
class RoutingService {
 public:
  RoutingService(net::Network& net, DbfParams params = {});

  /// Recomputes zones from current positions and reruns DBF from scratch.
  /// Returns the cost of the run (also retained in last_stats()).
  DbfStats rebuild();

  /// The most recent rebuild's statistics.
  [[nodiscard]] const DbfStats& last_stats() const { return last_stats_; }

  /// Cumulative statistics across all rebuilds.
  [[nodiscard]] const DbfStats& total_stats() const { return total_stats_; }

  /// Number of rebuild() calls (the initial build included).
  [[nodiscard]] std::uint64_t rebuild_count() const { return rebuilds_; }

  /// Route churn: cumulative best-next-hop changes across rebuilds (the
  /// initial build, which changes everything by definition, is excluded).
  /// A changed entry is a destination whose best first hop differs from the
  /// previous table, was lost, or appeared.
  [[nodiscard]] std::uint64_t route_changes() const { return route_changes_; }

  [[nodiscard]] const ZoneMap& zones() const { return *zones_; }
  [[nodiscard]] const RoutingTable& table(net::NodeId id) const { return tables_.at(id.v); }

  /// Best route from `from` to `dest`; nullopt when `dest` is not in
  /// `from`'s zone.
  [[nodiscard]] std::optional<Route> route(net::NodeId from, net::NodeId dest) const {
    return tables_.at(from.v).best(dest);
  }

  /// First hop of the best route; invalid NodeId when unroutable.
  [[nodiscard]] net::NodeId next_hop(net::NodeId from, net::NodeId dest) const {
    return tables_.at(from.v).next_hop(dest);
  }

  /// True when the best path from `from` to `dest` is the direct link.
  [[nodiscard]] bool is_next_hop_neighbor(net::NodeId from, net::NodeId dest) const {
    return next_hop(from, dest) == dest;
  }

 private:
  net::Network& net_;
  DbfParams params_;
  std::unique_ptr<ZoneMap> zones_;
  std::vector<RoutingTable> tables_;
  DbfStats last_stats_;
  DbfStats total_stats_;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t route_changes_ = 0;
};

/// Reference shortest path for tests: Dijkstra over the same constrained
/// graph DBF uses — relays must themselves have `dest` in their zone (every
/// hop stays within the zone radius).  Returns the best route from `from`
/// (first hop + cost + hop count), or nullopt when `dest` is outside
/// `from`'s zone.
[[nodiscard]] std::optional<Route> dijkstra_reference(const net::Network& net, const ZoneMap& zones,
                                                      net::NodeId from, net::NodeId dest);

}  // namespace spms::routing
