#include "routing/bellman_ford.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/event_trace.hpp"

namespace spms::routing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Marks a destination the relaxing node does not hold in the slot index.
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/// Advertised distance-vector state of one node during the DBF run.
///
/// A node's destination set is fixed the moment its vector is initialized
/// (itself plus its zone — synchronous relaxation never adds entries), so
/// instead of a hash map the vector is a sorted destination list with a
/// parallel (cost, hops) array.  The destination list never changes across
/// rounds, so only `val` is double-buffered and the per-round state copy is
/// a flat memcpy that reuses capacity.
struct NodeVec {
  std::vector<net::NodeId> dests;           ///< sorted; includes the node itself
  std::vector<std::pair<double, int>> val;  ///< (cost, hops), parallel to dests
};

/// Strict order of candidate routes: cost, then hops, then first hop.
bool route_less(const Route& a, const Route& b) {
  return a.cost < b.cost ||
         (a.cost == b.cost && (a.hops < b.hops || (a.hops == b.hops && a.next_hop < b.next_hop)));
}

}  // namespace

RoutingService::RoutingService(net::Network& net, DbfParams params)
    : net_(net), params_(params) {
  rebuild();
}

DbfStats RoutingService::rebuild() {
  zones_ = std::make_unique<ZoneMap>(net_);
  const std::size_t n = net_.size();
  // Keep the previous tables aside so the churn diff below can compare; on
  // the initial build (constructor) this is empty and the diff is skipped.
  std::vector<RoutingTable> old_tables = std::move(tables_);
  tables_.assign(n, RoutingTable{});

  // Cache link weights w(u,v) for v in zone(u), parallel to the zone list;
  // zone membership guarantees the link exists (zone radius <= max radio
  // range).
  std::vector<std::vector<double>> weight(n);
  for (std::size_t u = 0; u < n; ++u) {
    const net::NodeId uid{static_cast<std::uint32_t>(u)};
    const auto& zone = zones_->zone(uid);
    weight[u].reserve(zone.size());
    for (const net::NodeId v : zone) {
      const auto w = net_.radio().min_power_for(net_.distance_between(uid, v));
      assert(w.has_value());
      weight[u].push_back(*w);
    }
  }

  // Initial vectors: self at cost 0; every zone neighbor via the direct link.
  // The zone list is sorted ascending, so splicing the node's own id into it
  // keeps `dests` sorted.
  std::vector<NodeVec> vec(n);
  for (std::size_t u = 0; u < n; ++u) {
    const net::NodeId uid{static_cast<std::uint32_t>(u)};
    const auto& zone = zones_->zone(uid);
    NodeVec& nv = vec[u];
    nv.dests.reserve(zone.size() + 1);
    nv.val.reserve(zone.size() + 1);
    bool self_placed = false;
    for (std::size_t j = 0; j < zone.size(); ++j) {
      if (!self_placed && uid < zone[j]) {
        nv.dests.push_back(uid);
        nv.val.emplace_back(0.0, 0);
        self_placed = true;
      }
      nv.dests.push_back(zone[j]);
      nv.val.emplace_back(weight[u][j], 1);
    }
    if (!self_placed) {
      nv.dests.push_back(uid);
      nv.val.emplace_back(0.0, 0);
    }
  }

  DbfStats stats;
  const double energy_before = net_.energy().routing_uj();

  // One n-entry index shared by every node: while node u relaxes,
  // slot[dest.v] is dest's position in u's own vector (kNoSlot elsewhere).
  // Each node scatters its neighbors' vectors through it, so a lookup is one
  // array read and the build holds no per-node index.
  std::vector<std::uint32_t> slot(n, kNoSlot);

  bool changed = true;
  // Next-round values only: dests never change, so the round copy is a
  // capacity-reusing memcpy of the (cost, hops) arrays.
  std::vector<std::vector<std::pair<double, int>>> next_val(n);
  while (changed && stats.rounds < params_.max_rounds) {
    ++stats.rounds;
    changed = false;

    // Every node broadcasts its vector once per round; charge the traffic.
    if (params_.charge_energy) {
      for (std::size_t u = 0; u < n; ++u) {
        const net::NodeId uid{static_cast<std::uint32_t>(u)};
        const std::size_t bytes =
            params_.header_bytes + params_.bytes_per_entry * (vec[u].dests.size() - 1);
        net_.charge_tx(uid, bytes, net_.zone_radius(), net::EnergyUse::kRouting);
        for (const net::NodeId v : zones_->zone(uid)) {
          net_.charge_rx(v, bytes, net::EnergyUse::kRouting);
        }
        ++stats.messages;
        stats.message_bytes += bytes;
      }
    } else {
      stats.messages += n;
    }

    // Synchronous relaxation against the previous round's vectors.  Each of
    // u's entries keeps the lexicographic minimum of (cost, hops) over its
    // own value and every neighbor's offer, which does not depend on the
    // order the neighbors are visited in.  A node's route to itself stays
    // (0, 0): its own id gets no slot.
    for (std::size_t u = 0; u < n; ++u) {
      const NodeVec& cu = vec[u];
      auto& next = next_val[u];
      next = cu.val;
      for (std::size_t i = 0; i < cu.dests.size(); ++i) {
        if (cu.dests[i].v != u) slot[cu.dests[i].v] = static_cast<std::uint32_t>(i);
      }
      const auto& zone = zones_->zone(net::NodeId{static_cast<std::uint32_t>(u)});
      for (std::size_t j = 0; j < zone.size(); ++j) {
        const NodeVec& cv = vec[zone[j].v];
        for (std::size_t k = 0; k < cv.dests.size(); ++k) {
          const std::uint32_t s = slot[cv.dests[k].v];
          if (s == kNoSlot) continue;  // u does not hold that destination
          const double cand = weight[u][j] + cv.val[k].first;
          const int cand_hops = cv.val[k].second + 1;
          auto& entry = next[s];
          if (cand < entry.first || (cand == entry.first && cand_hops < entry.second)) {
            entry = {cand, cand_hops};
            changed = true;
          }
        }
      }
      for (const net::NodeId dest : cu.dests) slot[dest.v] = kNoSlot;
    }
    for (std::size_t u = 0; u < n; ++u) std::swap(vec[u].val, next_val[u]);
  }
  stats.converged = !changed;

  // Final tables: best and second-best (distinct first hop) per destination,
  // derived from the converged neighbor vectors — exactly the "cost of going
  // to the destination through each of its neighbors" the paper stores.
  // The same scatter fills them: each destination keeps the top two offers
  // by route_less, and every neighbor offers at most once (distinct first
  // hops), so the neighbor order does not matter either.
  std::vector<RouteEntry> entries;
  for (std::size_t u = 0; u < n; ++u) {
    const auto& zone = zones_->zone(net::NodeId{static_cast<std::uint32_t>(u)});
    entries.assign(zone.size(), RouteEntry{});
    for (std::size_t i = 0; i < zone.size(); ++i) slot[zone[i].v] = static_cast<std::uint32_t>(i);
    for (std::size_t j = 0; j < zone.size(); ++j) {
      const NodeVec& cv = vec[zone[j].v];
      for (std::size_t k = 0; k < cv.dests.size(); ++k) {
        const std::uint32_t s = slot[cv.dests[k].v];
        if (s == kNoSlot) continue;
        const Route cand{zone[j], weight[u][j] + cv.val[k].first, cv.val[k].second + 1};
        RouteEntry& entry = entries[s];
        if (route_less(cand, entry.best)) {
          entry.second = entry.best;
          entry.best = cand;
        } else if (route_less(cand, entry.second)) {
          entry.second = cand;
        }
      }
    }
    tables_[u].reserve(zone.size());
    for (std::size_t i = 0; i < zone.size(); ++i) {
      slot[zone[i].v] = kNoSlot;
      tables_[u].set(zone[i], entries[i]);
    }
  }

  stats.energy_uj = net_.energy().routing_uj() - energy_before;
  last_stats_ = stats;
  total_stats_.rounds += stats.rounds;
  total_stats_.messages += stats.messages;
  total_stats_.message_bytes += stats.message_bytes;
  total_stats_.energy_uj += stats.energy_uj;
  total_stats_.converged = stats.converged;

  // Route churn: best-first-hop changes vs. the previous tables.  Emits one
  // typed record per node with churn when the trace is enabled; the counters
  // are maintained regardless (rebuilds are rare — mobility epochs — so the
  // diff never shows up on the event hot path).
  ++rebuilds_;
  if (!old_tables.empty()) {
    auto& events = net_.simulation().events();
    for (std::size_t u = 0; u < n; ++u) {
      std::uint64_t changed = 0;
      for (const auto& [dest, entry] : tables_[u].entries()) {
        const RouteEntry* old = old_tables[u].find(dest);
        if (old == nullptr ? entry.best.next_hop.valid()
                           : old->best.next_hop != entry.best.next_hop) {
          ++changed;
        }
      }
      for (const auto& [dest, entry] : old_tables[u].entries()) {
        if (tables_[u].find(dest) == nullptr && entry.best.next_hop.valid()) ++changed;
      }
      route_changes_ += changed;
      if (changed > 0 && events.enabled()) {
        events.emit({.at = net_.simulation().now(), .kind = obs::TraceKind::kRouteChange,
                     .node = net::NodeId{static_cast<std::uint32_t>(u)},
                     .value = static_cast<double>(changed)});
      }
    }
  }
  return stats;
}

std::optional<Route> dijkstra_reference(const net::Network& net, const ZoneMap& zones,
                                        net::NodeId from, net::NodeId dest) {
  if (!zones.in_zone(from, dest)) return std::nullopt;

  // Vertex set: `from`, `dest`, and every node that has `dest` in its zone
  // (the only nodes that can relay toward `dest` under zone-local routing).
  const std::size_t n = net.size();
  std::vector<bool> allowed(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId id{static_cast<std::uint32_t>(i)};
    allowed[i] = (id == from) || (id == dest) || zones.in_zone(id, dest);
  }

  std::vector<double> dist(n, kInf);
  std::vector<int> hops(n, 0);
  std::vector<net::NodeId> first_hop(n);
  std::vector<bool> done(n, false);
  dist[from.v] = 0.0;

  for (;;) {
    // Extract-min (linear scan: reference code favours clarity).
    std::size_t u = n;
    double best = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (!done[i] && allowed[i] && dist[i] < best) {
        best = dist[i];
        u = i;
      }
    }
    if (u == n) break;
    done[u] = true;
    const net::NodeId uid{static_cast<std::uint32_t>(u)};
    if (uid == dest) break;
    for (const net::NodeId v : zones.zone(uid)) {
      if (!allowed[v.v] || done[v.v]) continue;
      const auto w = net.radio().min_power_for(net.distance_between(uid, v));
      if (!w) continue;
      const double cand = dist[u] + *w;
      const int cand_hops = hops[u] + 1;
      const net::NodeId cand_first = (uid == from) ? v : first_hop[u];
      const bool improves =
          cand < dist[v.v] ||
          (cand == dist[v.v] && (cand_hops < hops[v.v] ||
                                 (cand_hops == hops[v.v] && cand_first < first_hop[v.v])));
      if (improves) {
        dist[v.v] = cand;
        hops[v.v] = cand_hops;
        first_hop[v.v] = cand_first;
      }
    }
  }

  if (dist[dest.v] == kInf) return std::nullopt;
  return Route{first_hop[dest.v], dist[dest.v], hops[dest.v]};
}

}  // namespace spms::routing
