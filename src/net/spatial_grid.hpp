#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/geometry.hpp"

/// \file spatial_grid.hpp
/// Uniform-grid spatial index over node positions.
///
/// The network keys the grid on the deployment's zone radius, so the
/// dominant query (a zone-radius disc) touches at most a 3x3 block of cells
/// instead of scanning every node — neighbor lookup, contention counting and
/// frame delivery drop from O(n) to O(nodes in the disc's cell block).
///
/// Invariants (the Network maintains them; the property suite in
/// tests/net/spatial_grid_test.cpp checks them against brute force):
///  * every inserted id lives in exactly one cell — the cell of the position
///    the caller last declared for it (insert() or move());
///  * visit_disc() enumerates a conservative superset of the disc: every id
///    whose declared position lies within `radius_m` (Euclidean) of the
///    center is visited; ids slightly outside may be visited too, so callers
///    must apply the exact distance_sq(p, c) <= r*r test themselves — this
///    keeps membership decisions bit-identical to the brute-force scan;
///  * within-cell order is insertion order perturbed by removals
///    (swap-erase), hence unspecified: callers needing deterministic output
///    sort the survivors (Network::neighbors_within returns ascending id);
///  * liveness/up-down state is *not* tracked here — a down node keeps its
///    cell (zone membership ignores transient failures); callers filter.
///
/// Complexity: insert O(1) amortized, move O(cell occupancy) for the
/// swap-erase, visit O(cells overlapped + candidates).  Cell vectors are
/// recycled by the map, so a settled deployment queries without allocating.

namespace spms::net {

class SpatialGrid {
 public:
  SpatialGrid() = default;

  /// Re-keys the grid: `cell_size_m` (> 0) becomes the bucket edge length.
  /// Drops all entries; callers re-insert.
  void reset(double cell_size_m, std::size_t expected_nodes);

  /// Registers `id` at `p`.  Each id must be inserted at most once.
  void insert(std::uint32_t id, Point p);

  /// Moves `id` from its declared position `from` to `to` (mobility
  /// teleport).  `from` must be the position previously declared.
  void move(std::uint32_t id, Point from, Point to);

  /// Invokes `visit(id)` for every id whose cell overlaps the axis-aligned
  /// bounding box of the disc (center, radius_m).  Superset semantics: see
  /// the file comment.
  template <typename Visit>
  void visit_disc(Point center, double radius_m, Visit&& visit) const {
    ++queries_;
    const std::int64_t cx0 = coord(center.x - radius_m);
    const std::int64_t cx1 = coord(center.x + radius_m);
    const std::int64_t cy0 = coord(center.y - radius_m);
    const std::int64_t cy1 = coord(center.y + radius_m);
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
        const auto it = cells_.find(key(cx, cy));
        if (it == cells_.end()) continue;
        for (const std::uint32_t id : it->second) visit(id);
      }
    }
  }

  [[nodiscard]] double cell_size() const { return cell_; }

  /// Cumulative visit_disc() calls (observability gauge; reset() clears it).
  [[nodiscard]] std::uint64_t query_count() const { return queries_; }

 private:
  [[nodiscard]] std::int64_t coord(double v) const {
    return static_cast<std::int64_t>(std::floor(v * inv_cell_));
  }
  [[nodiscard]] static std::uint64_t key(std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  [[nodiscard]] std::uint64_t key_of(Point p) const { return key(coord(p.x), coord(p.y)); }

  double cell_ = 1.0;
  double inv_cell_ = 1.0;
  mutable std::uint64_t queries_ = 0;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
};

}  // namespace spms::net
