#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
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
///  * every id lives in exactly one cell — the cell of the position the
///    caller last declared for it (reset() or move());
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
/// Storage is a dense cell array over the box of occupied cells, cx-major,
/// so a lookup is an index computation rather than a hash.  reset() sizes
/// the box from the deployment's bounding box; move() grows it only when a
/// node leaves it.  Complexity: move O(cell occupancy) for the swap-erase,
/// visit O(cells overlapped + candidates); a settled deployment queries and
/// moves inside the box without allocating.

namespace spms::net {

class SpatialGrid {
 public:
  SpatialGrid() = default;

  /// Re-keys the grid on `cell_size_m` (> 0) and indexes id i at
  /// `positions[i]`.  A bounding box holding more than a few cells per node
  /// (a sparse or elongated deployment) doubles the cell edge until it does
  /// not, so the array stays O(n); queries keep the superset contract.
  void reset(double cell_size_m, const std::vector<Point>& positions);

  /// Moves `id` from its declared position `from` to `to` (mobility
  /// teleport).  `from` must be the position previously declared.
  void move(std::uint32_t id, Point from, Point to);

  /// Invokes `visit(id)` for every id whose cell overlaps the axis-aligned
  /// bounding box of the disc (center, radius_m): cx outer, cy inner,
  /// within-cell order.  Superset semantics: see the file comment.
  template <typename Visit>
  void visit_disc(Point center, double radius_m, Visit&& visit) const {
    const std::int64_t cx0 = std::max(coord(center.x - radius_m), x0_);
    const std::int64_t cx1 = std::min(coord(center.x + radius_m), x0_ + nx_ - 1);
    const std::int64_t cy0 = std::max(coord(center.y - radius_m), y0_);
    const std::int64_t cy1 = std::min(coord(center.y + radius_m), y0_ + ny_ - 1);
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      const auto* column = &cells_[static_cast<std::size_t>((cx - x0_) * ny_)];
      for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
        for (const std::uint32_t id : column[cy - y0_]) visit(id);
      }
    }
  }

 private:
  [[nodiscard]] std::int64_t coord(double v) const {
    return static_cast<std::int64_t>(std::floor(v * inv_cell_));
  }
  [[nodiscard]] bool in_box(std::int64_t cx, std::int64_t cy) const {
    return cx >= x0_ && cx < x0_ + nx_ && cy >= y0_ && cy < y0_ + ny_;
  }
  [[nodiscard]] std::size_t index(std::int64_t cx, std::int64_t cy) const {
    return static_cast<std::size_t>((cx - x0_) * ny_ + (cy - y0_));
  }
  /// Re-lays the cell array over a box that also holds cell (cx, cy).
  void grow_to(std::int64_t cx, std::int64_t cy);

  double inv_cell_ = 1.0;
  std::int64_t x0_ = 0;  ///< cell coordinates of the box's low corner
  std::int64_t y0_ = 0;
  std::int64_t nx_ = 0;  ///< box extent in cells
  std::int64_t ny_ = 0;
  std::vector<std::vector<std::uint32_t>> cells_;  ///< index() order
};

}  // namespace spms::net
