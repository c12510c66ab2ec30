#include "net/spatial_grid.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace spms::net {

namespace {

/// Cells allowed per node before reset() coarsens the grid.
constexpr double kMaxCellsPerNode = 4.0;

}  // namespace

void SpatialGrid::reset(double cell_size_m, const std::vector<Point>& positions) {
  if (cell_size_m <= 0.0) throw std::invalid_argument{"SpatialGrid: cell size must be positive"};
  inv_cell_ = 1.0 / cell_size_m;
  x0_ = y0_ = nx_ = ny_ = 0;
  cells_.clear();
  if (positions.empty()) return;

  Point lo = positions.front();
  Point hi = lo;
  for (const Point p : positions) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  const double max_cells = kMaxCellsPerNode * static_cast<double>(positions.size()) + 64.0;
  for (double cell = cell_size_m;; cell *= 2.0) {
    inv_cell_ = 1.0 / cell;
    x0_ = coord(lo.x);
    y0_ = coord(lo.y);
    nx_ = coord(hi.x) - x0_ + 1;
    ny_ = coord(hi.y) - y0_ + 1;
    if (static_cast<double>(nx_) * static_cast<double>(ny_) <= max_cells) break;
  }

  // Exact per-cell capacity, so every occupied cell costs one allocation.
  cells_.resize(static_cast<std::size_t>(nx_ * ny_));
  std::vector<std::uint32_t> occupancy(cells_.size(), 0);
  for (const Point p : positions) ++occupancy[index(coord(p.x), coord(p.y))];
  for (std::size_t c = 0; c < cells_.size(); ++c) cells_[c].reserve(occupancy[c]);
  for (std::uint32_t id = 0; id < positions.size(); ++id) {
    cells_[index(coord(positions[id].x), coord(positions[id].y))].push_back(id);
  }
}

void SpatialGrid::move(std::uint32_t id, Point from, Point to) {
  const std::int64_t fx = coord(from.x);
  const std::int64_t fy = coord(from.y);
  const std::int64_t tx = coord(to.x);
  const std::int64_t ty = coord(to.y);
  if (fx == tx && fy == ty) return;
  auto& bucket = cells_[index(fx, fy)];
  const auto pos = std::find(bucket.begin(), bucket.end(), id);
  assert(pos != bucket.end());
  // Swap-erase: within-cell order is unspecified by contract, and callers
  // sort, so the O(1) removal never shows through.  The emptied vector keeps
  // its capacity: a node moving back pays no allocation.
  *pos = bucket.back();
  bucket.pop_back();
  if (!in_box(tx, ty)) grow_to(tx, ty);
  cells_[index(tx, ty)].push_back(id);
}

void SpatialGrid::grow_to(std::int64_t cx, std::int64_t cy) {
  // Each overflowing side grows by at least half the current extent, so a
  // walk away from the box re-lays the array O(log distance) times.
  std::int64_t x0 = x0_, x1 = x0_ + nx_ - 1;
  std::int64_t y0 = y0_, y1 = y0_ + ny_ - 1;
  if (cx < x0) x0 = cx - nx_ / 2;
  if (cx > x1) x1 = cx + nx_ / 2;
  if (cy < y0) y0 = cy - ny_ / 2;
  if (cy > y1) y1 = cy + ny_ / 2;
  const std::int64_t nx = x1 - x0 + 1;
  const std::int64_t ny = y1 - y0 + 1;
  std::vector<std::vector<std::uint32_t>> grown(static_cast<std::size_t>(nx * ny));
  for (std::int64_t i = 0; i < nx_; ++i) {
    for (std::int64_t j = 0; j < ny_; ++j) {
      grown[static_cast<std::size_t>((x0_ + i - x0) * ny + (y0_ + j - y0))] =
          std::move(cells_[static_cast<std::size_t>(i * ny_ + j)]);
    }
  }
  cells_ = std::move(grown);
  x0_ = x0;
  y0_ = y0;
  nx_ = nx;
  ny_ = ny;
}

}  // namespace spms::net
