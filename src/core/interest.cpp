#include "core/interest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/random.hpp"

namespace spms::core {

namespace {

/// Candidate radius for the exact test distance(a, b) <= r.  The grid's
/// superset covers distance_sq(a, b) <= r * r, and the square root can round
/// a point just outside that disc onto its edge, so gather a little wider.
double gather_radius(double r) { return r * (1.0 + 1e-9) + 1e-9; }

constexpr std::uint32_t kUnranked = std::numeric_limits<std::uint32_t>::max();

/// The ranked node (rank(v) != kUnranked) nearest `p`, the lowest rank on a
/// distance tie: what a strict-`<` scan over the ranked nodes in rank order
/// returns.  Searches discs of doubling radius, starting at `radius`, until
/// the best distance lies inside the disc searched or every node has been
/// seen.
template <typename Rank>
net::NodeId nearest(const net::Network& net, net::Point p, double radius, const Rank& rank) {
  for (;; radius *= 2.0) {
    net::NodeId best;
    double best_d = std::numeric_limits<double>::infinity();
    std::uint32_t best_rank = kUnranked;
    std::size_t seen = 0;
    net.visit_near(p, gather_radius(radius), [&](std::uint32_t v) {
      ++seen;
      const std::uint32_t k = rank(v);
      if (k == kUnranked) return;
      const double d = distance(net.position(net::NodeId{v}), p);
      if (d < best_d || (d == best_d && k < best_rank)) {
        best_d = d;
        best_rank = k;
        best = net::NodeId{v};
      }
    });
    if (best_d <= radius || seen == net.size()) return best;
  }
}

}  // namespace

ClusterInterest::ClusterInterest(const net::Network& net, double head_spacing_m, double p_other,
                                 std::uint64_t seed)
    : net_(net), p_other_(p_other), seed_(seed) {
  if (!(head_spacing_m > 0.0)) {
    throw std::invalid_argument{"ClusterInterest: head spacing must be positive"};
  }
  const std::size_t n = net.size();
  // Bounding box of the deployment.
  double max_x = 0.0, max_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = net.position(net::NodeId{static_cast<std::uint32_t>(i)});
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const auto cells_x = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(max_x / head_spacing_m)));
  const auto cells_y = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(max_y / head_spacing_m)));

  // head_rank[v]: v's position in heads_, or kUnranked for non-heads.
  std::vector<std::uint32_t> head_rank(n, kUnranked);
  const auto by_id = [](std::uint32_t v) { return v; };
  for (std::size_t cy = 0; cy < cells_y; ++cy) {
    for (std::size_t cx = 0; cx < cells_x; ++cx) {
      const net::Point centre{(static_cast<double>(cx) + 0.5) * head_spacing_m,
                              (static_cast<double>(cy) + 0.5) * head_spacing_m};
      const net::NodeId best = nearest(net, centre, head_spacing_m / 2.0, by_id);
      if (best.valid() && head_rank[best.v] == kUnranked) {
        head_rank[best.v] = static_cast<std::uint32_t>(heads_.size());
        heads_.push_back(best);
      }
    }
  }

  const auto by_head_rank = [&](std::uint32_t v) { return head_rank[v]; };
  head_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId id{static_cast<std::uint32_t>(i)};
    head_of_[i] = nearest(net, net.position(id), head_spacing_m, by_head_rank);
  }
}

bool ClusterInterest::hash_wants(net::NodeId node, net::DataId item) const {
  // An avalanche over the (seed, node, item) triple: a stable draw that
  // consumes no RNG state.
  const std::uint64_t h = sim::mix64(seed_ ^ (static_cast<std::uint64_t>(node.v) << 40) ^
                                     (static_cast<std::uint64_t>(item.origin.v) << 20) ^ item.seq);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p_other_;
}

bool ClusterInterest::wants(net::NodeId node, net::DataId item) const {
  if (node == item.origin) return false;
  if (node == head_of_.at(item.origin.v)) return true;
  // Non-heads inside the origin's zone are interested with probability p.
  if (distance(net_.position(node), net_.position(item.origin)) <= net_.zone_radius()) {
    return hash_wants(node, item);
  }
  return false;
}

std::size_t ClusterInterest::expected_count(net::DataId item) const {
  // The origin's head wants the item wherever it is; every other interested
  // node lies in the origin's zone, so only the zone's candidates are tested.
  const net::NodeId head = head_of_.at(item.origin.v);
  std::size_t count = head == item.origin ? 0 : 1;
  net_.visit_near(net_.position(item.origin), gather_radius(net_.zone_radius()),
                  [&](std::uint32_t v) {
                    const net::NodeId id{v};
                    if (id != head && wants(id, item)) ++count;
                  });
  return count;
}

}  // namespace spms::core
