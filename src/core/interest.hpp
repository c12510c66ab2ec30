#pragma once

#include <cstdint>
#include <vector>

#include "net/ids.hpp"
#include "net/network.hpp"

/// \file interest.hpp
/// Which nodes want which data items.
///
/// The paper evaluates two communication patterns:
///  * all-to-all (Section 5.1): "each node generates 10 new packets and
///    every other node in the network is interested in receiving each
///    packet";
///  * cluster-based hierarchical (Section 5.2): "the cluster heads are
///    responsible for collecting the data … The other nodes in the zone of
///    the source node can also be interested in data with a probability of
///    5%."
///
/// wants() must be a pure function of (node, item) so that protocols,
/// collectors and tests all agree on the interested set; randomized interest
/// therefore hashes (seed, node, item) instead of consuming RNG state.

namespace spms::core {

/// Interest predicate interface.
class Interest {
 public:
  virtual ~Interest() = default;

  /// True when `node` wants `item`.  Must be deterministic.
  [[nodiscard]] virtual bool wants(net::NodeId node, net::DataId item) const = 0;

  /// Number of nodes that want `item` (the collector's expected-delivery
  /// count).
  [[nodiscard]] virtual std::size_t expected_count(net::DataId item) const = 0;
};

/// Everyone except the origin wants every item.
class AllToAllInterest final : public Interest {
 public:
  explicit AllToAllInterest(std::size_t node_count) : n_(node_count) {}

  [[nodiscard]] bool wants(net::NodeId node, net::DataId item) const override {
    return node != item.origin;
  }
  [[nodiscard]] std::size_t expected_count(net::DataId) const override { return n_ - 1; }

 private:
  std::size_t n_;
};

/// Sink-based interest: one designated sink wants every item (the paper's
/// §5.1 "source to sink" special case of all-to-all).
class SinkInterest final : public Interest {
 public:
  explicit SinkInterest(net::NodeId sink) : sink_(sink) {}

  [[nodiscard]] bool wants(net::NodeId node, net::DataId item) const override {
    return node == sink_ && node != item.origin;
  }
  [[nodiscard]] std::size_t expected_count(net::DataId item) const override {
    return item.origin == sink_ ? 0 : 1;
  }
  [[nodiscard]] net::NodeId sink() const { return sink_; }

 private:
  net::NodeId sink_;
};

/// Cluster-based hierarchical interest: the head of the origin's cluster
/// always wants the item; other nodes inside the origin's zone want it with
/// probability `p_other` (hash-derived, deterministic).
///
/// Heads, head assignment and expected_count() search the network's spatial
/// grid instead of scanning the field: the grid supplies candidates, and the
/// same exact distance tests and tie-breaks as a full scan decide.
class ClusterInterest final : public Interest {
 public:
  /// Chooses cluster heads on a grid of `head_spacing_m` (> 0) cells: the
  /// node nearest each cell centre, lowest id on a tie, centres in raster
  /// order (rows outer).  Every node joins its nearest head, the head chosen
  /// first on a tie.
  ClusterInterest(const net::Network& net, double head_spacing_m, double p_other,
                  std::uint64_t seed);

  [[nodiscard]] bool wants(net::NodeId node, net::DataId item) const override;
  [[nodiscard]] std::size_t expected_count(net::DataId item) const override;

  [[nodiscard]] const std::vector<net::NodeId>& heads() const { return heads_; }
  [[nodiscard]] net::NodeId head_of(net::NodeId node) const { return head_of_.at(node.v); }

 private:
  [[nodiscard]] bool hash_wants(net::NodeId node, net::DataId item) const;

  const net::Network& net_;
  double p_other_;
  std::uint64_t seed_;
  std::vector<net::NodeId> heads_;
  std::vector<net::NodeId> head_of_;  ///< per node: its cluster head
};

}  // namespace spms::core
