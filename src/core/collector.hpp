#pragma once

#include <cstdint>

#include "core/item_table.hpp"
#include "net/ids.hpp"
#include "sim/time.hpp"
#include "stats/percentiles.hpp"
#include "stats/summary.hpp"

/// \file collector.hpp
/// Per-run delivery and delay bookkeeping.
///
/// The paper's delay metric: "The delay is measured from the time the ADV
/// packet is sent out by the source to the time that the data packet is
/// received at the destination", averaged over all deliveries.  The
/// collector records the publish instant per item and turns each delivery
/// into one delay sample.

namespace spms::core {

/// Collects delivery events; wire record_delivery into
/// DisseminationProtocol::set_delivery_callback.
class Collector {
 public:
  Collector() = default;
  /// \param pct  engine for the delay quantiles — scale scenarios opt into
  ///        the t-digest sketch; everything else keeps exact samples.
  explicit Collector(stats::PercentileOptions pct) : delay_pct_(pct) {}

  /// Registers a published item with its expected number of deliveries.
  void record_publish(net::DataId item, sim::TimePoint at, std::size_t expected_deliveries);

  /// Registers a delivery; duplicates per (node,item) are the protocol's
  /// responsibility to prevent and are counted separately if they occur.
  /// Returns the delay sample in milliseconds, or a negative value when the
  /// item was never published here (counted in unknown_item_deliveries).
  double record_delivery(net::NodeId node, net::DataId item, sim::TimePoint at);

  [[nodiscard]] std::size_t published() const { return published_at_.size(); }
  [[nodiscard]] std::size_t expected_deliveries() const { return expected_; }
  [[nodiscard]] std::size_t deliveries() const { return delivered_; }
  [[nodiscard]] std::uint64_t unknown_item_deliveries() const { return unknown_; }

  /// deliveries / expected_deliveries in [0,1]; 1.0 when nothing expected.
  [[nodiscard]] double delivery_ratio() const;
  [[nodiscard]] bool all_delivered() const { return delivered_ >= expected_; }

  /// Delay distribution over all deliveries, in milliseconds.
  [[nodiscard]] const stats::Summary& delay_ms() const { return delay_; }
  [[nodiscard]] stats::Percentiles& delay_percentiles() { return delay_pct_; }

 private:
  FlatMap<net::DataId, sim::TimePoint> published_at_;
  std::size_t expected_ = 0;
  std::size_t delivered_ = 0;
  std::uint64_t unknown_ = 0;
  stats::Summary delay_;
  stats::Percentiles delay_pct_;
};

}  // namespace spms::core
