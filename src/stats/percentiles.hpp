#pragma once

#include <cstddef>
#include <vector>

/// \file percentiles.hpp
/// Exact quantiles: every sample is retained and a query interpolates
/// between order statistics (numpy's default convention), so a quantile is
/// a pure function of the samples and byte-stable across runs.
///
/// The sample buffer reserves geometrically (explicit doubling from a fixed
/// floor) instead of relying on push_back's growth policy, and
/// sample_count()/memory_bytes() let collectors expose its footprint.

namespace spms::stats {

/// Accumulates observations and answers arbitrary quantile queries.
class Percentiles {
 public:
  /// Adds one observation.
  void add(double x) {
    if (xs_.size() == xs_.capacity()) {
      xs_.reserve(xs_.empty() ? kReserveFloor : xs_.capacity() * 2);
    }
    xs_.push_back(x);
    sorted_ = false;
  }

  /// Number of observations.
  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  /// Alias of count() named for footprint reporting alongside
  /// memory_bytes().
  [[nodiscard]] std::size_t sample_count() const { return count(); }

  /// Heap bytes held by the sample buffer (its capacity).
  [[nodiscard]] std::size_t memory_bytes() const { return xs_.capacity() * sizeof(double); }

  /// q-quantile for q in [0,1].  Hardened edges: zero observations return
  /// quiet NaN (a defined "no data" answer rather than a fabricated 0 that
  /// could be mistaken for a real measurement — callers that need a number
  /// must check count() first, as exp::run_experiment does), and q outside
  /// [0,1] asserts in debug builds and clamps in release builds.
  /// Not const: sorts lazily.
  [[nodiscard]] double quantile(double q);

  /// Convenience accessors.
  [[nodiscard]] double median() { return quantile(0.5); }
  [[nodiscard]] double p95() { return quantile(0.95); }
  [[nodiscard]] double p99() { return quantile(0.99); }

 private:
  /// First allocation, in samples; doubles thereafter.
  static constexpr std::size_t kReserveFloor = 1024;

  std::vector<double> xs_;
  bool sorted_ = false;
};

}  // namespace spms::stats
