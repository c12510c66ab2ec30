#pragma once

#include <cstddef>
#include <limits>
#include <ostream>

/// \file summary.hpp
/// Streaming scalar statistics (Welford's algorithm).

namespace spms::stats {

/// Accumulates count / mean / variance / min / max in O(1) memory.
/// Numerically stable for long runs (Welford update).
class Summary {
 public:
  /// Adds one observation.
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two observations.
  [[nodiscard]] double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double stddev() const;
  /// Unbiased (n-1) sample variance; 0 for fewer than two observations.
  [[nodiscard]] double sample_variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double sample_stddev() const;
  /// Standard error of the mean (sample stddev / sqrt(n)); 0 below two.
  [[nodiscard]] double stderr_mean() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

std::ostream& operator<<(std::ostream& os, const Summary& s);

}  // namespace spms::stats
