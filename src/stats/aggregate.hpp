#pragma once

#include <cstddef>
#include <ostream>

#include "stats/summary.hpp"

/// \file aggregate.hpp
/// Dispersion statistics of one metric across repeated observations
/// (typically: one experiment metric across seeds).  A frozen snapshot of a
/// Summary, cheap to copy into result tables.

namespace spms::stats {

/// mean / stddev / stderr / min / max of a metric over n observations.
/// stddev is the unbiased (n-1) sample deviation; stderr is the standard
/// error of the mean.  All fields are 0 for n == 0 (and the dispersion
/// fields for n == 1), matching Summary's conventions.
struct Aggregate {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double stderr_mean = 0.0;
  double min = 0.0;
  double max = 0.0;

  [[nodiscard]] static Aggregate of(const Summary& s);
};

std::ostream& operator<<(std::ostream& os, const Aggregate& a);

}  // namespace spms::stats
