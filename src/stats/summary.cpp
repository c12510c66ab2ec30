#include "stats/summary.hpp"

#include <cmath>

namespace spms::stats {

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::sample_stddev() const { return std::sqrt(sample_variance()); }

}  // namespace spms::stats
