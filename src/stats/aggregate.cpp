#include "stats/aggregate.hpp"

namespace spms::stats {

Aggregate Aggregate::of(const Summary& s) {
  Aggregate a;
  a.n = s.count();
  a.mean = s.mean();
  a.stddev = s.sample_stddev();
  a.stderr_mean = s.stderr_mean();
  a.min = s.min();
  a.max = s.max();
  return a;
}

std::ostream& operator<<(std::ostream& os, const Aggregate& a) {
  return os << a.mean << " ± " << a.stderr_mean << " (sd=" << a.stddev << ", n=" << a.n
            << ", range [" << a.min << ", " << a.max << "])";
}

}  // namespace spms::stats
