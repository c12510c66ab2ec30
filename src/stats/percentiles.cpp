#include "stats/percentiles.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace spms::stats {

double Percentiles::quantile(double q) {
  assert(q >= 0.0 && q <= 1.0 && "quantile: q outside [0,1]");
  q = std::clamp(q, 0.0, 1.0);  // release builds: clamp instead of UB below
  if (xs_.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  if (lo == hi) return xs_[lo];
  const double frac = pos - static_cast<double>(lo);
  return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
}

}  // namespace spms::stats
