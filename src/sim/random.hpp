#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

/// \file random.hpp
/// Deterministic pseudo-randomness for simulations.
///
/// The generator is xoshiro256** seeded through SplitMix64, which is fast,
/// has a 2^256-1 period, and — unlike std::mt19937 with std::*_distribution —
/// produces identical streams on every platform, keeping experiment runs a
/// pure function of the seed.

namespace spms::sim {

/// SplitMix64's finalizer: a bijective avalanche of 64 bits.  It seeds and
/// forks Rng, spreads FlatMap's hashes and draws ClusterInterest's
/// bystanders without consuming RNG state.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic random number generator with the distribution helpers the
/// simulator needs (uniform, exponential, Bernoulli, permutations).
class Rng {
 public:
  /// Seeds the four 64-bit lanes via SplitMix64 so that any seed (including
  /// 0) yields a well-mixed state.
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit output.
  [[nodiscard]] std::uint64_t next();

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01();

  /// Uniform double in [lo, hi).  Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi] without modulo bias.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given mean (not rate).
  [[nodiscard]] double exponential(double mean);

  /// Exponentially distributed duration with the given mean; used for the
  /// paper's Poisson packet arrivals and failure inter-arrival times.
  [[nodiscard]] Duration exponential(Duration mean);

  /// Uniformly distributed duration in [lo, hi); used for repair times.
  [[nodiscard]] Duration uniform(Duration lo, Duration hi);

  /// True with probability `p` (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent generator for a sub-stream (e.g. one per node)
  /// so adding consumers does not perturb existing streams.
  [[nodiscard]] Rng fork(std::uint64_t stream) const;

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_ = 0;  // retained for fork()
};

}  // namespace spms::sim
