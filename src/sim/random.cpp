#include "sim/random.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace spms::sim {

namespace {

constexpr std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  return mix64(x);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() {
  // 53 high bits -> double in [0,1) with full mantissa coverage.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() - std::numeric_limits<std::uint64_t>::max() % span;
  std::uint64_t r = next();
  while (r >= limit) r = next();
  return lo + static_cast<std::int64_t>(r % span);
}

double Rng::exponential(double mean) {
  assert(mean > 0);
  // Inverse CDF; 1 - uniform01() is in (0,1] so the log argument is never 0.
  return -mean * std::log(1.0 - uniform01());
}

Duration Rng::exponential(Duration mean) {
  return Duration::ms(exponential(mean.to_ms()));
}

Duration Rng::uniform(Duration lo, Duration hi) {
  return Duration::ms(uniform(lo.to_ms(), hi.to_ms()));
}

bool Rng::bernoulli(double p) {
  return uniform01() < std::clamp(p, 0.0, 1.0);
}

Rng Rng::fork(std::uint64_t stream) const {
  // Mix the parent seed with the stream id through SplitMix64 so that
  // sibling streams are decorrelated even for adjacent ids.
  std::uint64_t x = seed_ ^ (0xd1342543de82ef95ULL * (stream + 1));
  return Rng{splitmix64(x)};
}

}  // namespace spms::sim
