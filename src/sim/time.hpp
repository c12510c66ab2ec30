#pragma once
#include <concepts>

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <ostream>

/// \file time.hpp
/// Strong time types for the discrete-event kernel.
///
/// The paper quotes every constant in milliseconds (e.g. TOutADV = 1.0 ms,
/// Ttx = 0.05 ms/byte).  Internally we keep integer nanoseconds so that
/// event ordering is exact and runs are bit-reproducible; the `ms`/`us`
/// constructors and accessors do the conversion at the edges.

namespace spms::sim {

/// A signed span of simulated time with nanosecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  /// Named constructors.
  [[nodiscard]] static constexpr Duration nanos(std::int64_t n) { return Duration{n}; }
  [[nodiscard]] static constexpr Duration micros(std::int64_t n) { return Duration{n * 1000}; }
  [[nodiscard]] static constexpr Duration millis(std::int64_t n) { return Duration{n * 1'000'000}; }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t n) { return Duration{n * 1'000'000'000}; }

  /// Fractional-millisecond constructor (rounds to the nearest nanosecond).
  [[nodiscard]] static Duration ms(double v) {
    return Duration{static_cast<std::int64_t>(std::llround(v * 1e6))};
  }
  /// Fractional-microsecond constructor (rounds to the nearest nanosecond).
  [[nodiscard]] static Duration us(double v) {
    return Duration{static_cast<std::int64_t>(std::llround(v * 1e3))};
  }

  [[nodiscard]] static constexpr Duration zero() { return Duration{0}; }
  [[nodiscard]] static constexpr Duration max() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t count_nanos() const { return ns_; }
  [[nodiscard]] constexpr double to_ms() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double to_us() const { return static_cast<double>(ns_) / 1e3; }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }

  [[nodiscard]] friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns_ + b.ns_}; }
  [[nodiscard]] friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns_ - b.ns_}; }
  [[nodiscard]] friend constexpr Duration operator-(Duration a) { return Duration{-a.ns_}; }
  template <std::integral I>
  [[nodiscard]] friend constexpr Duration operator*(Duration a, I k) {
    return Duration{a.ns_ * static_cast<std::int64_t>(k)};
  }
  template <std::integral I>
  [[nodiscard]] friend constexpr Duration operator*(I k, Duration a) { return a * k; }
  template <std::floating_point F>
  [[nodiscard]] friend Duration operator*(Duration a, F k) {
    return Duration{static_cast<std::int64_t>(std::llround(static_cast<double>(a.ns_) * static_cast<double>(k)))};
  }
  /// Ratio of two durations as a double (e.g. for rates).
  [[nodiscard]] friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// An absolute instant on the simulated clock.  Starts at zero().
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint zero() { return TimePoint{}; }
  [[nodiscard]] static constexpr TimePoint max() {
    return TimePoint{Duration::max()};
  }
  /// Instant `d` after the epoch.
  [[nodiscard]] static constexpr TimePoint at(Duration d) { return TimePoint{d}; }

  /// Time elapsed since the simulation epoch.
  [[nodiscard]] constexpr Duration since_epoch() const { return d_; }
  [[nodiscard]] constexpr double to_ms() const { return d_.to_ms(); }

  constexpr auto operator<=>(const TimePoint&) const = default;

  [[nodiscard]] friend constexpr TimePoint operator+(TimePoint t, Duration d) { return TimePoint{t.d_ + d}; }
  [[nodiscard]] friend constexpr TimePoint operator+(Duration d, TimePoint t) { return t + d; }
  [[nodiscard]] friend constexpr TimePoint operator-(TimePoint t, Duration d) { return TimePoint{t.d_ - d}; }
  [[nodiscard]] friend constexpr Duration operator-(TimePoint a, TimePoint b) { return a.d_ - b.d_; }

 private:
  constexpr explicit TimePoint(Duration d) : d_(d) {}
  Duration d_;
};

inline std::ostream& operator<<(std::ostream& os, Duration d) { return os << d.to_ms() << "ms"; }
inline std::ostream& operator<<(std::ostream& os, TimePoint t) { return os << "t=" << t.to_ms() << "ms"; }

}  // namespace spms::sim
