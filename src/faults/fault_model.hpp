#pragma once

#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

/// \file fault_model.hpp
/// The pluggable fault-process interface.
///
/// A FaultModel is one deterministic, seedable stressor (crash/repair
/// renewal, region blackouts, battery deaths, link fades, sink churn…).
/// Models never touch node state directly: they route every transition
/// through the FaultController, whose ref-counted down-state composes
/// overlapping faults from different models correctly.
///
/// Determinism contract: each model owns a private RNG sub-stream forked
/// from the run's root seed with a model-specific stream id, and draws from
/// it unconditionally on its own schedule.  A model's fault-initiation
/// timeline is therefore a pure function of its own stream — enabling or
/// disabling any other model never perturbs it (tests/faults pins this).

namespace spms::faults {

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Stable model id; also the tag on observer events.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Starts the process.  No fault is initiated at or after `horizon`
  /// (repairs in flight still complete, so transient models leave the
  /// network fully up at the end of the run).
  virtual void start(sim::TimePoint horizon) = 0;

  /// Fault events initiated by this model so far.
  [[nodiscard]] virtual std::uint64_t events_injected() const = 0;
};

/// RNG sub-stream ids, one per model.  A model's stream fixes its timeline,
/// so changing an id moves every run that enables the model.
inline constexpr std::uint64_t kCrashStream = 0xFA11;
inline constexpr std::uint64_t kRegionStream = 0xFA12;
inline constexpr std::uint64_t kBatteryStream = 0xFA13;
inline constexpr std::uint64_t kLinkStream = 0xFA14;
inline constexpr std::uint64_t kSinkChurnStream = 0xFA15;

}  // namespace spms::faults
