#pragma once

#include <cstdint>
#include <utility>

#include "obs/event_trace.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

/// \file simulation.hpp
/// The simulation context: clock + event queue + seeded randomness + trace.
///
/// Every model object (radio medium, MAC, protocol agent, failure injector…)
/// holds a reference to one Simulation and interacts with the world only
/// through it, which keeps runs deterministic and modules decoupled.

namespace spms::sim {

/// Owns the scheduler, the root RNG and the trace hub for one run.
class Simulation {
 public:
  /// \param seed  Root seed; all randomness in the run derives from it.
  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const Scheduler& scheduler() const { return sched_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  /// The typed event trace; emit sites guard on events().enabled().
  [[nodiscard]] obs::EventTrace& events() { return events_; }
  [[nodiscard]] const obs::EventTrace& events() const { return events_; }

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return sched_.now(); }

  /// Schedules `fn` at absolute time `t`.
  EventHandle at(TimePoint t, EventFn fn) { return sched_.schedule_at(t, std::move(fn)); }

  /// Schedules `fn` after `d` from now.
  EventHandle after(Duration d, EventFn fn) { return sched_.schedule_after(d, std::move(fn)); }

  /// Cancels a pending event (no-op on invalid/fired handles).
  void cancel(EventHandle h) { sched_.cancel(h); }

  /// Runs to quiescence; returns number of events executed.
  std::size_t run(std::size_t max_events = Scheduler::kDefaultMaxEvents) { return sched_.run(max_events); }

  /// Runs all events up to and including time `until`.
  std::size_t run_until(TimePoint until) { return sched_.run_until(until); }

 private:
  Scheduler sched_;
  Rng rng_;
  obs::EventTrace events_;
};

}  // namespace spms::sim
