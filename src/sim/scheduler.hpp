#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

/// \file scheduler.hpp
/// The event loop at the heart of the discrete-event simulator.
///
/// Events are callbacks ordered by (time, insertion sequence); ties on the
/// clock break FIFO, which makes runs deterministic.  The queue is an
/// intrusive, handle-indexed 4-ary min-heap (the steps of heap4.hpp):
///
///  * heap_ holds 24-byte {time, seq, slot} entries — sift operations move
///    PODs, never callbacks;
///  * slots_ holds the callbacks plus, per slot, the entry's current heap
///    position (so cancel() can remove it in O(log n)) and a generation
///    counter;
///  * an EventHandle packs (generation << 32 | slot+1).  Firing or
///    cancelling bumps the slot's generation, so a stale handle — already
///    fired, already cancelled, or from a recycled slot — never matches and
///    cancel() on it is a harmless no-op.
///
/// Invariants:
///  * slots_[heap_[i].slot].heap_pos == i for every queued entry;
///  * a slot is queued iff its generation matches some live handle;
///    free slots chain through heap_pos as a free list;
///  * seq increases by one per schedule_*() call (never reused), so FIFO
///    tie-breaking is identical to the seed scheduler's and byte-for-byte
///    reproducibility is preserved;
///  * pending() == heap_.size() — O(1), no side tables: cancellation is
///    true removal, so there are no dead entries to discount (the seed's
///    lazy-cancel live_/cancelled_ hash sets are gone).

namespace spms::sim {

/// Callback invoked when an event fires (small-buffer-optimized; see
/// callback.hpp — typical closures schedule without allocating).
using EventFn = InlineFn;

/// Opaque handle to a scheduled event; used only for cancellation.
/// A default-constructed handle is invalid and safe to cancel (a no-op).
struct EventHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return id != 0; }
};

/// Handle-indexed 4-ary-heap event scheduler.
///
/// Usage:
///   Scheduler s;
///   s.schedule_after(Duration::ms(1.0), [&]{ ... });
///   s.run();
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time (the firing time of the last executed event).
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `at`.  Scheduling in the past is a
  /// programming error and is clamped to `now()` (the event still runs).
  EventHandle schedule_at(TimePoint at, EventFn fn);

  /// Schedules `fn` after delay `d` from now.  Negative delays clamp to 0.
  EventHandle schedule_after(Duration d, EventFn fn);

  /// Cancels a pending event: O(log n) true removal from the heap.
  /// Cancelling an already-fired, already-cancelled, or invalid handle is a
  /// harmless no-op (the generation check rejects stale handles).
  void cancel(EventHandle h);

  /// Runs the next pending event.  Returns false if the queue is empty.
  bool run_one();

  /// Runs events with firing time <= `until`.  Afterwards now() == `until`
  /// unless the queue drained earlier.  Returns the number executed.
  std::size_t run_until(TimePoint until);

  /// Runs until the queue is empty.  Returns the number executed.
  /// `max_events` guards against runaway feedback loops; hitting the guard
  /// stops the loop (callers treat this as a failed run).
  std::size_t run(std::size_t max_events = kDefaultMaxEvents);

  /// Number of pending events — O(1) off the heap size.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Cumulative events executed / cancelled over the scheduler's lifetime
  /// (observability counters; pending() is the matching depth gauge).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::uint64_t events_cancelled() const { return cancelled_; }

  /// Observation hook called after each executed event, at the event's
  /// firing time.  Strictly read-only with respect to the event stream: the
  /// hook must not schedule, cancel, or draw randomness (the telemetry
  /// Sampler snapshots gauges here).  Pass nullptr to clear.  Disabled cost
  /// is a single branch per event.
  using DispatchHook = std::function<void(TimePoint)>;
  void set_dispatch_hook(DispatchHook hook) { dispatch_hook_ = std::move(hook); }

  /// True if the guard in run() ever tripped (sticky across run() calls: a
  /// poisoned run stays poisoned even if a later drain succeeds).
  [[nodiscard]] bool event_limit_hit() const { return limit_hit_; }

  static constexpr std::size_t kDefaultMaxEvents = 500'000'000;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// One heap entry: the ordering key plus the index of its slot.  Sift
  /// operations move these 24-byte PODs; the callback never moves.
  struct HeapEntry {
    TimePoint at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  /// Callback storage, handle generation, and the entry's heap position
  /// (doubles as the next-free link while the slot is on the free list).
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    std::uint32_t heap_pos = 0;
  };

  /// The queue's strict total order: time, then insertion sequence.
  static constexpr auto before = [](const HeapEntry& a, const HeapEntry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  };

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t s);

  /// The heap4 steps' callback: keeps slots_[*].heap_pos on the entries.
  [[nodiscard]] auto placed() {
    return [this](const HeapEntry& e, std::uint32_t pos) { slots_[e.slot].heap_pos = pos; };
  }

  /// Removes the entry at heap position `pos` (last entry into the hole).
  void remove_heap_at(std::uint32_t pos);

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  DispatchHook dispatch_hook_;
  bool limit_hit_ = false;
};

}  // namespace spms::sim
