#include "sim/scheduler.hpp"

#include <cassert>
#include <utility>

#include "sim/heap4.hpp"

namespace spms::sim {

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t s = free_head_;
    free_head_ = slots_[s].heap_pos;  // next-free link
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t s) {
  Slot& slot = slots_[s];
  ++slot.gen;  // invalidate every outstanding handle to this slot
  slot.heap_pos = free_head_;
  free_head_ = s;
}

void Scheduler::remove_heap_at(std::uint32_t pos) {
  heap4::erase(heap_.data(), static_cast<std::uint32_t>(heap_.size()), pos, before, placed());
  heap_.pop_back();
}

EventHandle Scheduler::schedule_at(TimePoint at, EventFn fn) {
  assert(fn);
  if (at < now_) at = now_;
  const std::uint32_t s = acquire_slot();
  Slot& slot = slots_[s];
  slot.fn = std::move(fn);
  heap_.push_back(HeapEntry{at, next_seq_++, s});
  heap4::sift_up(heap_.data(), static_cast<std::uint32_t>(heap_.size() - 1), before, placed());
  return EventHandle{(static_cast<std::uint64_t>(slot.gen) << 32) | (s + 1)};
}

EventHandle Scheduler::schedule_after(Duration d, EventFn fn) {
  if (d < Duration::zero()) d = Duration::zero();
  return schedule_at(now_ + d, std::move(fn));
}

void Scheduler::cancel(EventHandle h) {
  if (!h.valid()) return;
  const std::uint32_t s = static_cast<std::uint32_t>(h.id & 0xffffffffu) - 1;
  if (s >= slots_.size()) return;
  Slot& slot = slots_[s];
  // Generation mismatch == stale handle (fired, cancelled, or the slot was
  // recycled for a newer event): strictly a no-op.
  if (slot.gen != static_cast<std::uint32_t>(h.id >> 32)) return;
  const std::uint32_t pos = slot.heap_pos;
  slot.fn.reset();
  release_slot(s);
  remove_heap_at(pos);
  ++cancelled_;
}

bool Scheduler::run_one() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  assert(top.at >= now_);
  // Detach the callback and retire the entry *before* invoking: the callback
  // may schedule (growing slots_/heap_) or cancel, so no reference into
  // either vector may live across the call.
  EventFn fn = std::move(slots_[top.slot].fn);
  release_slot(top.slot);
  remove_heap_at(0);
  now_ = top.at;
  fn();
  ++executed_;
  if (dispatch_hook_) dispatch_hook_(now_);
  return true;
}

std::size_t Scheduler::run_until(TimePoint until) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_[0].at <= until) {
    run_one();
    ++executed;
  }
  if (now_ < until) now_ = until;
  return executed;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && run_one()) ++executed;
  if (executed >= max_events && !heap_.empty()) limit_hit_ = true;
  return executed;
}

}  // namespace spms::sim
