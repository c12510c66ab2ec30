#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

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

// The heap is 4-ary: parent of i is (i-1)/4, children are 4i+1..4i+4.
// Halving the depth (vs binary) halves the scattered slots_[].heap_pos
// writes a sift performs, and the four children sit in adjacent memory, so
// the extra compares are cheap.  Arity is invisible to callers: execution
// order is fully determined by before()'s (at, seq) total order.

std::uint32_t Scheduler::sift_up(std::uint32_t pos) {
  HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = e;
  slots_[e.slot].heap_pos = pos;
  return pos;
}

std::uint32_t Scheduler::sift_down(std::uint32_t pos) {
  const auto size = static_cast<std::uint32_t>(heap_.size());
  HeapEntry e = heap_[pos];
  for (;;) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= size) break;
    std::uint32_t best = first;
    const std::uint32_t last = std::min(first + 4, size);
    for (std::uint32_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].heap_pos = pos;
    pos = best;
  }
  heap_[pos] = e;
  slots_[e.slot].heap_pos = pos;
  return pos;
}

void Scheduler::remove_heap_at(std::uint32_t pos) {
  const auto last = static_cast<std::uint32_t>(heap_.size() - 1);
  if (pos != last) {
    heap_[pos] = heap_[last];
    heap_.pop_back();
    slots_[heap_[pos].slot].heap_pos = pos;
    if (sift_down(pos) == pos) sift_up(pos);
  } else {
    heap_.pop_back();
  }
}

EventHandle Scheduler::schedule_at(TimePoint at, EventFn fn) {
  assert(fn);
  if (at < now_) at = now_;
  const std::uint32_t s = acquire_slot();
  Slot& slot = slots_[s];
  slot.fn = std::move(fn);
  heap_.push_back(HeapEntry{at, next_seq_++, s});
  slot.heap_pos = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(slot.heap_pos);
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
