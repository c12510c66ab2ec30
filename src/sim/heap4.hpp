#pragma once

#include <algorithm>
#include <cstdint>

/// \file heap4.hpp
/// The steps of an indexed 4-ary min-heap over a contiguous array, shared by
/// the scheduler's event queue and the protocols' parked-timer wake heaps.
///
/// The parent of entry i is (i-1)/4 and its children are 4i+1..4i+4.
/// Against a binary heap, the depth halves, and with it the position
/// writes a sift makes; the four children sit in adjacent memory, so the
/// extra compares are cheap.
///
/// Each step takes the heap's strict total order `before(a, b)` and a
/// callback `placed(entry, i)`, which it calls for every entry it moves,
/// with the index the entry lands at, so an owner can find an entry's
/// position in O(1) (to erase it).  With a strict total order the heap pops
/// one sequence, whatever its arity.

namespace spms::sim::heap4 {

/// Moves h[pos] toward the root past every ancestor it is before.  Returns
/// its final index.
template <class T, class Before, class Placed>
std::uint32_t sift_up(T* h, std::uint32_t pos, Before&& before, Placed&& placed) {
  const T e = h[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!before(e, h[parent])) break;
    h[pos] = h[parent];
    placed(h[pos], pos);
    pos = parent;
  }
  h[pos] = e;
  placed(h[pos], pos);
  return pos;
}

/// Moves h[pos] toward the leaves of the `size`-entry heap past every child
/// before it.  Returns its final index.
template <class T, class Before, class Placed>
std::uint32_t sift_down(T* h, std::uint32_t size, std::uint32_t pos, Before&& before,
                        Placed&& placed) {
  const T e = h[pos];
  for (;;) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= size) break;
    std::uint32_t best = first;
    const std::uint32_t last = std::min(first + 4, size);
    for (std::uint32_t c = first + 1; c < last; ++c) {
      if (before(h[c], h[best])) best = c;
    }
    if (!before(h[best], e)) break;
    h[pos] = h[best];
    placed(h[pos], pos);
    pos = best;
  }
  h[pos] = e;
  placed(h[pos], pos);
  return pos;
}

/// Erases h[pos] from the `size`-entry heap: the last entry moves into the
/// hole and sifts whichever way restores the order.  The heap then holds
/// h[0, size - 1); the caller shrinks its storage.
template <class T, class Before, class Placed>
void erase(T* h, std::uint32_t size, std::uint32_t pos, Before&& before, Placed&& placed) {
  const std::uint32_t last = size - 1;
  if (pos == last) return;
  h[pos] = h[last];
  if (sift_down(h, last, pos, before, placed) == pos) sift_up(h, pos, before, placed);
}

}  // namespace spms::sim::heap4
