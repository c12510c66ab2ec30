#include "sim/heap4.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

/// The indexed 4-ary heap steps against an ordered reference (a std::set):
/// random pushes, erases at recorded indexes, re-keys with a re-sift, and
/// pops.  Each pop must return the reference's least entry, and after every
/// step each entry's recorded index must be where it sits.

namespace spms::sim {
namespace {

struct Entry {
  std::uint32_t key = 0;  ///< few distinct values, so ties are common
  std::uint32_t id = 0;   ///< unique: breaks the ties
};

constexpr auto before = [](const Entry& a, const Entry& b) {
  return a.key != b.key ? a.key < b.key : a.id < b.id;
};

/// A heap whose entries record their index in `index`, by id, as the
/// scheduler's slots and the wake heaps' parked records do.
struct IndexedHeap {
  static constexpr std::uint32_t kGone = 0xffffffffu;
  std::vector<Entry> heap;
  std::vector<std::uint32_t> index;  ///< by id: where the entry sits, or kGone

  auto placed() {
    return [this](const Entry& e, std::uint32_t pos) { index[e.id] = pos; };
  }

  void push(Entry e) {
    if (index.size() <= e.id) index.resize(e.id + 1, kGone);
    heap.push_back(e);
    heap4::sift_up(heap.data(), size() - 1, before, placed());
  }

  void erase_at(std::uint32_t pos) {
    index[heap[pos].id] = kGone;
    heap4::erase(heap.data(), size(), pos, before, placed());
    heap.pop_back();
  }

  /// Gives the entry at `pos` a new key and sifts it whichever way.
  void rekey_at(std::uint32_t pos, std::uint32_t key) {
    heap[pos].key = key;
    if (heap4::sift_down(heap.data(), size(), pos, before, placed()) == pos) {
      heap4::sift_up(heap.data(), pos, before, placed());
    }
  }

  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(heap.size()); }
};

/// Every entry sits where its index says, and no entry is before its
/// parent.
void expect_consistent(const IndexedHeap& h, std::size_t step) {
  for (std::uint32_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(h.index[h.heap[i].id], i) << "step " << step;
    if (i > 0) {
      ASSERT_FALSE(before(h.heap[i], h.heap[(i - 1) / 4])) << "step " << step;
    }
  }
}

TEST(Heap4Test, RandomStepsPopInReferenceOrderAndKeepIndexes) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng{seed};
    const auto below = [&](std::uint32_t n) {
      return std::uniform_int_distribution<std::uint32_t>{0, n - 1}(rng);
    };
    IndexedHeap h;
    std::set<std::pair<std::uint32_t, std::uint32_t>> ref;  // (key, id)
    std::uint32_t next_id = 0;
    for (std::size_t step = 0; step < 4000; ++step) {
      // Grow for the first half, then shrink.
      const std::uint32_t op = below(10);
      const bool growing = step < 2000;
      if (h.size() == 0 || op < (growing ? 5u : 2u)) {
        const Entry e{below(16), next_id++};
        h.push(e);
        ref.insert({e.key, e.id});
      } else if (op < 7) {
        const std::uint32_t pos = below(h.size());
        ref.erase({h.heap[pos].key, h.heap[pos].id});
        h.erase_at(pos);
      } else if (op < 9) {
        const std::uint32_t pos = below(h.size());
        const Entry old = h.heap[pos];
        ref.erase({old.key, old.id});
        const std::uint32_t key = below(16);
        ref.insert({key, old.id});
        h.rekey_at(pos, key);
        ASSERT_EQ(h.heap[h.index[old.id]].key, key) << "step " << step;
      } else {
        ASSERT_EQ(h.heap[0].key, ref.begin()->first) << "step " << step;
        ASSERT_EQ(h.heap[0].id, ref.begin()->second) << "step " << step;
        ref.erase(ref.begin());
        h.erase_at(0);
      }
      ASSERT_EQ(h.size(), ref.size()) << "step " << step;
      expect_consistent(h, step);
    }
    // Drain: the pops come out in the reference's order.
    for (const auto& [key, id] : ref) {
      ASSERT_EQ(h.heap[0].key, key);
      ASSERT_EQ(h.heap[0].id, id);
      h.erase_at(0);
      expect_consistent(h, 4000);
    }
    EXPECT_EQ(h.size(), 0u);
  }
}

}  // namespace
}  // namespace spms::sim
