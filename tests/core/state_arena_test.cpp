#include "core/state_arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

/// The arena's contract: bump allocation with correct alignment, wholesale
/// release, allocator-equality by arena identity, and byte-identical
/// container behaviour to the std default — including the order in which
/// ItemTable walks a node's items (the determinism pin).

namespace spms::core {
namespace {

TEST(StateArenaTest, AlignsAndBumps) {
  StateArena arena;
  void* a = arena.allocate(1, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(16, 16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 16, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.bytes_used(), 1u + 8u + 16u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(StateArenaTest, OversizedRequestGetsDedicatedSlab) {
  StateArena arena{64};
  void* p = arena.allocate(1 << 16, 8);  // far beyond the first slab
  EXPECT_NE(p, nullptr);
  EXPECT_GE(arena.bytes_reserved(), std::size_t{1} << 16);
  // The arena remains usable afterwards.
  void* q = arena.allocate(32, 8);
  EXPECT_NE(q, nullptr);
}

TEST(StateArenaTest, SlabsGrowGeometrically) {
  StateArena arena{128};
  const std::size_t before = arena.bytes_reserved();
  for (int i = 0; i < 1000; ++i) arena.allocate(64, 8);
  // 64 KB of demand out of a 128-byte first slab: only a handful of slabs
  // (geometric growth), not one per allocation.
  EXPECT_GT(arena.bytes_reserved(), before);
  EXPECT_LT(arena.bytes_reserved(), 4u * 64u * 1024u);
}

TEST(ArenaAllocatorTest, EqualityFollowsArenaIdentity) {
  StateArena a, b;
  ArenaAllocator<int> aa{a}, aa2{a}, ab{b}, heap{};
  EXPECT_TRUE(aa == aa2);
  EXPECT_FALSE(aa == ab);
  EXPECT_FALSE(aa == heap);
  EXPECT_TRUE(heap == ArenaAllocator<long>{});
  // Rebinding preserves the arena.
  ArenaAllocator<double> rebound{aa};
  EXPECT_EQ(rebound.arena(), &a);
}

TEST(ArenaAllocatorTest, DefaultConstructedFallsBackToHeap) {
  ArenaAllocator<int> alloc;
  int* p = alloc.allocate(4);
  p[0] = 42;
  alloc.deallocate(p, 4);  // must actually free (heap path) without crashing
}

TEST(ArenaMapTest, BehavesLikeStdUnorderedMap) {
  StateArena arena;
  ArenaMap<int, std::string> m{ArenaMap<int, std::string>::allocator_type{arena}};
  std::unordered_map<int, std::string> ref;
  for (int i = 0; i < 500; ++i) {
    m[i * 7] = std::to_string(i);
    ref[i * 7] = std::to_string(i);
  }
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const auto it = m.find(k);
    ASSERT_NE(it, m.end()) << k;
    EXPECT_EQ(it->second, v);
  }
  // Identical bucket trajectory to the std container: the determinism
  // contract says the allocator changes where nodes live, never how the
  // table behaves (iteration order feeds RNG-consuming protocol paths).
  EXPECT_EQ(m.bucket_count(), ref.bucket_count());
  EXPECT_GT(arena.bytes_used(), 0u);
}

TEST(ItemTableTest, ForEachWalksInStdUnorderedMapOrder) {
  // The crash and recovery walks send and schedule in for_each order, so the
  // goldens pin it: exactly the order of a plain std::unordered_map built by
  // the same insertions.  Changing the walk order is a deliberate re-pin
  // that changes this test with it.
  StateArena arena;
  ItemTable<int> table{3, arena};
  std::unordered_map<net::DataId, int> ref;
  const net::NodeId node{1};
  for (std::uint32_t i = 0; i < 400; ++i) {
    const net::DataId item{net::NodeId{(i * 37) % 49}, (i * 11) % 23};
    table(node, item) = static_cast<int>(i);
    ref[item] = static_cast<int>(i);
    table(net::NodeId{0}, net::DataId{net::NodeId{i}, i}) = 0;  // another node's map
  }
  std::vector<std::pair<net::DataId, int>> walked;
  table.for_each(node, [&](net::DataId item, int& v) { walked.emplace_back(item, v); });
  const std::vector<std::pair<net::DataId, int>> expected(ref.begin(), ref.end());
  EXPECT_EQ(walked, expected);

  int visits = 0;
  table.for_each(net::NodeId{2}, [&](net::DataId, int&) { ++visits; });
  EXPECT_EQ(visits, 0);  // an untouched node has no items
}

TEST(InlineVecTest, StaysInlineUpToNAndSpillsBeyond) {
  InlineVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);  // spills to the heap
  v.push_back(5);
  ASSERT_EQ(v.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 5);
}

TEST(InlineVecTest, InsertAndEraseValueMatchVectorSemantics) {
  InlineVec<int, 2> v;
  v.push_back(1);
  v.push_back(3);
  v.insert(v.begin() + 1, 2);  // 1 2 3
  v.insert(v.begin(), 0);      // 0 1 2 3 (spilled)
  ASSERT_EQ(v.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);

  v.push_back(2);     // 0 1 2 3 2
  v.erase_value(2);   // 0 1 3 — removes every occurrence, order preserved
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[1], 1);
  EXPECT_EQ(v[2], 3);
  v.erase_value(99);  // absent value: no-op
  EXPECT_EQ(v.size(), 3u);
}

TEST(InlineVecTest, ResizeClearAndCopyMove) {
  InlineVec<int, 2> v;
  v.resize(5);  // value-fills with T{}
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[4], 0);
  v[0] = 10;
  v.resize(1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 10);

  InlineVec<int, 2> big;
  for (int i = 0; i < 10; ++i) big.push_back(i);
  InlineVec<int, 2> copy{big};
  EXPECT_EQ(copy.size(), 10u);
  EXPECT_EQ(copy[9], 9);
  InlineVec<int, 2> moved{std::move(big)};
  EXPECT_EQ(moved.size(), 10u);
  EXPECT_EQ(moved[9], 9);
  EXPECT_TRUE(big.empty());  // moved-from: empty but reusable
  big.push_back(77);
  EXPECT_EQ(big.front(), 77);

  copy.clear();
  EXPECT_TRUE(copy.empty());
  copy = moved;  // copy-assign over a spilled-then-cleared vector
  EXPECT_EQ(copy.size(), 10u);
}

}  // namespace
}  // namespace spms::core
