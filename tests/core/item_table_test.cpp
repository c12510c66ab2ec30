#include "core/item_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

/// The flat tables' contract: ItemTable walks a node's items in DataId order
/// (the determinism pin) and never moves a state, FlatMap answers the same
/// whatever its hash, and InlineVec matches the std::vector subset the
/// protocols use.

namespace spms::core {
namespace {

TEST(ItemTableTest, ForEachWalksInDataIdOrder) {
  // The crash and recovery walks send and schedule in for_each order, so the
  // goldens pin it: DataId order (origin, then seq), whatever order the items
  // were inserted in and whatever the other nodes hold.
  ItemTable<int> table{3};
  std::map<net::DataId, int> ref;
  const net::NodeId node{1};
  for (std::uint32_t i = 0; i < 400; ++i) {
    const net::DataId item{net::NodeId{(i * 37) % 49}, (i * 11) % 23};
    table(node, item) = static_cast<int>(i);
    ref[item] = static_cast<int>(i);
    table(net::NodeId{0}, net::DataId{net::NodeId{(i * 7) % 13}, i}) = 0;  // another node
  }
  std::vector<std::pair<net::DataId, int>> walked;
  table.for_each(node, [&](net::DataId item, int& v) { walked.emplace_back(item, v); });
  const std::vector<std::pair<net::DataId, int>> expected(ref.begin(), ref.end());
  EXPECT_EQ(walked, expected);

  int visits = 0;
  table.for_each(net::NodeId{2}, [&](net::DataId, int&) { ++visits; });
  EXPECT_EQ(visits, 0);  // an untouched node has no items
}

TEST(ItemTableTest, StatesStayPutWhileOthersAreAdded) {
  // The protocols hold a State& across calls that add other states, as they
  // did with node-based maps.
  ItemTable<std::uint64_t> table{4};
  std::uint64_t& first = table(net::NodeId{0}, net::DataId{net::NodeId{0}, 0});
  first = 0xfeedULL;
  const std::uint64_t* const address = &first;
  for (std::uint32_t i = 1; i <= 5000; ++i) {
    table(net::NodeId{i % 4}, net::DataId{net::NodeId{i % 7}, i}) = i;
  }
  EXPECT_EQ(first, 0xfeedULL);
  EXPECT_EQ(&table(net::NodeId{0}, net::DataId{net::NodeId{0}, 0}), address);
}

/// A key whose mixed hash lands in the last slot of every table of up to
/// 2^16 slots, so every probe run wraps around the end of the array.
std::uint64_t last_slot_hash() {
  std::uint64_t h = 0;
  while ((sim::mix64(h) & 0xffffULL) != 0xffffULL) ++h;
  return h;
}

TEST(FlatMapTest, CollidingHashGivesTheSameAnswers) {
  // Every key collides, through each doubling and across the wrap-around,
  // yet try_emplace and find answer as a std::map does: no answer depends
  // on the hash.
  struct Colliding {
    std::size_t operator()(int) const {
      static const std::uint64_t h = last_slot_hash();
      return h;
    }
  };
  FlatMap<int, int, Colliding> map;
  std::map<int, int> ref;
  for (int i = 0; i < 2000; ++i) {
    const int key = (i * 7919) % 1499;  // 1,499 keys, 501 of them inserted twice
    const auto [value, inserted] = map.try_emplace(key, i);
    const auto [it, ref_inserted] = ref.try_emplace(key, i);
    ASSERT_EQ(inserted, ref_inserted) << key;
    ASSERT_EQ(*value, it->second) << key;
  }
  EXPECT_EQ(map.size(), ref.size());
  for (int key = -1; key <= 2000; ++key) {
    const int* value = map.find(key);
    const auto it = ref.find(key);
    if (it == ref.end()) {
      EXPECT_EQ(value, nullptr) << key;
    } else {
      ASSERT_NE(value, nullptr) << key;
      EXPECT_EQ(*value, it->second) << key;
    }
  }
  FlatMap<int, int, Colliding> empty;
  EXPECT_EQ(empty.find(0), nullptr);
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
