#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/ids.hpp"
#include "sim/random.hpp"

/// \file item_table.hpp
/// Flat per-(node, item) protocol state: the FlatMap hash map, the
/// ItemTable built on it, and the InlineVec small vector.
///
/// Determinism contract: no output may depend on the iteration order of a
/// hash container.  FlatMap has no iteration API, so a hash decides where a
/// key is stored and never what a run does, and ItemTable::for_each walks a
/// node's items in DataId order.

namespace spms::core {

/// Insert-only open-addressing hash map: linear probing over a power-of-two
/// slot array that doubles before the load passes 3/4.  It is looked up and
/// never iterated, so it has no iteration API.
template <class Key, class Value, class Hash = std::hash<Key>>
class FlatMap {
 public:
  /// Stores `value` under `key` unless `key` is present.  Returns the stored
  /// value, valid until the next insertion, and whether it was inserted.
  std::pair<Value*, bool> try_emplace(const Key& key, const Value& value) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    const std::size_t i = probe(key);
    if (used_[i]) return {&slots_[i].value, false};
    used_[i] = 1;
    slots_[i] = {key, value};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// The value stored under `key`, or nullptr.
  [[nodiscard]] Value* find(const Key& key) {
    if (slots_.empty()) return nullptr;
    const std::size_t i = probe(key);
    return used_[i] ? &slots_[i].value : nullptr;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Slot {
    Key key{};
    Value value{};
  };

  /// The slot that holds `key`, or the free slot where it belongs; the load
  /// cap guarantees a free slot.
  [[nodiscard]] std::size_t probe(const Key& key) const {
    // The mask keeps the low bits and libstdc++'s std::hash<std::uint64_t>
    // is the identity, so without the mix a DataId's slot would depend on
    // its seq bits alone.
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = sim::mix64(Hash{}(key)) & mask;
    while (used_[i] && !(slots_[i].key == key)) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    std::vector<std::uint8_t> old_used(old.size());
    slots_.swap(old);
    used_.swap(old_used);
    for (std::size_t j = 0; j < old.size(); ++j) {
      if (!old_used[j]) continue;
      const std::size_t i = probe(old[j].key);
      used_[i] = 1;
      slots_[i] = old[j];
    }
  }

  std::vector<Slot> slots_;
  /// Occupancy, one byte per slot.  Kept out of Slot, where a flag would pad
  /// every slot to the key's alignment: 20 instead of 17 bytes per slot of
  /// an ItemTable index, 32 instead of 25 of the service map.
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
};

/// Per-(node, item) protocol state, default-constructed on first use of the
/// pair.  States live in fixed chunks that never move, so a State& stays
/// valid while other states are added.  A FlatMap finds a pair's entry, and
/// each node chains its own entries for for_each.
template <class State>
class ItemTable {
 public:
  explicit ItemTable(std::size_t nodes) : heads_(nodes, kNoEntry) {}

  /// `node`'s state for `item`, default-constructed on first use.
  [[nodiscard]] State& operator()(net::NodeId node, net::DataId item) {
    const auto [index, inserted] = index_.try_emplace({node, item}, size_);
    if (!inserted) return entry(*index).state;
    if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<Entry[]>(kChunk));
    Entry& e = entry(size_);
    e.item = item;
    e.next = heads_[node.v];
    heads_[node.v] = size_++;
    return e.state;
  }

  /// Calls fn(item, state) for every item `node` has state for, in DataId
  /// order (origin, then seq).  This is the one place that decides the order
  /// in which a node's items are walked; the walks send and schedule, so the
  /// goldens pin it.  fn may add states but must not walk the table.
  template <class Fn>
  void for_each(net::NodeId node, Fn&& fn) {
    walk_.clear();
    for (std::uint32_t i = heads_[node.v]; i != kNoEntry; i = entry(i).next) {
      walk_.emplace_back(entry(i).item, i);
    }
    std::sort(walk_.begin(), walk_.end());  // a node holds each item once
    for (const auto& [item, i] : walk_) fn(item, entry(i).state);
  }

 private:
  struct Entry {
    net::DataId item;
    std::uint32_t next = 0;  ///< the node's previous entry, or kNoEntry
    State state{};
  };
  struct Key {
    net::NodeId node;
    net::DataId item;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<net::DataId>{}(k.item) ^ (std::uint64_t{k.node.v} * 0x9e3779b97f4a7c15ULL);
    }
  };

  static constexpr std::uint32_t kChunk = 256;
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;

  [[nodiscard]] Entry& entry(std::uint32_t i) { return chunks_[i / kChunk][i % kChunk]; }

  FlatMap<Key, std::uint32_t, KeyHash> index_;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::vector<std::uint32_t> heads_;  ///< per node: its newest entry
  std::vector<std::pair<net::DataId, std::uint32_t>> walk_;  ///< for_each's scratch, reused
  std::uint32_t size_ = 0;
};

/// Small vector with inline capacity N for trivially copyable elements;
/// spills to the heap only past N (the SPMS originator list is bounded by
/// 1 + num_scones ≈ 2, so the default config never allocates).  Iterators
/// are raw pointers; semantics match the std::vector subset the protocols
/// use (ordering in particular — front() is the PRONE).
template <class T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVec() = default;
  InlineVec(const InlineVec& o) { assign(o); }
  InlineVec(InlineVec&& o) noexcept { steal(std::move(o)); }
  InlineVec& operator=(const InlineVec& o) {
    if (this != &o) {
      clear_storage();
      assign(o);
    }
    return *this;
  }
  InlineVec& operator=(InlineVec&& o) noexcept {
    if (this != &o) {
      clear_storage();
      steal(std::move(o));
    }
    return *this;
  }
  ~InlineVec() { clear_storage(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }
  [[nodiscard]] T& front() { return data_[0]; }
  [[nodiscard]] const T& front() const { return data_[0]; }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

  void push_back(const T& v) {
    grow_to(size_ + 1);
    data_[size_++] = v;
  }

  /// Inserts before `pos` (same shifting semantics as std::vector).
  void insert(iterator pos, const T& v) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    grow_to(size_ + 1);
    std::memmove(data_ + at + 1, data_ + at, (size_ - at) * sizeof(T));
    data_[at] = v;
    ++size_;
  }

  /// Removes every element equal to `v`, preserving order
  /// (std::erase(vector, v) equivalent).
  void erase_value(const T& v) {
    T* out = data_;
    for (T* p = data_; p != data_ + size_; ++p) {
      if (!(*p == v)) *out++ = *p;
    }
    size_ = static_cast<std::size_t>(out - data_);
  }

  /// Shrinks (or value-fills up) to `n` elements.
  void resize(std::size_t n) {
    if (n > size_) {
      grow_to(n);
      for (std::size_t i = size_; i < n; ++i) data_[i] = T{};
    }
    size_ = n;
  }

  void clear() { size_ = 0; }

 private:
  void grow_to(std::size_t need) {
    if (need <= cap_) return;
    std::size_t cap = cap_ * 2;
    while (cap < need) cap *= 2;
    T* heap = static_cast<T*>(::operator new(cap * sizeof(T)));
    std::memcpy(heap, data_, size_ * sizeof(T));
    if (data_ != inline_) ::operator delete(data_);
    data_ = heap;
    cap_ = cap;
  }
  void assign(const InlineVec& o) {
    grow_to(o.size_);
    std::memcpy(data_, o.data_, o.size_ * sizeof(T));
    size_ = o.size_;
  }
  void steal(InlineVec&& o) noexcept {
    if (o.data_ != o.inline_) {
      data_ = o.data_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.data_ = o.inline_;
      o.cap_ = N;
      o.size_ = 0;
      return;
    }
    std::memcpy(inline_, o.inline_, o.size_ * sizeof(T));
    size_ = o.size_;
    o.size_ = 0;
  }
  void clear_storage() {
    if (data_ != inline_) ::operator delete(data_);
    data_ = inline_;
    cap_ = N;
    size_ = 0;
  }

  T inline_[N] = {};
  T* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
};

}  // namespace spms::core
