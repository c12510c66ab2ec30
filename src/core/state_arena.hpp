#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/ids.hpp"

/// \file state_arena.hpp
/// Bump/slab arena for per-(node, item) protocol state, and the ItemTable
/// that holds that state.
///
/// A protocol run creates thousands of tiny, long-lived objects — hash-map
/// nodes for per-item state machines and holder-side service records — that
/// are never individually freed: they live until the protocol object dies.
/// Routing each of them through the global heap costs one malloc apiece
/// (about 4.9k allocs per small end-to-end run) and scatters them across
/// memory.
/// The StateArena bump-allocates out of geometrically growing slabs and
/// frees everything wholesale in its destructor; ArenaAllocator plugs it
/// under the standard containers.
///
/// Determinism contract: the arena changes *where* container nodes live,
/// never *how the containers behave*.  An unordered_map's bucket-count
/// sequence, hashing and insertion order — and therefore its iteration
/// order, which ItemTable::for_each feeds into RNG-consuming protocol code
/// (the crash and recovery walks) — are independent of the allocator, so
/// runs stay byte-identical to the heap-backed layout.  deallocate() is a
/// deliberate no-op; that is safe precisely because this state is
/// insert-only (maps grow monotonically during a run).  Rehash garbage is
/// bounded by the geometric bucket growth: all discarded bucket arrays
/// together are smaller than the final one.

namespace spms::core {

/// Geometric slab bump allocator.  Not thread-safe (one per protocol
/// instance, and runs are single-threaded by design).
class StateArena {
 public:
  explicit StateArena(std::size_t first_slab_bytes = 4096)
      : next_slab_bytes_(first_slab_bytes) {}

  StateArena(const StateArena&) = delete;
  StateArena& operator=(const StateArena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two).  Oversized
  /// requests get a dedicated slab, so no request can fail by slab size.
  void* allocate(std::size_t bytes, std::size_t align) {
    assert((align & (align - 1)) == 0);
    std::size_t off = (offset_ + align - 1) & ~(align - 1);
    if (slabs_.empty() || off + bytes > slabs_.back().size) {
      new_slab(bytes + align);
      off = (offset_ + align - 1) & ~(align - 1);
    }
    offset_ = off + bytes;
    used_ += bytes;
    return slabs_.back().mem.get() + off;
  }

  /// Individual frees are no-ops (see file comment); everything is released
  /// when the arena dies.
  static void deallocate(void* /*p*/, std::size_t /*bytes*/) noexcept {}

  /// Total bytes reserved from the heap (slab sizes).
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Slab& s : slabs_) total += s.size;
    return total;
  }
  /// Bytes handed out to containers (excludes alignment + slab slack).
  [[nodiscard]] std::size_t bytes_used() const { return used_; }

 private:
  struct Slab {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
  };

  void new_slab(std::size_t min_bytes) {
    std::size_t size = next_slab_bytes_;
    while (size < min_bytes) size *= 2;
    slabs_.push_back({std::make_unique<std::byte[]>(size), size});
    offset_ = 0;
    if (next_slab_bytes_ < kMaxSlabBytes) next_slab_bytes_ *= 2;
  }

  static constexpr std::size_t kMaxSlabBytes = std::size_t{1} << 20;  // 1 MiB
  std::vector<Slab> slabs_;
  std::size_t offset_ = 0;
  std::size_t used_ = 0;
  std::size_t next_slab_bytes_;
};

/// Standard-allocator adapter over a StateArena.  Without an arena (default
/// construction) it degrades to the global heap, so moved-from or
/// default-built containers stay well-formed.
template <class T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(StateArena& arena) noexcept : arena_(&arena) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (arena_ == nullptr) return static_cast<T*>(::operator new(n * sizeof(T)));
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (arena_ == nullptr) {
      ::operator delete(p);
      return;
    }
    StateArena::deallocate(p, n * sizeof(T));
  }

  [[nodiscard]] StateArena* arena() const noexcept { return arena_; }

  template <class U>
  bool operator==(const ArenaAllocator<U>& o) const noexcept {
    return arena_ == o.arena();
  }

 private:
  StateArena* arena_ = nullptr;
};

/// unordered_map with identical bucket behaviour and iteration order to the
/// plain std container, but arena-backed nodes and bucket arrays.
template <class K, class V, class Hash = std::hash<K>>
using ArenaMap = std::unordered_map<K, V, Hash, std::equal_to<K>,
                                    ArenaAllocator<std::pair<const K, V>>>;

/// Per-(node, item) protocol state: one arena-backed map per node, created
/// on first use of the pair.  The maps are built with the allocator-only
/// constructor, in node order, with no reserve or bucket hint, so each one
/// follows std::unordered_map's bucket trajectory for its insertions.
template <class State>
class ItemTable {
 public:
  ItemTable(std::size_t nodes, StateArena& arena) {
    maps_.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i) maps_.emplace_back(typename Map::allocator_type{arena});
  }

  /// `node`'s state for `item`, default-constructed on first use.
  [[nodiscard]] State& operator()(net::NodeId node, net::DataId item) {
    return maps_[node.v][item];
  }

  /// Calls fn(item, state) for every item `node` has state for.  This is the
  /// one place that decides the order in which a node's items are walked:
  /// the map's bucket order, which the goldens pin because the walks send
  /// and schedule (see the file comment).
  template <class Fn>
  void for_each(net::NodeId node, Fn&& fn) {
    for (auto& [item, state] : maps_[node.v]) fn(item, state);
  }

 private:
  using Map = ArenaMap<net::DataId, State>;
  std::vector<Map> maps_;
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
