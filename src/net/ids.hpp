#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

/// \file ids.hpp
/// Strong identifier types shared across the network and protocol layers.

namespace spms::net {

/// Identifies a node; also its index into the Network's node vector.
struct NodeId {
  static constexpr std::uint32_t kInvalid = 0xffffffffu;

  std::uint32_t v = kInvalid;

  constexpr NodeId() = default;
  constexpr explicit NodeId(std::uint32_t value) : v(value) {}

  [[nodiscard]] constexpr bool valid() const { return v != kInvalid; }
  auto operator<=>(const NodeId&) const = default;
};

/// Sentinel meaning "no node" / "broadcast destination".
inline constexpr NodeId kNoNode{};

/// Names one data item network-wide: the node that sensed it plus a per-node
/// sequence number.  This doubles as the item's metadata descriptor — in the
/// paper metadata "names the data"; equality of descriptors is all SPIN/SPMS
/// need from the negotiation.
struct DataId {
  NodeId origin;
  std::uint32_t seq = 0;

  auto operator<=>(const DataId&) const = default;
};

/// Appends the one text spelling of a node, `n<id>` (`n?` when invalid),
/// used by operator<< and the JSON writer.
inline void append_node(std::string& out, NodeId id) {
  out += 'n';
  out += id.valid() ? std::to_string(id.v) : "?";
}

/// Appends the one text spelling of an item, `n<origin>#<seq>`.
inline void append_item(std::string& out, DataId d) {
  append_node(out, d.origin);
  out += '#';
  out += std::to_string(d.seq);
}

inline std::ostream& operator<<(std::ostream& os, NodeId id) {
  std::string s;
  append_node(s, id);
  return os << s;
}

inline std::ostream& operator<<(std::ostream& os, DataId d) {
  std::string s;
  append_item(s, d);
  return os << s;
}

}  // namespace spms::net

template <>
struct std::hash<spms::net::NodeId> {
  std::size_t operator()(spms::net::NodeId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.v);
  }
};

template <>
struct std::hash<spms::net::DataId> {
  std::size_t operator()(spms::net::DataId d) const noexcept {
    const std::uint64_t key = (static_cast<std::uint64_t>(d.origin.v) << 32) | d.seq;
    return std::hash<std::uint64_t>{}(key);
  }
};
