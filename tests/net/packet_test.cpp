#include "net/packet.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace spms::net {
namespace {

TEST(PacketTest, TypeNames) {
  EXPECT_STREQ(to_string(PacketType::kAdv), "ADV");
  EXPECT_STREQ(to_string(PacketType::kReq), "REQ");
  EXPECT_STREQ(to_string(PacketType::kData), "DATA");
  EXPECT_STREQ(to_string(PacketType::kRouteUpdate), "RTUP");
}

TEST(PacketTest, BroadcastDetection) {
  Packet p;
  EXPECT_TRUE(p.is_broadcast());
  p.dst = NodeId{3};
  EXPECT_FALSE(p.is_broadcast());
}

TEST(PacketTest, StreamFormatBroadcast) {
  Packet p;
  p.type = PacketType::kAdv;
  p.item = DataId{NodeId{1}, 7};
  p.src = NodeId{1};
  std::ostringstream os;
  os << p;
  EXPECT_EQ(os.str(), "ADV[n1#7] n1->*");
}

TEST(PacketTest, StreamFormatRequest) {
  Packet p;
  p.type = PacketType::kReq;
  p.item = DataId{NodeId{0}, 2};
  p.src = NodeId{5};
  p.dst = NodeId{4};
  p.requester = NodeId{5};
  p.target = NodeId{0};
  p.direct = true;
  std::ostringstream os;
  os << p;
  EXPECT_EQ(os.str(), "REQ[n0#2] n5->n4 req=n5 tgt=n0 direct");
}

TEST(IdsTest, NodeIdValidity) {
  EXPECT_FALSE(kNoNode.valid());
  EXPECT_TRUE(NodeId{0}.valid());
  EXPECT_TRUE(NodeId{42}.valid());
  EXPECT_LT(NodeId{1}, NodeId{2});
}

TEST(IdsTest, DataIdEquality) {
  const DataId a{NodeId{1}, 2};
  const DataId b{NodeId{1}, 2};
  const DataId c{NodeId{1}, 3};
  const DataId d{NodeId{2}, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(IdsTest, HashDistinguishesOriginAndSeq) {
  const auto h = [](DataId d) { return std::hash<DataId>{}(d); };
  EXPECT_NE(h({NodeId{1}, 2}), h({NodeId{2}, 1}));
  EXPECT_EQ(h({NodeId{1}, 2}), h({NodeId{1}, 2}));
}

TEST(IdsTest, StreamFormats) {
  std::ostringstream os;
  os << NodeId{3} << " " << kNoNode << " " << DataId{NodeId{7}, 9} << " "
     << DataId{kNoNode, 4294967295u} << " " << NodeId{4294967294u};
  EXPECT_EQ(os.str(), "n3 n? n7#9 n?#4294967295 n4294967294");
}

}  // namespace
}  // namespace spms::net
