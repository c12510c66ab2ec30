#include <gtest/gtest.h>

#include <stdexcept>

#include "core/collector.hpp"
#include "core/interest.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace spms::core {
namespace {

TEST(AllToAllInterestTest, EveryoneButOriginWants) {
  AllToAllInterest interest(5);
  const net::DataId item{net::NodeId{2}, 0};
  EXPECT_FALSE(interest.wants(net::NodeId{2}, item));
  EXPECT_TRUE(interest.wants(net::NodeId{0}, item));
  EXPECT_TRUE(interest.wants(net::NodeId{4}, item));
  EXPECT_EQ(interest.expected_count(item), 4u);
}

class ClusterInterestTest : public ::testing::Test {
 protected:
  ClusterInterestTest()
      : sim(1),
        net(sim, net::RadioTable::mica2(), {}, {}, net::grid_deployment(7, 5.0), 20.0),
        interest(net, 20.0, 0.05, 99) {}

  sim::Simulation sim;
  net::Network net;
  ClusterInterest interest;
};

TEST_F(ClusterInterestTest, HeadsExistAndAreAssigned) {
  EXPECT_FALSE(interest.heads().empty());
  // Every node has a head, and each head is its own head.
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    EXPECT_TRUE(interest.head_of(net::NodeId{i}).valid());
  }
  for (const auto h : interest.heads()) {
    EXPECT_EQ(interest.head_of(h), h);
  }
}

TEST_F(ClusterInterestTest, OriginsHeadAlwaysWants) {
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    const net::DataId item{net::NodeId{i}, 3};
    const auto head = interest.head_of(net::NodeId{i});
    if (head == item.origin) continue;  // a head's own data has no collector
    EXPECT_TRUE(interest.wants(head, item)) << "head of node " << i;
  }
}

TEST_F(ClusterInterestTest, OriginNeverWantsItsOwnItem) {
  const net::DataId item{net::NodeId{5}, 0};
  EXPECT_FALSE(interest.wants(net::NodeId{5}, item));
}

TEST_F(ClusterInterestTest, BystanderInterestIsRareAndZoneLocal) {
  std::size_t bystanders = 0, outside_zone = 0, pairs = 0;
  for (std::uint32_t origin = 0; origin < net.size(); ++origin) {
    const net::DataId item{net::NodeId{origin}, 1};
    const auto head = interest.head_of(net::NodeId{origin});
    for (std::uint32_t node = 0; node < net.size(); ++node) {
      if (node == origin || net::NodeId{node} == head) continue;
      ++pairs;
      if (!interest.wants(net::NodeId{node}, item)) continue;
      ++bystanders;
      if (net.distance_between(net::NodeId{node}, net::NodeId{origin}) > net.zone_radius()) {
        ++outside_zone;
      }
    }
  }
  EXPECT_EQ(outside_zone, 0u);  // only zone members can be bystander-interested
  // ~5% of zone members; across all pairs this must stay well below 10%.
  EXPECT_LT(static_cast<double>(bystanders) / static_cast<double>(pairs), 0.10);
  EXPECT_GT(bystanders, 0u);
}

TEST_F(ClusterInterestTest, WantsIsDeterministic) {
  ClusterInterest again(net, 20.0, 0.05, 99);
  for (std::uint32_t origin = 0; origin < net.size(); origin += 3) {
    const net::DataId item{net::NodeId{origin}, 7};
    for (std::uint32_t node = 0; node < net.size(); ++node) {
      EXPECT_EQ(interest.wants(net::NodeId{node}, item), again.wants(net::NodeId{node}, item));
    }
  }
}

TEST_F(ClusterInterestTest, ExpectedCountMatchesWants) {
  for (std::uint32_t origin = 0; origin < net.size(); origin += 5) {
    const net::DataId item{net::NodeId{origin}, 2};
    std::size_t count = 0;
    for (std::uint32_t node = 0; node < net.size(); ++node) {
      count += interest.wants(net::NodeId{node}, item);
    }
    EXPECT_EQ(interest.expected_count(item), count);
  }
}

TEST_F(ClusterInterestTest, RejectsNonPositiveHeadSpacing) {
  EXPECT_THROW(ClusterInterest(net, 0.0, 0.05, 99), std::invalid_argument);
  EXPECT_THROW(ClusterInterest(net, -5.0, 0.05, 99), std::invalid_argument);
}

TEST(CollectorTest, TracksPublishAndDelivery) {
  Collector c;
  const net::DataId item{net::NodeId{0}, 0};
  c.record_publish(item, sim::TimePoint::at(sim::Duration::ms(1.0)), 2);
  EXPECT_EQ(c.published(), 1u);
  EXPECT_EQ(c.expected_deliveries(), 2u);
  EXPECT_FALSE(c.all_delivered());
  EXPECT_DOUBLE_EQ(c.delivery_ratio(), 0.0);

  c.record_delivery(net::NodeId{1}, item, sim::TimePoint::at(sim::Duration::ms(3.0)));
  c.record_delivery(net::NodeId{2}, item, sim::TimePoint::at(sim::Duration::ms(5.0)));
  EXPECT_TRUE(c.all_delivered());
  EXPECT_DOUBLE_EQ(c.delivery_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(c.delay_ms().mean(), 3.0);  // (2 + 4) / 2
  EXPECT_DOUBLE_EQ(c.delay_ms().max(), 4.0);
}

TEST(CollectorTest, UnknownItemCounted) {
  Collector c;
  c.record_delivery(net::NodeId{1}, {net::NodeId{0}, 9}, sim::TimePoint::zero());
  EXPECT_EQ(c.unknown_item_deliveries(), 1u);
  EXPECT_EQ(c.deliveries(), 0u);
}

TEST(CollectorTest, DoublePublishIgnored) {
  Collector c;
  const net::DataId item{net::NodeId{0}, 0};
  c.record_publish(item, sim::TimePoint::zero(), 3);
  c.record_publish(item, sim::TimePoint::zero(), 5);
  EXPECT_EQ(c.published(), 1u);
  EXPECT_EQ(c.expected_deliveries(), 3u);
}

TEST(CollectorTest, EmptyCollectorRatioIsOne) {
  Collector c;
  EXPECT_DOUBLE_EQ(c.delivery_ratio(), 1.0);
  EXPECT_TRUE(c.all_delivered());
}

}  // namespace
}  // namespace spms::core
