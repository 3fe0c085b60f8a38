#include "manager/benefactor_registry.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace stdchk {
namespace {

class BenefactorRegistryTest : public ::testing::Test {
 protected:
  BenefactorRegistryTest() : registry_(&clock_, /*heartbeat_expiry_us=*/10'000'000) {}

  NodeId AddNode(std::uint64_t free = 1'000'000) {
    BenefactorInfo info;
    info.host = "host" + std::to_string(counter_++);
    info.total_bytes = free;
    info.free_bytes = free;
    return registry_.Register(info);
  }

  VirtualClock clock_;
  BenefactorRegistry registry_;
  int counter_ = 0;
};

TEST_F(BenefactorRegistryTest, RegisterAssignsDistinctIds) {
  NodeId a = AddNode(), b = AddNode();
  EXPECT_NE(a, b);
  EXPECT_TRUE(registry_.IsOnline(a));
  EXPECT_TRUE(registry_.IsOnline(b));
  EXPECT_EQ(registry_.online_count(), 2u);
}

TEST_F(BenefactorRegistryTest, HeartbeatFromUnknownNodeFails) {
  EXPECT_EQ(registry_.Heartbeat(999, 0).code(), StatusCode::kNotFound);
}

TEST_F(BenefactorRegistryTest, HeartbeatUpdatesFreeSpace) {
  NodeId a = AddNode(100);
  ASSERT_TRUE(registry_.Heartbeat(a, 55).ok());
  auto status = registry_.Get(a);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().info.free_bytes, 55u);
}

TEST_F(BenefactorRegistryTest, StaleNodesExpire) {
  NodeId a = AddNode();
  NodeId b = AddNode();
  clock_.AdvanceSeconds(5);
  ASSERT_TRUE(registry_.Heartbeat(b, 1).ok());
  clock_.AdvanceSeconds(6);  // a silent for 11 s, b for 6 s

  std::vector<NodeId> expired = registry_.ExpireStale();
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], a);
  EXPECT_FALSE(registry_.IsOnline(a));
  EXPECT_TRUE(registry_.IsOnline(b));
}

TEST_F(BenefactorRegistryTest, HeartbeatRevivesExpiredNode) {
  NodeId a = AddNode();
  clock_.AdvanceSeconds(11);
  registry_.ExpireStale();
  ASSERT_FALSE(registry_.IsOnline(a));
  ASSERT_TRUE(registry_.Heartbeat(a, 10).ok());
  EXPECT_TRUE(registry_.IsOnline(a));
}

TEST_F(BenefactorRegistryTest, SetOfflineExcludesFromStripes) {
  NodeId a = AddNode();
  AddNode();
  ASSERT_TRUE(registry_.SetOffline(a).ok());
  auto stripe = registry_.SelectStripe(2);
  EXPECT_FALSE(stripe.ok());
  EXPECT_EQ(stripe.status().code(), StatusCode::kUnavailable);
}

TEST_F(BenefactorRegistryTest, SelectStripeReturnsRequestedWidth) {
  for (int i = 0; i < 8; ++i) AddNode();
  for (int width : {1, 2, 4, 8}) {
    auto stripe = registry_.SelectStripe(width);
    ASSERT_TRUE(stripe.ok()) << width;
    EXPECT_EQ(stripe.value().size(), static_cast<std::size_t>(width));
    // All distinct.
    auto s = stripe.value();
    std::sort(s.begin(), s.end());
    EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
  }
}

TEST_F(BenefactorRegistryTest, SelectStripePrefersFreeSpace) {
  NodeId small = AddNode(10);
  NodeId big = AddNode(1'000'000);
  auto stripe = registry_.SelectStripe(1);
  ASSERT_TRUE(stripe.ok());
  EXPECT_EQ(stripe.value()[0], big);
  (void)small;
}

TEST_F(BenefactorRegistryTest, SelectStripeHonorsExclusions) {
  NodeId a = AddNode(100);
  NodeId b = AddNode(100);
  auto stripe = registry_.SelectStripe(1, {a});
  ASSERT_TRUE(stripe.ok());
  EXPECT_EQ(stripe.value()[0], b);
  auto none = registry_.SelectStripe(1, {a, b});
  EXPECT_FALSE(none.ok());
}

TEST_F(BenefactorRegistryTest, SelectStripeFailsWhenTooFewNodes) {
  AddNode();
  EXPECT_FALSE(registry_.SelectStripe(2).ok());
  EXPECT_FALSE(registry_.SelectStripe(0).ok());  // invalid width
}

TEST_F(BenefactorRegistryTest, ReservationsReduceEffectiveFreeSpace) {
  NodeId a = AddNode(1000);
  NodeId b = AddNode(900);
  // Initially a wins (more free); reserve most of a, then b should win.
  registry_.AddReserved(a, 500);
  auto stripe = registry_.SelectStripe(1);
  ASSERT_TRUE(stripe.ok());
  EXPECT_EQ(stripe.value()[0], b);
  registry_.ReleaseReserved(a, 500);
  stripe = registry_.SelectStripe(1);
  ASSERT_TRUE(stripe.ok());
  EXPECT_EQ(stripe.value()[0], a);
}

TEST_F(BenefactorRegistryTest, EqualFreeSpaceSpreadsAcrossCalls) {
  for (int i = 0; i < 4; ++i) AddNode(1000);
  std::set<NodeId> chosen;
  for (int i = 0; i < 16; ++i) {
    auto stripe = registry_.SelectStripe(1);
    ASSERT_TRUE(stripe.ok());
    chosen.insert(stripe.value()[0]);
  }
  // The rotating tie-break should touch more than one node.
  EXPECT_GT(chosen.size(), 1u);
}

TEST_F(BenefactorRegistryTest, UsedAccountingAdjustsFreeBytes) {
  NodeId a = AddNode(1000);
  registry_.AddUsed(a, 400);
  EXPECT_EQ(registry_.Get(a).value().info.free_bytes, 600u);
  registry_.ReleaseUsed(a, 100);
  EXPECT_EQ(registry_.Get(a).value().info.free_bytes, 700u);
  registry_.AddUsed(a, 10'000);  // clamps at zero
  EXPECT_EQ(registry_.Get(a).value().info.free_bytes, 0u);
}

}  // namespace
}  // namespace stdchk
