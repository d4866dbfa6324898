#include "nbtinoc/noc/channel.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace nbtinoc::noc {
namespace {

TEST(Channel, DeliversExactlyAtDelay) {
  Channel<int> ch(2);
  ch.push(42, /*now=*/10);
  EXPECT_FALSE(ch.pop_ready(10).has_value());
  EXPECT_FALSE(ch.pop_ready(11).has_value());
  const auto v = ch.pop_ready(12);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, ZeroDelayIsSameCycle) {
  Channel<int> ch(0);
  ch.push(7, 5);
  EXPECT_EQ(ch.pop_ready(5).value(), 7);
}

TEST(Channel, PreservesOrder) {
  Channel<int> ch(1);
  ch.push(1, 0);
  ch.push(2, 0);
  ch.push(3, 1);
  EXPECT_EQ(ch.pop_ready(1).value(), 1);
  EXPECT_EQ(ch.pop_ready(1).value(), 2);
  EXPECT_FALSE(ch.pop_ready(1).has_value());
  EXPECT_EQ(ch.pop_ready(2).value(), 3);
}

TEST(Channel, PeekDoesNotConsume)  {
  Channel<std::string> ch(1);
  ch.push("flit", 0);
  EXPECT_EQ(ch.peek_ready(0), nullptr);
  ASSERT_NE(ch.peek_ready(1), nullptr);
  EXPECT_EQ(*ch.peek_ready(1), "flit");
  EXPECT_EQ(ch.in_flight(), 1u);
  EXPECT_EQ(ch.pop_ready(1).value(), "flit");
}

TEST(Channel, LateDeliveryStillWorks) {
  Channel<int> ch(1);
  ch.push(9, 0);
  // Consumer polls late: the payload is still there.
  EXPECT_EQ(ch.pop_ready(100).value(), 9);
}

TEST(Channel, ClearDropsInFlight) {
  Channel<int> ch(3);
  ch.push(1, 0);
  ch.clear();
  EXPECT_TRUE(ch.empty());
  EXPECT_FALSE(ch.pop_ready(10).has_value());
}

TEST(Channel, InFlightCount) {
  Channel<int> ch(5);
  ch.push(1, 0);
  ch.push(2, 1);
  EXPECT_EQ(ch.in_flight(), 2u);
}

TEST(Channel, MultipleReadySameCycleDrainInPushOrder) {
  Channel<int> ch(2);
  ch.push(1, 0);
  ch.push(2, 0);
  ch.push(3, 0);
  // All three became deliverable at cycle 2; they drain strictly in push
  // order, one pop at a time.
  EXPECT_EQ(ch.pop_ready(2).value(), 1);
  EXPECT_EQ(ch.pop_ready(2).value(), 2);
  EXPECT_EQ(ch.pop_ready(2).value(), 3);
  EXPECT_FALSE(ch.pop_ready(2).has_value());
}

TEST(Channel, ZeroDelayPreservesOrderWithinCycle) {
  Channel<int> ch(0);
  ch.push(10, 7);
  ch.push(11, 7);
  EXPECT_EQ(ch.pop_ready(7).value(), 10);
  EXPECT_EQ(ch.pop_ready(7).value(), 11);
}

TEST(Channel, ClearWithMultipleInFlightDropsEverything) {
  Channel<int> ch(4);
  ch.push(1, 0);
  ch.push(2, 1);
  ch.push(3, 2);
  EXPECT_EQ(ch.in_flight(), 3u);
  ch.clear();
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.in_flight(), 0u);
  // The channel keeps working after a clear.
  ch.push(4, 10);
  EXPECT_EQ(ch.pop_ready(14).value(), 4);
}

TEST(Channel, ForEachInFlightSeesQueueOrder) {
  Channel<int> ch(3);
  ch.push(7, 0);
  ch.push(8, 1);
  std::vector<std::pair<int, sim::Cycle>> seen;
  ch.for_each_in_flight([&](const int& v, sim::Cycle at) { seen.emplace_back(v, at); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<int, sim::Cycle>{7, 3}));
  EXPECT_EQ(seen[1], (std::pair<int, sim::Cycle>{8, 4}));
}

}  // namespace
}  // namespace nbtinoc::noc
