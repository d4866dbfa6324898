#include "nbtinoc/noc/arbiter.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace nbtinoc::noc {
namespace {

TEST(RoundRobinArbiter, NoRequestsNoGrant) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate({false, false, false, false}), -1);
  EXPECT_EQ(arb.arbitrate(std::vector<bool>{}), -1);
}

TEST(RoundRobinArbiter, SingleRequesterWins) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate({false, false, true, false}), 2);
}

TEST(RoundRobinArbiter, PointerAdvancesPastWinner) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate({true, true, true, true}), 0);
  EXPECT_EQ(arb.arbitrate({true, true, true, true}), 1);
  EXPECT_EQ(arb.arbitrate({true, true, true, true}), 2);
  EXPECT_EQ(arb.arbitrate({true, true, true, true}), 3);
  EXPECT_EQ(arb.arbitrate({true, true, true, true}), 0);
}

TEST(RoundRobinArbiter, FairUnderFullLoad) {
  RoundRobinArbiter arb(3);
  std::map<int, int> wins;
  for (int i = 0; i < 300; ++i) ++wins[arb.arbitrate({true, true, true})];
  EXPECT_EQ(wins[0], 100);
  EXPECT_EQ(wins[1], 100);
  EXPECT_EQ(wins[2], 100);
}

TEST(RoundRobinArbiter, SkipsNonRequesters) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate({true, false, true, false}), 0);
  EXPECT_EQ(arb.arbitrate({true, false, true, false}), 2);
  EXPECT_EQ(arb.arbitrate({true, false, true, false}), 0);
}

TEST(RoundRobinArbiter, PeekDoesNotAdvance) {
  RoundRobinArbiter arb(2);
  EXPECT_EQ(arb.peek({true, true}), 0);
  EXPECT_EQ(arb.peek({true, true}), 0);
  EXPECT_EQ(arb.arbitrate({true, true}), 0);
  EXPECT_EQ(arb.peek({true, true}), 1);
}

TEST(RoundRobinArbiter, AdvancePast) {
  RoundRobinArbiter arb(4);
  arb.advance_past(2);
  EXPECT_EQ(arb.peek({true, true, true, true}), 3);
  arb.advance_past(3);
  EXPECT_EQ(arb.peek({true, true, true, true}), 0);
}

TEST(RoundRobinArbiter, ResizeResetsOutOfRangePointer) {
  RoundRobinArbiter arb(4);
  arb.advance_past(2);  // pointer = 3
  arb.resize(2);
  EXPECT_EQ(arb.peek({true, true}), 0);
}

TEST(RoundRobinArbiter, ShortRequestVectorTolerated) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate(std::vector<bool>{true}), 0);  // treats missing entries as absent
}

// --- RequestSet (the allocation-free scratch form of the request vector) ---

TEST(RequestSet, SetTestClearAny) {
  RequestSet set(70);  // spans two 64-bit words
  EXPECT_EQ(set.size(), 70u);
  EXPECT_FALSE(set.any());
  set.set(0);
  set.set(63);
  set.set(69);
  EXPECT_TRUE(set.any());
  EXPECT_TRUE(set.test(0));
  EXPECT_TRUE(set.test(63));
  EXPECT_TRUE(set.test(69));
  EXPECT_FALSE(set.test(1));
  EXPECT_FALSE(set.test(64));
  set.clear();
  EXPECT_FALSE(set.any());
  EXPECT_FALSE(set.test(63));
}

// The two overloads must grant identically: the RequestSet path replaced the
// vector<bool> path in the router stages and must not change arbitration.
TEST(RequestSet, ArbitrateMatchesVectorBoolOverload) {
  RoundRobinArbiter vec_arb(5);
  RoundRobinArbiter set_arb(5);
  std::uint32_t lcg = 12345;
  for (int round = 0; round < 200; ++round) {
    std::vector<bool> requests(5);
    RequestSet set(5);
    for (std::size_t i = 0; i < 5; ++i) {
      lcg = lcg * 1664525u + 1013904223u;
      const bool req = (lcg >> 16) & 1u;
      requests[i] = req;
      if (req) set.set(i);
    }
    EXPECT_EQ(vec_arb.peek(requests), set_arb.peek(set));
    EXPECT_EQ(vec_arb.arbitrate(requests), set_arb.arbitrate(set));
    EXPECT_EQ(vec_arb.pointer(), set_arb.pointer());
  }
}

// The word-scan peek over multi-word sets, arbiters longer or shorter than
// the set, and every pointer position grants exactly like the bit loop of
// the vector<bool> overload.
TEST(RequestSet, WordScanPeekMatchesVectorBoolAcrossWords) {
  std::uint32_t lcg = 777;
  const auto next = [&lcg] {
    lcg = lcg * 1664525u + 1013904223u;
    return lcg >> 8;
  };
  for (int round = 0; round < 400; ++round) {
    const std::size_t arb_size = 1 + next() % 140;
    const std::size_t set_size = 1 + next() % 140;
    RoundRobinArbiter arb(arb_size);
    arb.set_pointer(next() % arb_size);
    std::vector<bool> requests(set_size);
    RequestSet set(set_size);
    const unsigned density = 1 + next() % 8;
    for (std::size_t i = 0; i < set_size; ++i)
      if (next() % density == 0) {
        requests[i] = true;
        set.set(i);
      }
    EXPECT_EQ(arb.peek(set), arb.peek(requests)) << "round " << round;
  }
}

TEST(RequestSet, FindFirstAndForEach) {
  RequestSet set(130);
  for (const std::size_t i : {3u, 63u, 64u, 129u}) set.set(i);
  EXPECT_EQ(set.find_first(0, 130), 3);
  EXPECT_EQ(set.find_first(4, 130), 63);
  EXPECT_EQ(set.find_first(4, 63), -1);
  EXPECT_EQ(set.find_first(64, 65), 64);
  EXPECT_EQ(set.find_first(65, 129), -1);
  EXPECT_EQ(set.find_first(65, 130), 129);
  EXPECT_EQ(set.find_first(7, 7), -1);
  std::vector<int> visited;
  set.for_each([&](int i) { visited.push_back(i); });
  EXPECT_EQ(visited, (std::vector<int>{3, 63, 64, 129}));
}

TEST(RequestSet, ShorterThanArbiterTolerated) {
  RoundRobinArbiter arb(4);
  RequestSet set(1);
  set.set(0);
  EXPECT_EQ(arb.arbitrate(set), 0);
}

}  // namespace
}  // namespace nbtinoc::noc
