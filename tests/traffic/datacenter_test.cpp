// DatacenterAggregateSource: profile validation, determinism, the
// pre-rolled emission discipline (next_event_cycle exactness, burst slip),
// snapshot round trips, and the network installer.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/traffic/datacenter.hpp"
#include "nbtinoc/traffic/trace.hpp"

namespace nbtinoc::traffic {
namespace {

/// A small population with enough activity that every test sees traffic
/// within a few thousand cycles.
DatacenterProfile small_profile() {
  DatacenterProfile p;
  p.users_per_node = 64;
  p.user_rate = 0.05;
  p.mean_on_cycles = 400;
  p.mean_off_cycles = 600;
  p.profile_horizon = 1 << 12;
  return p;
}

DatacenterAggregateSource make_source(std::uint64_t seed,
                                      const DatacenterProfile& p = small_profile()) {
  return DatacenterAggregateSource(0, p, 2, 2, /*hotspot=*/3, seed);
}

template <typename Fn>
void expect_invalid(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected invalid_argument containing '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(DatacenterProfile, ValidateRejectsImpossibleProfiles) {
  const auto check = [](auto mutate, const std::string& needle) {
    DatacenterProfile p;
    mutate(p);
    expect_invalid([&] { p.validate(); }, needle);
  };
  check([](auto& p) { p.users_per_node = 0; }, "users_per_node");
  check([](auto& p) { p.user_rate = 0.0; }, "user_rate");
  check([](auto& p) { p.mean_on_cycles = 0.5; }, "mean_on_cycles");
  check([](auto& p) { p.mean_off_cycles = 0.0; }, "mean_off_cycles");
  check([](auto& p) { p.pareto_alpha = 1.0; }, "infinite-mean phases never settle");
  check([](auto& p) { p.hotspot_fraction = 1.5; }, "hotspot_fraction");
  check([](auto& p) { p.packet_length = 0; }, "packet_length");
  check([](auto& p) { p.profile_horizon = 0; }, "profile_horizon");
  // Peak load beyond the NI burst drain capacity is a configuration error,
  // not a silent slip-forever.
  check(
      [](auto& p) {
        p.users_per_node = 100;
        p.user_rate = 0.5;
        p.packet_length = 1;
      },
      "exceeds the NI burst drain capacity of 8");
  EXPECT_NO_THROW(DatacenterProfile{}.validate());
  EXPECT_NO_THROW(small_profile().validate());
}

TEST(DatacenterProfile, DescribeEncodesEveryKnob) {
  const std::string d = small_profile().describe();
  EXPECT_NE(d.find("users=64"), std::string::npos) << d;
  EXPECT_NE(d.find("rate=0.05"), std::string::npos) << d;
  EXPECT_NE(d.find("pattern=uniform"), std::string::npos) << d;
  EXPECT_NE(d.find("horizon=4096"), std::string::npos) << d;
  // Different knobs -> different digest arms.
  DatacenterProfile other = small_profile();
  other.users_per_node = 65;
  EXPECT_NE(other.describe(), d);
}

TEST(DatacenterSource, ActivityProfileIsPeriodicAndBounded) {
  auto src = make_source(99);
  const DatacenterProfile p = small_profile();
  int peak = 0;
  for (sim::Cycle c = 0; c < p.profile_horizon; c += 37) {
    const int a = src.active_sessions(c);
    EXPECT_GE(a, 0);
    EXPECT_LE(a, p.users_per_node);
    EXPECT_EQ(src.active_sessions(c + p.profile_horizon), a) << "profile must wrap at c=" << c;
    peak = std::max(peak, a);
  }
  // With 64 users at ~40% duty, some sessions are ON somewhere.
  EXPECT_GT(peak, 0);
  // Long-run mean rate = users * rate * on/(on+off).
  const double nominal =
      p.users_per_node * p.user_rate * p.mean_on_cycles / (p.mean_on_cycles + p.mean_off_cycles);
  EXPECT_DOUBLE_EQ(src.mean_flit_rate(), nominal);
}

TEST(DatacenterSource, SameSeedSameStreamDifferentSeedDiverges) {
  auto a = make_source(7);
  auto b = make_source(7);
  auto c = make_source(8);
  const sim::Cycle horizon = 20'000;
  std::vector<TraceRecord> sa, sb, sc;
  const auto drain = [&](DatacenterAggregateSource& s, std::vector<TraceRecord>& out) {
    for (sim::Cycle t = 0; t < horizon; ++t)
      while (auto req = s.maybe_generate(t)) out.push_back({t, 0, req->dst, req->length});
  };
  drain(a, sa);
  drain(b, sb);
  drain(c, sc);
  ASSERT_GT(sa.size(), 50u);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].cycle, sb[i].cycle);
    EXPECT_EQ(sa[i].dst, sb[i].dst);
  }
  bool diverged = sa.size() != sc.size();
  for (std::size_t i = 0; !diverged && i < sa.size(); ++i)
    diverged = sa[i].cycle != sc[i].cycle || sa[i].dst != sc[i].dst;
  EXPECT_TRUE(diverged);
}

TEST(DatacenterSource, NextEventCycleNeverOvershoots) {
  // Skipping contract: jumping straight to next_event_cycle and
  // draining bursts there yields the same packet stream as polling every
  // cycle with maybe_generate.
  auto stepped = make_source(13);
  auto skipped = make_source(13);
  const sim::Cycle horizon = 20'000;

  std::vector<TraceRecord> by_step;
  for (sim::Cycle t = 0; t < horizon; ++t)
    while (auto req = stepped.maybe_generate(t)) by_step.push_back({t, 0, req->dst, req->length});

  std::vector<TraceRecord> by_skip;
  noc::PacketRequest burst[noc::kMaxGenerateBurst];
  sim::Cycle now = 0;
  while (true) {
    const sim::Cycle next = skipped.next_event_cycle(now);
    if (next == sim::kCycleNever || next >= horizon) break;
    ASSERT_GE(next, now) << "next_event_cycle went backwards";
    now = next;
    const std::size_t n = skipped.generate_burst(now, burst, noc::kMaxGenerateBurst);
    ASSERT_GT(n, 0u) << "next_event_cycle promised an event at " << now;
    for (std::size_t i = 0; i < n; ++i) by_skip.push_back({now, 0, burst[i].dst, burst[i].length});
    ++now;  // a drained cycle is done; move on
  }

  ASSERT_GT(by_step.size(), 50u);
  ASSERT_EQ(by_skip.size(), by_step.size());
  for (std::size_t i = 0; i < by_step.size(); ++i) {
    EXPECT_EQ(by_skip[i].cycle, by_step[i].cycle);
    EXPECT_EQ(by_skip[i].dst, by_step[i].dst);
    EXPECT_EQ(by_skip[i].length, by_step[i].length);
  }
}

TEST(DatacenterSource, BurstSlipDrainsBacklogDeterministically) {
  // A hot profile (peak lambda ~6 packets/cycle) produces real multi-packet
  // batches. Pulling one packet at a time must see the slipped backlog
  // (next_event_cycle == now while packets remain undelivered) and deliver
  // the identical packet sequence the full-width burst drain produces.
  DatacenterProfile p = small_profile();
  p.user_rate = 0.4;
  auto full = make_source(21, p);
  auto starved = make_source(21, p);
  const sim::Cycle horizon = 20'000;

  std::vector<noc::PacketRequest> all;
  noc::PacketRequest burst[noc::kMaxGenerateBurst];
  for (sim::Cycle t = 0; t < horizon; ++t) {
    const std::size_t n = full.generate_burst(t, burst, noc::kMaxGenerateBurst);
    all.insert(all.end(), burst, burst + n);
  }

  std::vector<noc::PacketRequest> one_by_one;
  bool ever_pending = false;
  for (sim::Cycle t = 0; t < horizon; ++t) {
    noc::PacketRequest req;
    while (starved.generate_burst(t, &req, 1) == 1) {
      one_by_one.push_back(req);
      // Backlog left behind by a capped pull keeps the source hot at `now`
      // — the invariant both scheduler modes rely on to drain slipped
      // packets on identical cycles.
      if (starved.next_event_cycle(t) == t) ever_pending = true;
    }
    EXPECT_GT(starved.next_event_cycle(t), t) << "drained source still claims an event at " << t;
  }
  EXPECT_TRUE(ever_pending) << "profile never produced a multi-packet cycle; weak test";

  ASSERT_GT(all.size(), 500u);
  ASSERT_EQ(one_by_one.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(one_by_one[i].dst, all[i].dst);
    EXPECT_EQ(one_by_one[i].length, all[i].length);
  }
}

TEST(DatacenterSource, SnapshotRoundTripContinuesIdentically) {
  auto reference = make_source(42);
  auto saved = make_source(42);
  const sim::Cycle cut = 7'000, horizon = 20'000;
  noc::PacketRequest burst[noc::kMaxGenerateBurst];

  const auto drain_range = [&](DatacenterAggregateSource& s, sim::Cycle from, sim::Cycle to,
                               std::vector<TraceRecord>& out) {
    for (sim::Cycle t = from; t < to; ++t) {
      const std::size_t n = s.generate_burst(t, burst, noc::kMaxGenerateBurst);
      for (std::size_t i = 0; i < n; ++i) out.push_back({t, 0, burst[i].dst, burst[i].length});
    }
  };

  std::vector<TraceRecord> uninterrupted;
  drain_range(reference, 0, horizon, uninterrupted);

  std::vector<TraceRecord> spliced;
  drain_range(saved, 0, cut, spliced);
  sim::SnapshotWriter w;
  saved.save(w);
  const std::string bytes = w.take();

  // Restore into a *fresh* source (same structural seed) and continue.
  auto restored = make_source(42);
  sim::SnapshotReader r(bytes);
  restored.load(r);
  r.expect_end();
  drain_range(restored, cut, horizon, spliced);

  ASSERT_GT(uninterrupted.size(), 50u);
  ASSERT_EQ(spliced.size(), uninterrupted.size());
  for (std::size_t i = 0; i < uninterrupted.size(); ++i) {
    EXPECT_EQ(spliced[i].cycle, uninterrupted[i].cycle);
    EXPECT_EQ(spliced[i].dst, uninterrupted[i].dst);
  }
}

TEST(DatacenterSource, InstallerDrivesANetwork) {
  noc::NocConfig cfg;
  cfg.width = 2;
  cfg.height = 2;
  noc::Network net(cfg);
  install_datacenter_traffic(net, small_profile(), /*base_seed=*/2026);
  net.run(20'000);
  EXPECT_GT(net.stats().counter("noc.packets_offered"), 100u);
  EXPECT_GT(net.stats().counter("noc.packets_ejected"), 100u);
}

TEST(DatacenterSource, DestinationsRespectThePattern) {
  DatacenterProfile p = small_profile();
  p.pattern = PatternKind::kHotspot;
  p.hotspot_fraction = 1.0;  // every packet aims at the hot node
  auto src = make_source(5, p);
  int seen = 0;
  for (sim::Cycle t = 0; t < 20'000 && seen < 50; ++t)
    while (auto req = src.maybe_generate(t)) {
      EXPECT_EQ(req->dst, 3);  // make_source pins hotspot = node 3
      ++seen;
    }
  EXPECT_GE(seen, 50);
}

}  // namespace
}  // namespace nbtinoc::traffic
