#include "nbtinoc/noc/input_unit.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "nbtinoc/noc/router.hpp"
#include "nbtinoc/sim/snapshot.hpp"

namespace nbtinoc::noc {
namespace {

NocConfig config(int vcs = 4, int depth = 4) {
  NocConfig c;
  c.width = 2;
  c.height = 2;
  c.num_vcs = vcs;
  c.buffer_depth = depth;
  return c;
}

Flit head(PacketId pkt) {
  Flit f;
  f.type = FlitType::Head;
  f.packet = pkt;
  return f;
}

TEST(InputUnit, Construction) {
  InputUnit iu(Dir::East, config());
  EXPECT_EQ(iu.dir(), Dir::East);
  EXPECT_EQ(iu.num_vcs(), 4);
  for (int v = 0; v < 4; ++v) {
    EXPECT_TRUE(iu.vc(v).is_idle());
    EXPECT_FALSE(iu.has_output(v));
  }
}

TEST(InputUnit, ReceiveHeadSetsRouteAndArrival) {
  InputUnit iu(Dir::East, config());
  iu.vc(1).allocate(7, 0);
  Flit f = head(7);
  f.vc = 1;
  iu.receive_flit(f, Dir::West, /*now=*/42);
  EXPECT_EQ(iu.vc(1).route(), Dir::West);
  EXPECT_EQ(iu.vc(1).front().arrived_at, 42u);
}

TEST(InputUnit, ReceiveBadVcThrows) {
  InputUnit iu(Dir::East, config(2));
  Flit f = head(1);
  f.vc = 5;
  EXPECT_THROW(iu.receive_flit(f, Dir::West, 0), std::logic_error);
  f.vc = kInvalidVc;
  EXPECT_THROW(iu.receive_flit(f, Dir::West, 0), std::logic_error);
}

TEST(InputUnit, WaitingForVaSemantics) {
  InputUnit iu(Dir::East, config());
  // Empty VC: not waiting.
  EXPECT_FALSE(iu.waiting_for_va(0, 10));

  iu.vc(0).allocate(3, 0);
  EXPECT_FALSE(iu.waiting_for_va(0, 10));  // reserved but head not arrived

  Flit f = head(3);
  f.vc = 0;
  iu.receive_flit(f, Dir::North, 5);
  EXPECT_FALSE(iu.waiting_for_va(0, 5));  // BW this cycle: eligible next
  EXPECT_TRUE(iu.waiting_for_va(0, 6));

  iu.assign_output(0, Dir::North, 2);
  EXPECT_FALSE(iu.waiting_for_va(0, 6));  // already allocated downstream
}

TEST(InputUnit, NewTrafficTowardFiltersByRoute) {
  sim::StatRegistry stats;
  Router router(0, config(), stats);
  InputUnit& iu = router.input(Dir::Local);
  iu.vc(0).allocate(3, 0);
  Flit f = head(3);
  f.vc = 0;
  iu.receive_flit(f, Dir::North, 5);
  EXPECT_TRUE(router.has_new_traffic_toward(Dir::North, Router::kAnyVnet, 0, 6));
  EXPECT_FALSE(router.has_new_traffic_toward(Dir::South, Router::kAnyVnet, 0, 6));
}

TEST(InputUnit, VaPendingSetFollowsTheHeadLifecycle) {
  InputUnit iu(Dir::East, config());
  iu.vc(2).allocate(3, 0);
  EXPECT_FALSE(iu.va_pending(2));  // reserved, head not written yet
  Flit f = head(3);
  f.vc = 2;
  f.vnet = 0;
  iu.receive_flit(f, Dir::South, /*next_class=*/0, 9);
  ASSERT_TRUE(iu.va_pending(2));
  EXPECT_EQ(iu.pending_head(2).route, Dir::South);
  EXPECT_EQ(iu.pending_head(2).arrived_at, 9u);
  // A body flit lands behind the head and leaves the set alone.
  Flit body = f;
  body.type = FlitType::Body;
  iu.receive_flit(body, Dir::North, 10);
  EXPECT_TRUE(iu.va_pending(2));
  EXPECT_EQ(iu.pending_head(2).route, Dir::South);
  std::vector<int> visited;
  iu.for_each_va_pending([&](int v, const InputUnit::PendingHead&) { visited.push_back(v); });
  EXPECT_EQ(visited, std::vector<int>{2});
  iu.assign_output(2, Dir::South, 1);
  EXPECT_FALSE(iu.va_pending(2));
}

TEST(InputUnit, PurgeClearsVaPendingBit) {
  InputUnit iu(Dir::East, config());
  iu.vc(1).allocate(4, 0);
  Flit f = head(4);
  f.vc = 1;
  iu.receive_flit(f, Dir::West, 3);
  ASSERT_TRUE(iu.va_pending(1));
  EXPECT_EQ(iu.purge_vc(1), 1);
  EXPECT_FALSE(iu.va_pending(1));
  EXPECT_FALSE(iu.waiting_for_va(1, 100));
}

TEST(InputUnit, RerouteRekeysPendingHead) {
  InputUnit iu(Dir::East, config());
  iu.vc(3).allocate(5, 0);
  Flit f = head(5);
  f.vc = 3;
  iu.receive_flit(f, Dir::West, /*next_class=*/0, 3);
  iu.reroute_head(3, Dir::North, /*next_class=*/1);
  ASSERT_TRUE(iu.va_pending(3));
  EXPECT_EQ(iu.pending_head(3).route, Dir::North);
  EXPECT_EQ(iu.pending_head(3).next_class, 1);
  EXPECT_EQ(iu.vc(3).route(), Dir::North);
  EXPECT_EQ(iu.vc(3).next_class(), 1);
  EXPECT_EQ(iu.pending_head(3).arrived_at, 3u);  // eligibility unchanged
}

TEST(InputUnit, VaPendingSetSpansMoreThanOneWord) {
  // 2 vnets x 40 VCs: bits 64+ live in the second mask word.
  NocConfig c = config(40);
  c.num_vnets = 2;
  InputUnit iu(Dir::East, c);
  for (const int v : {5, 70}) {
    iu.vc(v).allocate(static_cast<PacketId>(v), 0);
    Flit f = head(static_cast<PacketId>(v));
    f.vc = v;
    f.vnet = c.vnet_of_vc(v);
    iu.receive_flit(f, Dir::North, 1);
  }
  std::vector<int> visited;
  iu.for_each_va_pending([&](int v, const InputUnit::PendingHead& h) {
    visited.push_back(v);
    EXPECT_EQ(h.vnet, c.vnet_of_vc(v));
  });
  EXPECT_EQ(visited, (std::vector<int>{5, 70}));
  iu.assign_output(70, Dir::North, 0);
  EXPECT_FALSE(iu.va_pending(70));
  EXPECT_TRUE(iu.va_pending(5));
}

TEST(InputUnit, SnapshotLoadRebuildsVaPendingSet) {
  InputUnit saved(Dir::East, config());
  for (const int v : {0, 2}) {
    saved.vc(v).allocate(static_cast<PacketId>(v + 1), 0);
    Flit f = head(static_cast<PacketId>(v + 1));
    f.vc = v;
    saved.receive_flit(f, v == 0 ? Dir::North : Dir::South, 4);
  }
  saved.assign_output(0, Dir::North, 1);  // granted: not pending
  sim::SnapshotWriter w;
  saved.save(w);
  InputUnit loaded(Dir::East, config());
  sim::SnapshotReader r(w.data());
  loaded.load(r);
  for (int v = 0; v < 4; ++v) EXPECT_EQ(loaded.va_pending(v), saved.va_pending(v)) << v;
  EXPECT_TRUE(loaded.va_pending(2));
  EXPECT_EQ(loaded.pending_head(2).route, Dir::South);
  EXPECT_EQ(loaded.pending_head(2).arrived_at, 4u);
}

Flit flit_of(PacketId pkt, FlitType type, int vc) {
  Flit f = head(pkt);
  f.type = type;
  f.vc = vc;
  return f;
}

TEST(InputUnit, SaReadySetFollowsTheFlitLifecycle) {
  InputUnit iu(Dir::East, config());
  iu.vc(2).allocate(3, 0);
  iu.receive_flit(flit_of(3, FlitType::Head, 2), Dir::South, 1);
  EXPECT_FALSE(iu.sa_ready(2));  // buffered, but no output VC yet
  iu.assign_output(2, Dir::South, 1);
  EXPECT_TRUE(iu.sa_ready(2));
  EXPECT_EQ(iu.pop_flit(2).type, FlitType::Head);
  EXPECT_FALSE(iu.sa_ready(2));  // drained ahead of its body flits
  EXPECT_TRUE(iu.has_output(2));
  iu.receive_flit(flit_of(3, FlitType::Body, 2), Dir::North, 2);
  EXPECT_TRUE(iu.sa_ready(2));  // a body write refills the VC
  iu.receive_flit(flit_of(3, FlitType::Tail, 2), Dir::North, 3);
  EXPECT_TRUE(iu.sa_ready(2));
  EXPECT_EQ(iu.pop_flit(2).type, FlitType::Body);
  EXPECT_TRUE(iu.sa_ready(2));  // the tail is still buffered
  EXPECT_EQ(iu.pop_flit(2).type, FlitType::Tail);
  EXPECT_FALSE(iu.sa_ready(2));
  EXPECT_FALSE(iu.has_output(2));  // the tail pop releases the allocation
  EXPECT_TRUE(iu.vc(2).is_idle());
  EXPECT_FALSE(iu.any_sa_ready());
}

TEST(InputUnit, ClearOutputAndPurgeClearSaReadyBit) {
  InputUnit iu(Dir::East, config());
  for (const int v : {0, 1}) {
    iu.vc(v).allocate(static_cast<PacketId>(v + 1), 0);
    iu.receive_flit(flit_of(static_cast<PacketId>(v + 1), FlitType::Head, v), Dir::West, 3);
    iu.assign_output(v, Dir::West, v);
    ASSERT_TRUE(iu.sa_ready(v));
  }
  iu.clear_output(0);
  EXPECT_FALSE(iu.sa_ready(0));
  EXPECT_EQ(iu.purge_vc(1), 1);
  EXPECT_FALSE(iu.sa_ready(1));
  EXPECT_FALSE(iu.any_sa_ready());
}

TEST(InputUnit, SnapshotLoadRebuildsSaReadySet) {
  InputUnit saved(Dir::East, config());
  for (const int v : {0, 2, 3}) {
    saved.vc(v).allocate(static_cast<PacketId>(v + 1), 0);
    saved.receive_flit(flit_of(static_cast<PacketId>(v + 1), FlitType::Head, v), Dir::North, 4);
  }
  saved.assign_output(0, Dir::North, 1);  // granted and buffered: ready
  saved.assign_output(3, Dir::North, 2);
  (void)saved.pop_flit(3);                // granted but drained: not ready
  sim::SnapshotWriter w;
  saved.save(w);
  InputUnit loaded(Dir::East, config());
  sim::SnapshotReader r(w.data());
  loaded.load(r);
  for (int v = 0; v < 4; ++v) EXPECT_EQ(loaded.sa_ready(v), saved.sa_ready(v)) << v;
  EXPECT_TRUE(loaded.sa_ready(0));
  EXPECT_FALSE(loaded.sa_ready(2));
  EXPECT_FALSE(loaded.sa_ready(3));
}

TEST(InputUnit, SaReadySetSpansMoreThanOneWord) {
  // 2 vnets x 40 VCs: bits 64+ live in the second mask word.
  NocConfig c = config(40);
  c.num_vnets = 2;
  InputUnit iu(Dir::East, c);
  for (const int v : {5, 70}) {
    iu.vc(v).allocate(static_cast<PacketId>(v), 0);
    Flit f = flit_of(static_cast<PacketId>(v), FlitType::Head, v);
    f.vnet = c.vnet_of_vc(v);
    iu.receive_flit(f, Dir::North, 1);
    iu.assign_output(v, Dir::North, 0);
  }
  const auto any = [](int) { return true; };
  EXPECT_EQ(iu.nominate_sa(any), 5);  // pointer 0
  iu.sa_arbiter().advance_past(5);
  EXPECT_EQ(iu.nominate_sa(any), 70);  // from 6 on, the second word comes first
  EXPECT_EQ(iu.nominate_sa([](int v) { return v != 70; }), 5);  // then wraps
  iu.sa_arbiter().advance_past(70);
  EXPECT_EQ(iu.nominate_sa(any), 5);
  EXPECT_EQ(iu.nominate_sa([](int) { return false; }), -1);
  (void)iu.pop_flit(70);
  EXPECT_FALSE(iu.sa_ready(70));
  EXPECT_TRUE(iu.sa_ready(5));
}

TEST(InputUnit, NominateSaMatchesArbiterPeek) {
  // Random ready sets, acceptance masks and pointers over a two-word port:
  // the nominee is always RoundRobinArbiter::peek over the accepted VCs.
  NocConfig c = config(35);
  c.num_vnets = 2;
  const int n = c.total_vcs();
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 200; ++trial) {
    InputUnit iu(Dir::East, c);
    std::vector<bool> accepted(static_cast<std::size_t>(n), false);
    RequestSet expected(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      if (next() % 3 != 0) continue;
      iu.vc(v).allocate(static_cast<PacketId>(v + 1), 0);
      iu.receive_flit(flit_of(static_cast<PacketId>(v + 1), FlitType::Head, v), Dir::North, 0);
      iu.assign_output(v, Dir::North, 0);
      if (next() % 2 == 0) {
        accepted[static_cast<std::size_t>(v)] = true;
        expected.set(static_cast<std::size_t>(v));
      }
    }
    iu.sa_arbiter().set_pointer(static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n)));
    const int nominee = iu.nominate_sa(
        [&](int v) { return static_cast<bool>(accepted[static_cast<std::size_t>(v)]); });
    EXPECT_EQ(nominee, iu.sa_arbiter().peek(expected)) << "trial " << trial;
  }
}

TEST(InputUnit, AssignAndClearOutput) {
  InputUnit iu(Dir::East, config());
  iu.assign_output(2, Dir::South, 1);
  EXPECT_TRUE(iu.has_output(2));
  EXPECT_EQ(iu.out_port(2), Dir::South);
  EXPECT_EQ(iu.out_vc(2), 1);
  iu.clear_output(2);
  EXPECT_FALSE(iu.has_output(2));
}

TEST(InputUnit, GateCommandBaselineWakesEverything) {
  InputUnit iu(Dir::East, config());
  iu.vc(0).gate(0);
  iu.vc(1).gate(0);
  GateCommand cmd;  // gating_active = false
  iu.apply_gate_command(cmd, 0);
  EXPECT_TRUE(iu.vc(0).is_idle());
  EXPECT_TRUE(iu.vc(1).is_idle());
}

TEST(InputUnit, GateCommandKeepsExactlyOneAwake) {
  InputUnit iu(Dir::East, config());
  GateCommand cmd;
  cmd.gating_active = true;
  cmd.enable = true;
  cmd.keep_vc = 2;
  // now = 1: fresh buffers are in their (trivial) wake window at cycle 0.
  iu.apply_gate_command(cmd, 1);
  EXPECT_TRUE(iu.vc(0).is_gated());
  EXPECT_TRUE(iu.vc(1).is_gated());
  EXPECT_TRUE(iu.vc(2).is_idle());
  EXPECT_TRUE(iu.vc(3).is_gated());
}

TEST(InputUnit, GateCommandDisabledGatesAllIdle) {
  InputUnit iu(Dir::East, config());
  GateCommand cmd;
  cmd.gating_active = true;
  cmd.enable = false;
  cmd.keep_vc = 1;  // valid VC-ID always driven, but not enabled
  iu.apply_gate_command(cmd, 1);
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(iu.vc(v).is_gated());
}

TEST(InputUnit, GateCommandNeverTouchesActive) {
  InputUnit iu(Dir::East, config());
  iu.vc(1).allocate(9, 0);
  GateCommand cmd;
  cmd.gating_active = true;
  cmd.enable = true;
  cmd.keep_vc = 0;
  iu.apply_gate_command(cmd, 1);
  EXPECT_TRUE(iu.vc(1).is_active());
  EXPECT_TRUE(iu.vc(0).is_idle());
  EXPECT_TRUE(iu.vc(2).is_gated());
}

TEST(InputUnit, GateCommandWakesKeptVc) {
  InputUnit iu(Dir::East, config());
  iu.vc(3).gate(0);
  GateCommand cmd;
  cmd.gating_active = true;
  cmd.enable = true;
  cmd.keep_vc = 3;
  iu.apply_gate_command(cmd, 7);
  EXPECT_TRUE(iu.vc(3).is_idle());
}

TEST(InputUnit, SyncStressTracksPowerState) {
  InputUnit iu(Dir::East, config(2));
  iu.vc(1).gate(0);   // gated before any cycle elapses
  iu.sync_stress(2);  // cycles 0 and 1 elapse
  EXPECT_EQ(iu.trackers().at(0).stress_cycles(), 2u);
  EXPECT_EQ(iu.trackers().at(1).recovery_cycles(), 2u);
  EXPECT_DOUBLE_EQ(iu.trackers().at(0).duty_cycle_percent(), 100.0);
  EXPECT_DOUBLE_EQ(iu.trackers().at(1).duty_cycle_percent(), 0.0);
}

TEST(OutVcStateViewTest, ReflectsStates) {
  InputUnit iu(Dir::East, config(3));
  iu.vc(0).allocate(1, 0);
  iu.vc(2).gate(0);
  OutVcStateView view(&iu);
  EXPECT_EQ(view.num_vcs(), 3);
  EXPECT_TRUE(view.is_active(0));
  EXPECT_TRUE(view.is_idle(1));
  EXPECT_TRUE(view.is_recovery(2));
}

}  // namespace
}  // namespace nbtinoc::noc
