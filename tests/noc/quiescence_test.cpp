// The active-set engine's skipping safety net. A component may only park
// when stepping it until the next wake event provably does nothing, and a
// fully parked fabric may only jump the clock to the event horizon. These
// tests pin the park condition's "no" cases — a buffered flit, a busy NI, a
// pending wake-up, a control-fault injector — plus the positive cases (idle
// baseline mesh, all-gated policy fixed point), the per-source
// next_event_cycle contracts the jump relies on, and the end-to-end
// guarantee that skipped runs are bit-identical to stepped ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/sim/event_horizon.hpp"
#include "nbtinoc/sim/fault_plan.hpp"
#include "nbtinoc/traffic/synthetic.hpp"
#include "nbtinoc/traffic/trace.hpp"

namespace nbtinoc::noc {
namespace {

NocConfig mesh(int width, int vcs = 2) {
  NocConfig c;
  c.width = width;
  c.height = width;
  c.num_vcs = vcs;
  c.buffer_depth = 4;
  c.packet_length = 4;
  return c;
}

/// Emits exactly one packet at a scheduled cycle, then goes silent.
class OneShotSource final : public ITrafficSource {
 public:
  OneShotSource(sim::Cycle when, NodeId dst) : when_(when), dst_(dst) {}
  std::optional<PacketRequest> maybe_generate(sim::Cycle now) override {
    if (fired_ || now < when_) return std::nullopt;
    fired_ = true;
    return PacketRequest{dst_, 4};
  }
  sim::Cycle next_event_cycle(sim::Cycle now) override {
    if (fired_) return sim::kCycleNever;
    return std::max(now, when_);
  }

 private:
  sim::Cycle when_;
  NodeId dst_;
  bool fired_ = false;
};

TEST(EventHorizon, AggregatesMinAndClampsToNow) {
  sim::EventHorizon h(100);
  EXPECT_EQ(h.horizon(), sim::kCycleNever);
  h.consider(500);
  h.consider(40);  // conservative past answer must not move time backwards
  EXPECT_EQ(h.horizon(), 100u);
  h.consider(sim::kCycleNever);
  EXPECT_EQ(h.horizon(), 100u);
}

/// True when every router and NI is parked for the next cycle.
bool fabric_parked(const Network& net) {
  for (NodeId id = 0; id < net.num_routers(); ++id)
    if (net.router_active(id)) return false;
  for (NodeId t = 0; t < net.nodes(); ++t)
    if (net.ni_active(t)) return false;
  return true;
}

/// True when every router sits in its per-port gating fixed point.
bool all_routers_at_fixed_point(const Network& net) {
  for (NodeId id = 0; id < net.num_routers(); ++id)
    if (!net.router_gating_fixed_point(id)) return false;
  return true;
}

TEST(Quiescence, IdleBaselineMeshIsQuiescent) {
  Network net(mesh(2));
  net.set_scheduler_mode(SchedulerMode::kActiveSet);
  net.step();
  EXPECT_TRUE(all_routers_at_fixed_point(net));
  EXPECT_TRUE(fabric_parked(net));
}

TEST(Quiescence, BufferedFlitOrBusyNiIsNeverQuiescent) {
  // A router holding a flit, or an NI holding a packet, must never park:
  // its next stage would act on that work.
  Network net(mesh(3));
  net.set_traffic_source(0, std::make_unique<OneShotSource>(2, /*dst=*/8));
  net.set_scheduler_mode(SchedulerMode::kActiveSet);
  bool saw_buffered_flit = false;
  for (int i = 0; i < 200; ++i) {
    net.step();
    for (NodeId id = 0; id < net.num_routers(); ++id) {
      if (!net.router(id).any_busy_input()) continue;
      saw_buffered_flit = true;
      EXPECT_TRUE(net.router_active(id)) << "router " << id << ", cycle " << net.clock().now();
    }
    if (!net.ni(0).idle()) {
      EXPECT_TRUE(net.ni_active(0)) << "cycle " << net.clock().now();
    }
  }
  ASSERT_TRUE(saw_buffered_flit);
  // After full drain with the silent tail, the fabric parks again.
  EXPECT_TRUE(net.drained());
  EXPECT_TRUE(fabric_parked(net));
}

TEST(Quiescence, SensorWiseMeshReachesAllGatedFixedPoint) {
  Network net(mesh(2));
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  net.run(64);
  ASSERT_TRUE(all_routers_at_fixed_point(net));
  // Fixed point: stepping a parkable mesh changes no gating state.
  const auto count_transitions = [&net] {
    std::uint64_t t = 0;
    for (NodeId id = 0; id < net.nodes(); ++id)
      for (int v = 0; v < net.config().total_vcs(); ++v)
        t += net.router(id).input(Dir::Local).vc(v).gate_transitions();
    return t;
  };
  const std::uint64_t transitions = count_transitions();
  for (int i = 0; i < 100; ++i) net.step();
  EXPECT_EQ(count_transitions(), transitions);
  EXPECT_TRUE(all_routers_at_fixed_point(net));
}

TEST(Quiescence, PendingWakeUpIsNeverQuiescent) {
  Network net(mesh(2));
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  net.run(64);
  ASSERT_TRUE(net.router_gating_fixed_point(0));
  // Force one VC out of Recovery: it now sits in its wake window, and the
  // policy will re-gate it on a later cycle — an observable event the
  // engine must not skip across, so router 0 may not park.
  net.router(0).input(Dir::Local).vc(0).wake(net.clock().now());
  EXPECT_FALSE(net.router_gating_fixed_point(0));
}

TEST(Quiescence, InstalledFaultInjectorIsNeverQuiescent) {
  // Control-fault processes draw RNG every cycle: every targeted router is
  // pinned active for as long as the injector is installed.
  Network net(mesh(2));
  net.set_scheduler_mode(SchedulerMode::kActiveSet);
  net.step();
  ASSERT_TRUE(fabric_parked(net));
  sim::FaultInjector injector(sim::FaultPlan::uniform(0.01), /*seed=*/5);
  net.set_fault_injector(&injector);
  for (int i = 0; i < 3; ++i) {
    net.step();
    for (NodeId id = 0; id < net.num_routers(); ++id) EXPECT_TRUE(net.router_active(id));
  }
  net.set_fault_injector(nullptr);
  net.step();
  EXPECT_TRUE(fabric_parked(net));
}

TEST(Quiescence, IdleMeshFastForwardsToEndWithoutStepping) {
  Network net(mesh(4));
  net.set_scheduler_mode(SchedulerMode::kActiveSet);
  net.run(1'000'000);
  EXPECT_EQ(net.clock().now(), 1'000'000u);
  EXPECT_GE(net.skip_stats().cycles_skipped, 999'000u);
  for (double d : net.duty_cycles_percent(0, Dir::East)) EXPECT_DOUBLE_EQ(d, 100.0);
}

TEST(Quiescence, SensorEpochsFenceTheSkips) {
  // With a policy controller installed, an otherwise idle mesh must still
  // step every 1024-cycle sensor refresh, so no skip may span an epoch.
  Network net(mesh(2));
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  net.set_scheduler_mode(SchedulerMode::kActiveSet);
  net.run(100'000);
  const auto& stats = net.skip_stats();
  ASSERT_GT(stats.skips, 0u);
  EXPECT_LE(stats.cycles_skipped / stats.skips, pc.sensor.epoch_cycles);
  // ~97 epochs in 100k cycles: roughly one skip per epoch once settled.
  EXPECT_GE(stats.skips, 90u);
}

TEST(Quiescence, FastForwardRunsAreBitIdenticalToStepped) {
  const auto run_one = [](SchedulerMode mode) {
    Network net(mesh(3));
    const auto model = nbti::NbtiModel::calibrated({}, {});
    core::PolicyConfig pc;
    pc.kind = core::PolicyKind::kSensorWise;
    core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 21);
    ctrl.attach();
    traffic::install_uniform_traffic(net, 0.02, 99);
    net.set_scheduler_mode(mode);
    net.run_with_warmup(2'000, 30'000);
    std::vector<double> out;
    for (NodeId id = 0; id < net.nodes(); ++id)
      for (int p = 0; p < kNumDirs; ++p) {
        const Dir port = static_cast<Dir>(p);
        if (!net.router(id).has_input(port)) continue;
        for (double d : net.duty_cycles_percent(id, port)) out.push_back(d);
      }
    out.push_back(static_cast<double>(net.stats().counter("noc.flits_ejected")));
    out.push_back(static_cast<double>(net.stats().counter("noc.packets_ejected")));
    out.push_back(static_cast<double>(net.stats().counter("noc.packets_offered")));
    return out;
  };
  const auto stepped = run_one(SchedulerMode::kStepped);
  const auto skipped = run_one(SchedulerMode::kActiveSet);
  ASSERT_EQ(stepped.size(), skipped.size());
  for (std::size_t i = 0; i < stepped.size(); ++i)
    EXPECT_EQ(stepped[i], skipped[i]) << "index " << i;
}

TEST(Quiescence, TraceReplayHorizonIsExact) {
  traffic::Trace trace;
  trace.add({/*cycle=*/100, /*src=*/0, /*dst=*/1, /*length=*/4});
  trace.add({/*cycle=*/900, /*src=*/0, /*dst=*/2, /*length=*/4});
  traffic::TraceReplaySource replay(trace, 0);
  EXPECT_EQ(replay.next_event_cycle(0), 100u);
  EXPECT_EQ(replay.next_event_cycle(150), 150u);  // slipped record: due now
  ASSERT_TRUE(replay.maybe_generate(100).has_value());
  EXPECT_EQ(replay.next_event_cycle(101), 900u);
  ASSERT_TRUE(replay.maybe_generate(900).has_value());
  EXPECT_EQ(replay.next_event_cycle(901), sim::kCycleNever);
}

TEST(Quiescence, SyntheticSourceHorizonNeverOvershoots) {
  traffic::DestinationPattern pattern(traffic::PatternKind::kUniform, 4, 4);
  traffic::SyntheticSource probe(0, 0.08, 4, pattern, 1234);
  traffic::SyntheticSource replay_src(0, 0.08, 4, pattern, 1234);
  // Collect the true fire cycles by stepping one twin...
  std::vector<sim::Cycle> fires;
  for (sim::Cycle t = 0; t < 20'000; ++t)
    if (probe.maybe_generate(t).has_value()) fires.push_back(t);
  ASSERT_FALSE(fires.empty());
  // ...then check the other twin's horizon from every prior cycle: it must
  // never claim a cycle past the next true fire.
  std::size_t next = 0;
  for (sim::Cycle t = 0; t < 20'000; ++t) {
    while (next < fires.size() && fires[next] < t) ++next;
    if (next >= fires.size()) break;
    const sim::Cycle horizon = replay_src.next_event_cycle(t);
    EXPECT_LE(horizon, fires[next]) << "at cycle " << t;
    if (replay_src.maybe_generate(t).has_value()) {
      EXPECT_EQ(t, fires[next]) << "fire drifted between twins";
    }
  }
}

TEST(Quiescence, ZeroRateSourceNeverFires) {
  traffic::DestinationPattern pattern(traffic::PatternKind::kUniform, 2, 2);
  traffic::SyntheticSource src(0, 0.0, 4, pattern, 9);
  EXPECT_EQ(src.next_event_cycle(0), sim::kCycleNever);
  EXPECT_EQ(src.next_event_cycle(123'456), sim::kCycleNever);
  EXPECT_FALSE(src.maybe_generate(0).has_value());
}

}  // namespace
}  // namespace nbtinoc::noc
