// The sensor-wise decide() memo is a cache of a pure function: every command
// it returns must equal a fresh sensor_wise_decide over the same view, the
// port's current most-degraded VC and the traffic bit. A checking decorator
// compares the two on every call while the network runs — with sensor
// epochs short and noisy enough that the most-degraded VC keeps flipping,
// on several vnets, on a torus (two dateline classes per vnet), and across
// a mid-run snapshot restore into the very controller whose memo is warm.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/core/experiment.hpp"
#include "nbtinoc/core/policy.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/traffic/synthetic.hpp"

namespace nbtinoc::core {
namespace {

bool same_command(const noc::GateCommand& a, const noc::GateCommand& b) {
  return a.gating_active == b.gating_active && a.enable == b.enable && a.keep_vc == b.keep_vc &&
         a.first_vc == b.first_vc && a.range_vcs == b.range_vcs && a.slot_form == b.slot_form;
}

/// Forwards to the controller and checks each decision against the
/// unmemoized policy function.
class CheckingController final : public noc::IGateController {
 public:
  explicit CheckingController(PolicyGateController& inner) : inner_(inner) {}

  noc::GateCommand decide(const noc::PortKey& key, const noc::OutVcStateView& view,
                          bool new_traffic, sim::Cycle now) override {
    const noc::GateCommand got = inner_.decide(key, view, new_traffic, now);
    const int md = inner_.local_most_degraded(key, view);
    const bool traffic = inner_.kind() == PolicyKind::kSensorWiseNoTraffic || new_traffic;
    const noc::GateCommand want = sensor_wise_decide(view, md, traffic);
    ++calls;
    if (!same_command(got, want)) {
      ++mismatches;
      ADD_FAILURE() << "cycle " << now << " r" << key.router << ":" << noc::dir_letter(key.port)
                    << " vcs [" << view.first_vc() << ", +" << view.num_vcs()
                    << "): memo keep_vc " << got.keep_vc << " enable " << got.enable
                    << ", fresh keep_vc " << want.keep_vc << " enable " << want.enable;
    }
    auto [it, fresh] =
        last_md_.try_emplace(std::make_tuple(key.router, key.port, view.first_vc()), md);
    if (!fresh && it->second != md) {
      ++md_flips;
      it->second = md;
    }
    return got;
  }
  void post_cycle(sim::Cycle now) override { inner_.post_cycle(now); }
  sim::Cycle next_event_cycle(sim::Cycle now) override { return inner_.next_event_cycle(now); }
  const char* name() const override { return inner_.name(); }

  std::uint64_t calls = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t md_flips = 0;

 private:
  PolicyGateController& inner_;
  std::map<std::tuple<noc::NodeId, noc::Dir, int>, int> last_md_;
};

/// One network + controller + checker on a loaded synthetic workload, with
/// 16-cycle noisy sensor epochs so the most-degraded VC moves.
struct Rig {
  explicit Rig(const sim::Scenario& s, PolicyKind kind)
      : net(noc_config_of(s)), model(calibrated_model_of(s)),
        controller(net, policy_of(kind), model, operating_point_of(s), pv_config_of(s),
                   s.pv_seed()),
        checker(controller) {
    net.set_gate_controller(&checker);
    traffic::install_synthetic_traffic(net, traffic::PatternKind::kUniform, s.injection_rate,
                                       s.traffic_seed());
  }

  static PolicyConfig policy_of(PolicyKind kind) {
    PolicyConfig pc;
    pc.kind = kind;
    pc.sensor.epoch_cycles = 16;
    pc.sensor.noise_sigma_v = 0.02;
    return pc;
  }

  std::string snapshot() const {
    sim::SnapshotWriter w;
    net.save_state(w);
    controller.save(w);
    return w.take();
  }

  noc::Network net;
  nbti::NbtiModel model;
  PolicyGateController controller;
  CheckingController checker;
};

sim::Scenario loaded(int width, double rate) {
  sim::Scenario s = sim::Scenario::synthetic(width, 4, rate);
  s.packet_length = 4;
  return s;
}

void expect_exact(const sim::Scenario& s, PolicyKind kind, sim::Cycle cycles) {
  Rig rig(s, kind);
  rig.net.run(cycles);
  EXPECT_EQ(rig.checker.mismatches, 0u);
  EXPECT_GT(rig.checker.calls, 0u);
  EXPECT_GT(rig.checker.md_flips, 0u) << "the sensors never moved the MD: nothing was tested";
  EXPECT_GT(rig.net.stats().counter("noc.flits_ejected"), 0u);
}

TEST(DecideMemo, ExactOnMeshWhileTheMostDegradedVcFlips) {
  expect_exact(loaded(4, 0.2), PolicyKind::kSensorWise, 3'000);
  expect_exact(loaded(4, 0.2), PolicyKind::kSensorWiseNoTraffic, 3'000);
}

TEST(DecideMemo, ExactOnTwoVnets) {
  sim::Scenario s = loaded(4, 0.2);
  s.num_vnets = 2;
  expect_exact(s, PolicyKind::kSensorWise, 3'000);
}

TEST(DecideMemo, ExactOnTorusDatelineClasses) {
  sim::Scenario s = loaded(4, 0.15);
  s.topology = "torus";
  expect_exact(s, PolicyKind::kSensorWise, 3'000);
}

TEST(DecideMemo, ExactAcrossMidRunRestoreUnderBothEngines) {
  for (const auto mode : {noc::SchedulerMode::kStepped, noc::SchedulerMode::kActiveSet}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    Rig rig(loaded(4, 0.2), PolicyKind::kSensorWise);
    rig.net.set_scheduler_mode(mode);
    rig.net.run(1'500);
    const std::string at_1500 = rig.snapshot();
    rig.net.run(1'500);
    const std::string at_3000 = rig.snapshot();

    // Rewind the same network and controller (memo warm with cycle-3000
    // decisions) to cycle 1500 and replay: every decision must still be
    // exact, and the replay must land on the same bytes.
    rig.net.set_scheduler_mode(noc::SchedulerMode::kStepped);
    sim::SnapshotReader r(at_1500);
    rig.net.load_state(r);
    rig.controller.load(r);
    r.expect_end();
    rig.net.set_scheduler_mode(mode);
    rig.net.run(1'500);
    EXPECT_EQ(rig.snapshot(), at_3000);
    EXPECT_EQ(rig.checker.mismatches, 0u);
    EXPECT_GT(rig.checker.md_flips, 0u);
  }
}

}  // namespace
}  // namespace nbtinoc::core
