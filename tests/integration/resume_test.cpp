// Checkpoint/restore equivalence: a run paused at cycle N and resumed from
// the snapshot must be bit-identical to the uninterrupted run — under every
// scheduler mode, across scheduler modes, at any pause point (mid-warmup,
// the warmup boundary, mid-measurement), and through fault storms and
// structural kills. The snapshot deliberately omits all scheduler
// bookkeeping; these tests also pin that re-entering the active-set mode
// reconstructs an equivalent wake state.

#include <gtest/gtest.h>

#include <string>

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/core/experiment.hpp"
#include "nbtinoc/core/fleet.hpp"
#include "nbtinoc/noc/state_probe.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/traffic/synthetic.hpp"
#include "nbtinoc/util/rng.hpp"

namespace nbtinoc::core {
namespace {

void expect_run_equal(const RunResult& a, const RunResult& b, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(to_json(a), to_json(b));
  ASSERT_EQ(a.ports.size(), b.ports.size());
  for (const auto& [key, port] : a.ports) {
    const PortResult& other = b.ports.at(key);
    EXPECT_EQ(port.gate_transitions, other.gate_transitions);
    EXPECT_EQ(port.most_degraded, other.most_degraded);
    EXPECT_EQ(port.duty_percent, other.duty_percent);
  }
  EXPECT_EQ(a.total_gate_transitions, b.total_gate_transitions);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
}

sim::Scenario small_scenario() {
  sim::Scenario s = sim::Scenario::synthetic(3, 2, 0.05);
  s.warmup_cycles = 500;
  s.measure_cycles = 4'000;
  return s;
}

/// Runs {uninterrupted, save-at-N, resume-from-snapshot} with the given
/// scheduler modes and asserts all three results are bit-identical.
void expect_resume_equal(const sim::Scenario& s, PolicyKind policy, const Workload& workload,
                         RunnerOptions options, sim::Cycle at, noc::SchedulerMode save_mode,
                         noc::SchedulerMode resume_mode) {
  SCOPED_TRACE("snapshot at cycle " + std::to_string(at));
  options.scheduler = save_mode;
  const RunResult plain = run_experiment(s, policy, workload, options);

  std::string bytes;
  options.snapshot_at = at;
  options.snapshot_out = &bytes;
  const RunResult paused = run_experiment(s, policy, workload, options);
  expect_run_equal(plain, paused, "uninterrupted vs paused-and-continued");
  ASSERT_FALSE(bytes.empty());

  options.snapshot_at.reset();
  options.snapshot_out = nullptr;
  options.resume_from = bytes;
  options.scheduler = resume_mode;
  const RunResult resumed = run_experiment(s, policy, workload, options);
  expect_run_equal(plain, resumed, "uninterrupted vs resumed");
}

TEST(ResumeTest, BitIdenticalUnderEverySchedulerMode) {
  const sim::Scenario s = small_scenario();
  for (const auto mode : {noc::SchedulerMode::kStepped, noc::SchedulerMode::kActiveSet}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    expect_resume_equal(s, PolicyKind::kSensorWise, Workload::synthetic(), RunnerOptions{},
                        /*at=*/1'700, mode, mode);
  }
}

TEST(ResumeTest, CrossModeRestoreIsExact) {
  // The snapshot format is scheduler-agnostic: bytes saved under one engine
  // restore under any other (the pre-roll frontier and RNG stream jointly
  // encode the same logical source state in every mode).
  const sim::Scenario s = small_scenario();
  expect_resume_equal(s, PolicyKind::kSensorWise, Workload::synthetic(), RunnerOptions{},
                      /*at=*/2'000, noc::SchedulerMode::kStepped,
                      noc::SchedulerMode::kActiveSet);
  expect_resume_equal(s, PolicyKind::kSensorRank, Workload::synthetic(), RunnerOptions{},
                      /*at=*/2'000, noc::SchedulerMode::kActiveSet,
                      noc::SchedulerMode::kStepped);
}

TEST(ResumeTest, PausePointsCoverWarmupBoundaryAndEnds) {
  const sim::Scenario s = small_scenario();
  const sim::Cycle total = s.warmup_cycles + s.measure_cycles;
  // Cycle 0 (nothing ran), mid-warmup, the exact stats-reset boundary, and
  // the final cycle (resume runs zero cycles) are the schedule edge cases.
  for (const sim::Cycle at : {sim::Cycle{0}, sim::Cycle{250}, s.warmup_cycles, total}) {
    expect_resume_equal(s, PolicyKind::kSensorWise, Workload::synthetic(), RunnerOptions{}, at,
                        noc::SchedulerMode::kActiveSet, noc::SchedulerMode::kActiveSet);
  }
}

TEST(ResumeTest, BenchmarkMixWorkloadRoundTrips) {
  sim::Scenario s = small_scenario();
  const Workload workload =
      Workload::benchmark_mix(traffic::random_mix(s.mesh_width * s.mesh_height, 42), 42);
  expect_resume_equal(s, PolicyKind::kSensorWise, workload, RunnerOptions{}, /*at=*/1'234,
                      noc::SchedulerMode::kActiveSet, noc::SchedulerMode::kActiveSet);
}

TEST(ResumeTest, MidFaultStormRoundTrips) {
  sim::Scenario s = small_scenario();
  RunnerOptions options;
  options.faults = sim::FaultPlan::uniform(0.02);
  // Mid-storm pause: the injector's RNG and every per-site fault machine
  // must land mid-stream.
  expect_resume_equal(s, PolicyKind::kSensorWise, Workload::synthetic(), options, /*at=*/2'300,
                      noc::SchedulerMode::kStepped, noc::SchedulerMode::kStepped);
  expect_resume_equal(s, PolicyKind::kSensorWise, Workload::synthetic(), options, /*at=*/2'300,
                      noc::SchedulerMode::kActiveSet, noc::SchedulerMode::kActiveSet);
}

TEST(ResumeTest, PostStructuralKillRoundTrips) {
  sim::Scenario s = small_scenario();
  RunnerOptions options;
  sim::StructuralFault link_kill;
  link_kill.router = 0;
  link_kill.port = static_cast<int>(noc::Dir::East);
  link_kill.cycle = 900;
  options.faults.structural.push_back(link_kill);
  sim::StructuralFault router_kill;
  router_kill.router = 4;
  router_kill.cycle = 1'600;  // port defaults to kWholeRouter
  options.faults.structural.push_back(router_kill);

  // Pause between the two kills and after both: the loader must re-apply
  // exactly the kills that already landed to the fresh topology.
  for (const sim::Cycle at : {sim::Cycle{1'200}, sim::Cycle{2'500}}) {
    expect_resume_equal(s, PolicyKind::kSensorWise, Workload::synthetic(), options, at,
                        noc::SchedulerMode::kStepped, noc::SchedulerMode::kActiveSet);
  }
}

/// A loaded sensor-wise network with its controller attached, built the
/// same way on both sides of a save/restore.
struct LoadedNetwork {
  explicit LoadedNetwork(const noc::NocConfig& cfg, const nbti::NbtiModel& model)
      : net(cfg), ctrl(net, PolicyConfig{}, model, nbti::OperatingPoint{}, nbti::PvConfig{}, 11) {
    traffic::install_uniform_traffic(net, 0.35, 5);
    ctrl.attach();
  }
  std::string state() const {
    sim::SnapshotWriter w;
    net.save_state(w);
    ctrl.save(w);
    return w.take();
  }
  int pending_heads() const {
    int n = 0;
    for (noc::NodeId id = 0; id < net.num_routers(); ++id)
      for (int p = 0; p < net.config().ports_per_router(); ++p) {
        const noc::Router& r = net.router(id);
        if (!r.has_input(static_cast<noc::Dir>(p))) continue;
        r.input(static_cast<noc::Dir>(p))
            .for_each_va_pending([&](int, const noc::InputUnit::PendingHead&) { ++n; });
      }
    return n;
  }
  noc::Network net;
  PolicyGateController ctrl;
};

TEST(ResumeTest, MidBurstPendingHeadsRoundTripUnderEachEngine) {
  // The VA-pending sets are derived state, absent from the snapshot: the
  // load must rebuild them so the resumed run continues bit for bit.
  noc::NocConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 2;
  cfg.num_vnets = 2;
  const nbti::NbtiModel model = nbti::NbtiModel::calibrated(nbti::NbtiParams{}, {});
  for (const auto mode : {noc::SchedulerMode::kStepped, noc::SchedulerMode::kActiveSet}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    LoadedNetwork plain(cfg, model);
    plain.net.set_scheduler_mode(mode);
    plain.net.run(1'500);
    ASSERT_GT(plain.pending_heads(), 0) << "pause point must hold VA-pending heads";
    const std::string saved = plain.state();

    LoadedNetwork resumed(cfg, model);
    sim::SnapshotReader reader(saved);
    resumed.net.load_state(reader);
    resumed.ctrl.load(reader);
    reader.expect_end();
    resumed.net.set_scheduler_mode(mode);
    EXPECT_EQ(resumed.pending_heads(), plain.pending_heads());
    noc::InvariantChecker checker(resumed.net);
    EXPECT_EQ(checker.check(), 0u);

    plain.net.run(2'000);
    resumed.net.run(2'000);
    EXPECT_EQ(resumed.state(), plain.state());
  }
}

// Randomized pause points over randomized scenarios — the fuzz half of the
// bit-identity claim. Each seed derives a scenario/policy/mode/pause tuple;
// every third seed adds a control-fault storm, every fourth a structural
// kill before the pause.
class ResumeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResumeFuzzTest, RandomPausePointsResumeExactly) {
  util::Xoshiro256 rng(GetParam() ^ 0x5a7eULL);
  sim::Scenario s = sim::Scenario::synthetic(2 + static_cast<int>(rng.next_below(2)),
                                             2 + static_cast<int>(rng.next_below(2)),
                                             0.08 * rng.next_double());
  s.num_vnets = 1 + static_cast<int>(rng.next_below(2));
  s.wakeup_latency = rng.next_below(4);
  s.warmup_cycles = 400;
  s.measure_cycles = 3'000 + rng.next_below(3'000);

  RunnerOptions options;
  if (GetParam() % 3 == 0) options.faults = sim::FaultPlan::uniform(0.01 + 0.02 * rng.next_double());
  if (GetParam() % 4 == 0) {
    sim::StructuralFault f;
    f.router = 0;
    f.port = static_cast<int>(noc::Dir::East);
    f.cycle = 600 + rng.next_below(500);
    options.faults.structural.push_back(f);
  }

  constexpr PolicyKind kPolicies[] = {PolicyKind::kBaseline, PolicyKind::kRrNoSensor,
                                      PolicyKind::kSensorWiseNoTraffic, PolicyKind::kSensorWise,
                                      PolicyKind::kSensorRank};
  const PolicyKind policy = kPolicies[rng.next_below(5)];
  constexpr noc::SchedulerMode kModes[] = {noc::SchedulerMode::kStepped,
                                           noc::SchedulerMode::kActiveSet};
  const auto save_mode = kModes[rng.next_below(2)];
  const auto resume_mode = kModes[rng.next_below(2)];
  const sim::Cycle at = rng.next_below(s.warmup_cycles + s.measure_cycles);
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + ", " + s.name + ", policy " +
               to_string(policy));

  expect_resume_equal(s, policy, Workload::synthetic(), options, at, save_mode, resume_mode);
}

INSTANTIATE_TEST_SUITE_P(RandomPauses, ResumeFuzzTest, ::testing::Range<std::uint64_t>(1, 13));

// The same fuzz over the shared (DAMQ) organization: a pause must
// round-trip the per-port pool state — slot lists, per-VC chains, waking
// FIFO, shared-region charges, per-slot gate counters (snapshot format v2)
// — through save/resume in any scheduler-mode combination. Only slot
// policies and baseline are legal here.
class SharedResumeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SharedResumeFuzzTest, SharedPausePointsResumeExactly) {
  util::Xoshiro256 rng(GetParam() ^ 0x5da7ULL);
  sim::Scenario s = sim::Scenario::synthetic(2 + static_cast<int>(rng.next_below(2)),
                                             2 + static_cast<int>(rng.next_below(2)),
                                             0.08 * rng.next_double());
  s.buffer_org = "shared";
  s.shared_reserve = 1 + static_cast<int>(rng.next_below(2));
  s.wakeup_latency = rng.next_below(4);
  s.warmup_cycles = 400;
  s.measure_cycles = 3'000 + rng.next_below(3'000);

  RunnerOptions options;
  if (GetParam() % 3 == 0) options.faults = sim::FaultPlan::uniform(0.01 + 0.02 * rng.next_double());
  if (GetParam() % 4 == 0) {
    sim::StructuralFault f;
    f.router = 0;
    f.port = static_cast<int>(noc::Dir::East);
    f.cycle = 600 + rng.next_below(500);
    options.faults.structural.push_back(f);
  }

  constexpr PolicyKind kPolicies[] = {PolicyKind::kBaseline, PolicyKind::kSensorWiseSlotMd,
                                      PolicyKind::kRrSlot};
  const PolicyKind policy = kPolicies[rng.next_below(3)];
  constexpr noc::SchedulerMode kModes[] = {noc::SchedulerMode::kStepped,
                                           noc::SchedulerMode::kActiveSet};
  const auto save_mode = kModes[rng.next_below(2)];
  const auto resume_mode = kModes[rng.next_below(2)];
  const sim::Cycle at = rng.next_below(s.warmup_cycles + s.measure_cycles);
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + ", " + s.name + ", reserve " +
               std::to_string(s.shared_reserve) + ", policy " + to_string(policy));

  expect_resume_equal(s, policy, Workload::synthetic(), options, at, save_mode, resume_mode);
}

INSTANTIATE_TEST_SUITE_P(RandomSharedPauses, SharedResumeFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- failure modes -----------------------------------------------------------

std::string snapshot_of(const sim::Scenario& s, RunnerOptions options, sim::Cycle at) {
  std::string bytes;
  options.snapshot_at = at;
  options.snapshot_out = &bytes;
  run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), options);
  return bytes;
}

TEST(ResumeValidation, MismatchedScenarioNamesBothDigests) {
  const sim::Scenario saved = small_scenario();
  const std::string bytes = snapshot_of(saved, RunnerOptions{}, 1'000);

  sim::Scenario other = saved;
  other.injection_rate = 0.07;
  RunnerOptions options;
  options.resume_from = bytes;
  try {
    run_experiment(other, PolicyKind::kSensorWise, Workload::synthetic(), options);
    FAIL() << "expected SnapshotError";
  } catch (const sim::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("file digest"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("expected digest"), std::string::npos) << e.what();
  }
}

TEST(ResumeValidation, MismatchedPolicyIsRejected) {
  const sim::Scenario s = small_scenario();
  const std::string bytes = snapshot_of(s, RunnerOptions{}, 1'000);
  RunnerOptions options;
  options.resume_from = bytes;
  EXPECT_THROW(run_experiment(s, PolicyKind::kBaseline, Workload::synthetic(), options),
               sim::SnapshotError);
}

TEST(ResumeValidation, WrongVersionAndGarbageAreRejected) {
  const sim::Scenario s = small_scenario();
  std::string bytes = snapshot_of(s, RunnerOptions{}, 1'000);

  std::string wrong_version = bytes;
  wrong_version[sim::kSnapshotMagic.size()] = 0x7f;  // version u32 LSB
  RunnerOptions options;
  options.resume_from = wrong_version;
  try {
    run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), options);
    FAIL() << "expected SnapshotError";
  } catch (const sim::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }

  options.resume_from = std::string("definitely not a snapshot");
  EXPECT_THROW(run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), options),
               sim::SnapshotError);

  options.resume_from = bytes.substr(0, bytes.size() / 2);  // truncated payload
  EXPECT_THROW(run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), options),
               sim::SnapshotError);
}

// Both config digests — the snapshot frame's (resume_from) and the
// fleet's (merge_fleet_shards) — must name every Scenario field that shapes
// a run. Each case changes one field alone and both consumers must refuse
// the mismatch; the sub-1e-6 clock step would collide under
// std::to_string's six decimals. The defaults name none of these fields, so
// default digests keep their bytes.
TEST(ResumeValidation, DigestsNameClockTechAndPhitShape) {
  struct Change {
    const char* field;
    void (*apply)(sim::Scenario&);
  };
  const Change changes[] = {
      {"clock_period_s", [](sim::Scenario& s) { s.clock_period_s = 2e-9; }},
      {"clock_period_s, sub-1e-6 step", [](sim::Scenario& s) { s.clock_period_s = 1.0000001e-9; }},
      {"tech node", [](sim::Scenario& s) { s.tech = sim::Technology::node_32nm(); }},
      {"tech temperature", [](sim::Scenario& s) { s.tech.temperature_k = 360.0; }},
      {"flit_width_bits", [](sim::Scenario& s) { s.flit_width_bits = 32; }},
      {"link_width_bits", [](sim::Scenario& s) { s.link_width_bits = 64; }},
  };
  const sim::Scenario base = small_scenario();
  const std::string bytes = snapshot_of(base, RunnerOptions{}, 1'000);

  FleetSpec fleet;
  fleet.scenario = base;
  fleet.scenario.warmup_cycles = 200;
  fleet.scenario.measure_cycles = 800;
  fleet.policies = {PolicyKind::kSensorWise};
  fleet.chips = 2;
  const FleetShardResult base_shard = run_fleet_shard(fleet, 0, 2, 1);

  for (const char* tag : {" clock_s=", " tech=", " flit_bits=", " link_bits="}) {
    EXPECT_EQ(bytes.find(tag), std::string::npos) << tag;
    EXPECT_EQ(fleet_digest(fleet).find(tag), std::string::npos) << tag;
  }
  for (const Change& c : changes) {
    SCOPED_TRACE(c.field);
    sim::Scenario changed = base;
    c.apply(changed);
    RunnerOptions options;
    options.resume_from = bytes;
    try {
      run_experiment(changed, PolicyKind::kSensorWise, Workload::synthetic(), options);
      ADD_FAILURE() << "resumed a snapshot under a different " << c.field;
    } catch (const sim::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("file digest"), std::string::npos) << e.what();
    }

    FleetSpec other = fleet;
    c.apply(other.scenario);
    try {
      merge_fleet_shards(fleet, {base_shard, run_fleet_shard(other, 1, 2, 1)});
      ADD_FAILURE() << "merged a shard with a different " << c.field;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("different fleet configuration"), std::string::npos)
          << e.what();
    }
  }
}

// The snapshot digest names the whole fault plan (every rate exactly, the
// targets and the sorted kills) and spells an injection rate exactly when
// six decimals cannot, so a resume under another plan or a nearby rate is
// refused instead of silently diverging.
TEST(ResumeValidation, DigestNamesFaultPlanAndExactRate) {
  const sim::Scenario s = small_scenario();
  RunnerOptions saved;
  saved.faults = sim::FaultPlan::uniform(0.02);
  sim::StructuralFault kill;
  kill.router = 0;
  kill.port = static_cast<int>(noc::Dir::East);
  kill.cycle = 3'000;
  saved.faults.structural.push_back(kill);
  const std::string bytes = snapshot_of(s, saved, 1'000);

  const auto resume = [&](const sim::Scenario& scenario, RunnerOptions options) {
    options.resume_from = bytes;
    return run_experiment(scenario, PolicyKind::kSensorWise, Workload::synthetic(), options);
  };
  EXPECT_NO_THROW(resume(s, saved));

  RunnerOptions stronger = saved;
  stronger.faults = sim::FaultPlan::uniform(0.2);
  stronger.faults.structural = saved.faults.structural;
  EXPECT_THROW(resume(s, stronger), sim::SnapshotError) << "uniform(0.2)";
  RunnerOptions retargeted = saved;
  retargeted.faults.targets = {{1, static_cast<int>(noc::Dir::West)}};
  EXPECT_THROW(resume(s, retargeted), sim::SnapshotError) << "targets";
  RunnerOptions later_kill = saved;
  later_kill.faults.structural[0].cycle = 3'500;
  EXPECT_THROW(resume(s, later_kill), sim::SnapshotError) << "kill cycle";
  sim::Scenario nearby = s;
  nearby.injection_rate = 0.0500001;
  EXPECT_THROW(resume(nearby, saved), sim::SnapshotError) << "rate 0.0500001";
}

TEST(ResumeValidation, BadRunnerOptionCombinationsAreRejected) {
  const sim::Scenario s = small_scenario();
  RunnerOptions options;
  options.snapshot_at = 100;  // no snapshot_out
  EXPECT_THROW(run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), options),
               std::invalid_argument);

  std::string bytes;
  options.snapshot_out = &bytes;
  options.snapshot_at = s.warmup_cycles + s.measure_cycles + 1;  // past the horizon
  EXPECT_THROW(run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), options),
               std::invalid_argument);

  options.snapshot_at = 100;
  options.check_invariants = true;
  EXPECT_THROW(run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), options),
               std::invalid_argument);
  options.check_invariants = false;

  options.resume_from = snapshot_of(s, RunnerOptions{}, 200);
  EXPECT_THROW(  // resume + snapshot in one run
      run_experiment(s, PolicyKind::kSensorWise, Workload::synthetic(), options),
      std::invalid_argument);
}

}  // namespace
}  // namespace nbtinoc::core
