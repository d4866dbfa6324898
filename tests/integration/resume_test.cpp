// Checkpoint/restore equivalence: a run paused at cycle N and resumed from
// the snapshot must be bit-identical to the uninterrupted run — under every
// scheduler mode, across scheduler modes, at any pause point (mid-warmup,
// the warmup boundary, mid-measurement), and through fault storms and
// structural kills. The snapshot deliberately omits all scheduler
// bookkeeping; these tests also pin that re-entering the active-set mode
// reconstructs an equivalent wake state.

#include <gtest/gtest.h>

#include <string>

#include "nbtinoc/core/experiment.hpp"
#include "nbtinoc/sim/snapshot.hpp"
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
