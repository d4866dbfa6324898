// Randomized property tests: the simulator must uphold its invariants on
// arbitrary (valid) configurations, policies and loads — not just the
// paper's setups. Each seed deterministically derives a configuration, runs
// traffic, then drains and checks conservation and state-machine sanity.

#include <gtest/gtest.h>

#include <algorithm>

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/core/experiment.hpp"
#include "nbtinoc/core/sweep.hpp"
#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/traffic/benchmarks.hpp"
#include "nbtinoc/traffic/request_reply.hpp"
#include "nbtinoc/traffic/synthetic.hpp"
#include "nbtinoc/util/rng.hpp"

namespace nbtinoc::noc {
namespace {

struct FuzzCase {
  NocConfig config;
  double rate = 0.1;
  core::PolicyKind policy = core::PolicyKind::kSensorWise;
  traffic::PatternKind pattern = traffic::PatternKind::kUniform;
  std::uint64_t seed = 0;
};

FuzzCase derive_case(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  FuzzCase fc;
  fc.seed = seed;
  // Mesh between 1x2 and 4x4 (at least 2 nodes).
  do {
    fc.config.width = 1 + static_cast<int>(rng.next_below(4));
    fc.config.height = 1 + static_cast<int>(rng.next_below(4));
  } while (fc.config.nodes() < 2);
  fc.config.num_vcs = 1 + static_cast<int>(rng.next_below(4));
  fc.config.num_vnets = 1 + static_cast<int>(rng.next_below(2));
  fc.config.buffer_depth = 1 + static_cast<int>(rng.next_below(8));
  fc.config.packet_length = 1 + static_cast<int>(rng.next_below(20));
  fc.config.wakeup_latency = rng.next_below(5);
  fc.config.routing = rng.next_bernoulli(0.5) ? RoutingAlgo::kXY : RoutingAlgo::kYX;
  fc.rate = 0.02 + 0.4 * rng.next_double();
  constexpr core::PolicyKind kPolicies[] = {
      core::PolicyKind::kBaseline, core::PolicyKind::kRrNoSensor,
      core::PolicyKind::kSensorWiseNoTraffic, core::PolicyKind::kSensorWise,
      core::PolicyKind::kSensorRank};
  fc.policy = kPolicies[rng.next_below(5)];
  constexpr traffic::PatternKind kPatterns[] = {
      traffic::PatternKind::kUniform, traffic::PatternKind::kTranspose,
      traffic::PatternKind::kBitComplement, traffic::PatternKind::kHotspot,
      traffic::PatternKind::kNeighbor, traffic::PatternKind::kTornado};
  fc.pattern = kPatterns[rng.next_below(6)];
  return fc;
}

class NetworkFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkFuzzTest, InvariantsHoldOnRandomConfigurations) {
  const FuzzCase fc = derive_case(GetParam());
  SCOPED_TRACE(fc.config.describe() + ", rate " + std::to_string(fc.rate) + ", policy " +
               core::to_string(fc.policy) + ", pattern " + traffic::to_string(fc.pattern));

  Network net(fc.config);
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = fc.policy;
  // Exercise hysteresis on odd seeds.
  if (fc.seed % 2 == 1) pc.decision_period = 1 + fc.seed % 64;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, fc.seed);
  ctrl.attach();
  traffic::install_synthetic_traffic(net, fc.pattern, fc.rate, fc.seed ^ 0xfeedULL);

  // Plain run (no warmup counter reset): injected/ejected totals must match
  // exactly after the drain.
  net.run(7'000);

  // Drain: no new traffic, everything in flight must reach its destination.
  for (NodeId id = 0; id < net.nodes(); ++id)
    net.set_traffic_source(id, std::make_unique<SilentSource>());
  sim::Cycle guard = 0;
  bool queues_empty = false;
  while (guard++ < 500'000) {
    net.step();
    if (!net.drained()) continue;
    queues_empty = true;
    for (NodeId id = 0; id < net.nodes(); ++id) queues_empty &= net.ni(id).queue_depth() == 0;
    if (queues_empty) break;
  }
  ASSERT_TRUE(net.drained()) << "network failed to drain (possible deadlock)";
  ASSERT_TRUE(queues_empty) << "NI source queues failed to drain";

  // The drain loop used raw step(): flush the event-driven stress
  // accounting before reading trackers directly below.
  net.sync_stress_accounting();

  // Conservation over the measured window + drain.
  EXPECT_EQ(net.stats().counter("noc.flits_injected"), net.stats().counter("noc.flits_ejected"));

  // VC state sanity: after the drain every buffer is Idle or Recovery and
  // empty, with no dangling output allocation.
  for (NodeId id = 0; id < net.nodes(); ++id) {
    for (int p = 0; p < kNumDirs; ++p) {
      const Dir port = static_cast<Dir>(p);
      if (!net.router(id).has_input(port)) continue;
      const auto& iu = net.router(id).input(port);
      for (int v = 0; v < iu.num_vcs(); ++v) {
        EXPECT_FALSE(iu.vc(v).is_active());
        EXPECT_TRUE(iu.vc(v).empty());
        EXPECT_FALSE(iu.has_output(v));
      }
      // Duty cycles are proper percentages.
      for (double d : iu.trackers().duty_cycles_percent()) {
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 100.0);
      }
    }
  }

  // Baseline never gates: 100% duty everywhere.
  if (fc.policy == core::PolicyKind::kBaseline) {
    for (int v = 0; v < net.config().total_vcs(); ++v)
      EXPECT_DOUBLE_EQ(net.duty_cycles_percent(0, Dir::Local)[static_cast<std::size_t>(v)],
                       100.0);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, NetworkFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 25));

// Sweep-engine fuzz: random scenario grids routed through SweepRunner with
// a random worker count must come back complete, in grid order, with no
// duplicated or dropped point, and with every duty cycle a valid
// percentage — regardless of how the pool interleaved the runs.
class SweepFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepFuzzTest, RandomGridsSurviveParallelExecutionIntact) {
  util::Xoshiro256 rng(GetParam() ^ 0x5eedULL);
  constexpr core::PolicyKind kPolicies[] = {
      core::PolicyKind::kBaseline, core::PolicyKind::kRrNoSensor,
      core::PolicyKind::kSensorWiseNoTraffic, core::PolicyKind::kSensorWise,
      core::PolicyKind::kSensorRank};
  constexpr traffic::PatternKind kPatterns[] = {
      traffic::PatternKind::kUniform, traffic::PatternKind::kTranspose,
      traffic::PatternKind::kBitComplement, traffic::PatternKind::kHotspot,
      traffic::PatternKind::kNeighbor, traffic::PatternKind::kTornado};

  core::SweepOptions options;
  options.workers = 1 + static_cast<unsigned>(rng.next_below(8));
  core::SweepRunner sweep(options);

  const std::size_t num_points = 3 + rng.next_below(6);
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < num_points; ++i) {
    sim::Scenario s = sim::Scenario::synthetic(2 + static_cast<int>(rng.next_below(2)),
                                               1 + static_cast<int>(rng.next_below(4)),
                                               0.02 + 0.3 * rng.next_double());
    s.warmup_cycles = 500;
    s.measure_cycles = 2'000 + rng.next_below(3'000);
    labels.push_back("fuzz-point-" + std::to_string(i));
    sweep.add(s, kPolicies[rng.next_below(5)],
              core::Workload::synthetic(kPatterns[rng.next_below(6)]), labels.back());
  }
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + ", " + std::to_string(num_points) +
               " points, " + std::to_string(options.workers) + " workers");

  const core::SweepResult results = sweep.run();

  // No point lost or duplicated, and none reordered: the unique label added
  // at grid index i must come back at result index i.
  ASSERT_EQ(results.size(), num_points);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].point.label, labels[i]) << "result grid reordered at index " << i;
    EXPECT_EQ(results[i].point.policy, sweep.point(i).policy);
    EXPECT_EQ(results[i].result.policy, sweep.point(i).policy);
    EXPECT_EQ(results[i].result.scenario.name, sweep.point(i).scenario.name);
    EXPECT_GE(results[i].wall_seconds, 0.0);

    // Every duty cycle is a proper percentage; baseline pins 100% everywhere.
    for (const auto& [key, port] : results[i].result.ports) {
      ASSERT_FALSE(port.duty_percent.empty());
      for (double d : port.duty_percent) {
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 100.0);
        if (results[i].point.policy == core::PolicyKind::kBaseline) {
          EXPECT_DOUBLE_EQ(d, 100.0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGrids, SweepFuzzTest, ::testing::Range<std::uint64_t>(1, 9));

/// Full-result equality between two experiment runs: the serialized JSON
/// report (every externally visible number) plus the per-port gating
/// counters and fault counters it omits.
void expect_run_equal(const core::RunResult& a, const core::RunResult& b,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(core::to_json(a), core::to_json(b));
  ASSERT_EQ(a.ports.size(), b.ports.size());
  for (const auto& [key, port] : a.ports) {
    const core::PortResult& other = b.ports.at(key);
    EXPECT_EQ(port.gate_transitions, other.gate_transitions);
    EXPECT_EQ(port.most_degraded, other.most_degraded);
    EXPECT_EQ(port.duty_percent, other.duty_percent);
  }
  EXPECT_EQ(a.total_gate_transitions, b.total_gate_transitions);
  EXPECT_EQ(a.fault_counters, b.fault_counters);
}

/// Runs one scenario under both scheduler modes and asserts the stepped and
/// active-set results are bit-identical.
void run_differential(const sim::Scenario& s, core::PolicyKind policy,
                      const core::Workload& workload, core::RunnerOptions options) {
  options.scheduler = SchedulerMode::kStepped;
  const core::RunResult stepped = core::run_experiment(s, policy, workload, options);
  options.scheduler = SchedulerMode::kActiveSet;
  const core::RunResult active = core::run_experiment(s, policy, workload, options);
  expect_run_equal(stepped, active, "stepped vs active-set");
}

// Scheduler fuzz: the skipping engine (RunnerOptions::fast_forward, the
// active-set scheduler) claims bit-identical results against literal
// stepping, for *any* valid configuration — not just the golden scenario.
// Each seed derives a random scenario/policy/workload pair and runs it both
// ways.
class FastForwardFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastForwardFuzzTest, SkippedExperimentsMatchSteppedExactly) {
  util::Xoshiro256 rng(GetParam() ^ 0xfa57ULL);
  sim::Scenario s = sim::Scenario::synthetic(2 + static_cast<int>(rng.next_below(2)),
                                             1 + static_cast<int>(rng.next_below(3)),
                                             0.06 * rng.next_double());
  // Low rates most of the time (that is where skipping engages); every
  // fourth seed runs fully idle, where the parked-fabric jump must carry the
  // whole run.
  if (GetParam() % 4 == 0) s.injection_rate = 0.0;
  s.num_vnets = 1 + static_cast<int>(rng.next_below(2));
  s.wakeup_latency = rng.next_below(4);
  s.warmup_cycles = 1'000;
  s.measure_cycles = 8'000 + rng.next_below(8'000);
  constexpr core::PolicyKind kPolicies[] = {
      core::PolicyKind::kBaseline, core::PolicyKind::kRrNoSensor,
      core::PolicyKind::kSensorWiseNoTraffic, core::PolicyKind::kSensorWise,
      core::PolicyKind::kSensorRank};
  const core::PolicyKind policy = kPolicies[rng.next_below(5)];
  constexpr traffic::PatternKind kPatterns[] = {
      traffic::PatternKind::kUniform, traffic::PatternKind::kTranspose,
      traffic::PatternKind::kBitComplement, traffic::PatternKind::kHotspot,
      traffic::PatternKind::kNeighbor, traffic::PatternKind::kTornado};
  // Every third seed swaps in a benchmark mix, covering the bursty
  // Markov-modulated sources' pre-roll as well.
  const core::Workload workload =
      GetParam() % 3 == 0
          ? core::Workload::benchmark_mix(
                traffic::random_mix(s.mesh_width * s.mesh_height, GetParam()), GetParam())
          : core::Workload::synthetic(kPatterns[rng.next_below(6)]);
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + ", " + s.name + ", policy " +
               core::to_string(policy));

  run_differential(s, policy, workload, core::RunnerOptions{});
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, FastForwardFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// Topology scheduler fuzz: the same stepped-vs-active-set equality over the
// non-mesh topologies — wrap links, dateline VC classes, and multi-NI local
// ports all feed the park condition and the active-set neighbor wakes, so
// each must round-trip exactly.
class TopologyFastForwardFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologyFastForwardFuzzTest, SkippedTopologyRunsMatchSteppedExactly) {
  util::Xoshiro256 rng(GetParam() ^ 0x7090ULL);
  sim::Scenario s = sim::Scenario::synthetic(4, 2 + static_cast<int>(rng.next_below(3)),
                                             0.05 * rng.next_double());
  constexpr const char* kTopologies[] = {"torus", "ring", "cmesh"};
  s.topology = kTopologies[GetParam() % 3];
  if (s.topology == "cmesh") s.concentration = 2;
  if (GetParam() % 4 == 0) s.injection_rate = 0.0;  // fully idle: the jump carries the run
  s.num_vnets = 1 + static_cast<int>(rng.next_below(2));
  s.wakeup_latency = rng.next_below(4);
  s.warmup_cycles = 1'000;
  s.measure_cycles = 8'000 + rng.next_below(8'000);
  constexpr core::PolicyKind kPolicies[] = {
      core::PolicyKind::kBaseline, core::PolicyKind::kRrNoSensor,
      core::PolicyKind::kSensorWiseNoTraffic, core::PolicyKind::kSensorWise,
      core::PolicyKind::kSensorRank};
  const core::PolicyKind policy = kPolicies[rng.next_below(5)];
  constexpr traffic::PatternKind kPatterns[] = {
      traffic::PatternKind::kUniform, traffic::PatternKind::kTranspose,
      traffic::PatternKind::kBitComplement, traffic::PatternKind::kHotspot,
      traffic::PatternKind::kNeighbor, traffic::PatternKind::kTornado};
  const core::Workload workload = core::Workload::synthetic(kPatterns[rng.next_below(6)]);
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + ", " + s.topology + ", policy " +
               core::to_string(policy));

  run_differential(s, policy, workload, core::RunnerOptions{});
}

INSTANTIATE_TEST_SUITE_P(RandomTopologyConfigs, TopologyFastForwardFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// Fault storm: an untargeted fault plan forces the active-set scheduler to
// pin every router (and the event horizon to `now`), so it degenerates to
// literal stepping — and every fault RNG draw, drop, flip, and quarantine
// decision must land identically.
TEST(SchedulerDifferential, FaultStormMatchesAcrossSchedulers) {
  sim::Scenario s = sim::Scenario::synthetic(3, 2, 0.05);
  s.warmup_cycles = 500;
  s.measure_cycles = 6'000;
  core::RunnerOptions options;
  options.faults = sim::FaultPlan::uniform(0.02);
  run_differential(s, core::PolicyKind::kSensorWise, core::Workload::synthetic(), options);
}

// Structural kills: permanent link/router failures at fixed mid-run cycles
// force an in-flight drain, a route-table regeneration and (in active-set
// mode) a full-fabric wake in both scheduler modes — and the degraded
// fabric must keep matching bit for bit afterwards. A final
// stepped leg re-runs the same schedule under the InvariantChecker: zero
// violations means the drain accounted for every purged flit and restored
// every credit exactly.
class StructuralKillFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StructuralKillFuzzTest, MidRunKillsMatchAcrossSchedulersAndKeepInvariants) {
  util::Xoshiro256 rng(GetParam() ^ 0x57f0ULL);
  sim::Scenario s = sim::Scenario::synthetic(3 + static_cast<int>(rng.next_below(2)), 2,
                                             0.02 + 0.08 * rng.next_double());
  if (GetParam() % 3 == 0) {
    s.topology = "torus";
  } else if (rng.next_bernoulli(0.5)) {
    s.routing = rng.next_bernoulli(0.5) ? "west-first" : "odd-even";
  }
  s.warmup_cycles = 500;
  s.measure_cycles = 6'000;

  core::RunnerOptions options;
  // Known-wired kills: East links exist on every non-last mesh column and
  // everywhere on the torus, so each scheduled kill really lands (counted
  // below). One seed in three also takes out a whole router.
  const int w = s.mesh_width;
  const auto east_ok = [&](int r) { return s.topology == "torus" || r % w != w - 1; };
  const int kills = 1 + static_cast<int>(rng.next_below(2));
  std::vector<int> used;
  for (int k = 0; k < kills; ++k) {
    sim::StructuralFault f;
    do {
      f.router = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.cores())));
    } while (!east_ok(f.router) ||
             std::find(used.begin(), used.end(), f.router) != used.end());
    used.push_back(f.router);
    f.port = static_cast<int>(noc::Dir::East);
    f.cycle = 600 + 900 * static_cast<sim::Cycle>(k) + rng.next_below(800);
    options.faults.structural.push_back(f);
  }
  if (GetParam() % 3 == 1) {
    sim::StructuralFault f;
    f.router = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.cores())));
    f.cycle = 3'000 + rng.next_below(1'000);
    options.faults.structural.push_back(f);  // port defaults to kWholeRouter
  }
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + ", " + s.name + ", topology " +
               s.topology + ", routing " + s.routing + ", " +
               std::to_string(options.faults.structural.size()) + " kills");

  run_differential(s, core::PolicyKind::kSensorWise, core::Workload::synthetic(), options);

  options.check_invariants = true;
  options.scheduler = SchedulerMode::kStepped;
  const core::RunResult checked =
      core::run_experiment(s, core::PolicyKind::kSensorWise, core::Workload::synthetic(), options);
  EXPECT_TRUE(checked.invariant_violations.empty())
      << checked.invariant_violations.front() << " (+" << checked.invariant_violations.size() - 1
      << " more)";
  // Every scheduled link kill hit a wired, live channel, so the counters
  // must record exactly the schedule (counters cover the measurement
  // window; the earliest kill lands after warmup by construction).
  EXPECT_EQ(checked.fault_counters.at("fault.link_kills"), static_cast<std::uint64_t>(kills));
  EXPECT_GE(checked.fault_counters.at("fault.route_regens"), static_cast<std::uint64_t>(kills));
}

INSTANTIATE_TEST_SUITE_P(RandomKillSchedules, StructuralKillFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// All-gated fixed point: sensor-wise with zero offered load drives every
// port to the fully gated state, where the active set parks the entire
// fabric and jumps epoch to epoch. The NBTI accounting across those jumps
// must still match literal stepping bit for bit over a long horizon.
TEST(SchedulerDifferential, AllGatedFixedPointMatchesAcrossSchedulers) {
  sim::Scenario s = sim::Scenario::synthetic(3, 2, 0.0);
  s.warmup_cycles = 500;
  s.measure_cycles = 60'000;
  run_differential(s, core::PolicyKind::kSensorWise, core::Workload::synthetic(),
                   core::RunnerOptions{});
}

// Shared-organization scheduler fuzz: the same stepped-vs-active-set
// equality with every input port running one DAMQ slot pool instead of
// per-VC banks. Slot-granularity gating feeds different events into the
// park condition
// (pool credits, waking slots, slot-form GateCommands), so each scheduler
// must reproduce them exactly. Only slot policies and baseline are legal
// under this organization (run_experiment rejects the VC-granularity ones).
class SharedPoolFastForwardFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SharedPoolFastForwardFuzzTest, SharedRunsMatchSteppedExactly) {
  util::Xoshiro256 rng(GetParam() ^ 0xda30ULL);
  sim::Scenario s = sim::Scenario::synthetic(2 + static_cast<int>(rng.next_below(2)),
                                             2 + static_cast<int>(rng.next_below(3)),
                                             0.06 * rng.next_double());
  s.buffer_org = "shared";
  s.shared_reserve = 1 + static_cast<int>(rng.next_below(2));
  if (GetParam() % 4 == 0) s.injection_rate = 0.0;  // fully idle: the jump carries the run
  s.wakeup_latency = rng.next_below(4);
  s.warmup_cycles = 1'000;
  s.measure_cycles = 8'000 + rng.next_below(8'000);
  constexpr core::PolicyKind kPolicies[] = {core::PolicyKind::kBaseline,
                                            core::PolicyKind::kSensorWiseSlotMd,
                                            core::PolicyKind::kRrSlot};
  const core::PolicyKind policy = kPolicies[rng.next_below(3)];
  constexpr traffic::PatternKind kPatterns[] = {
      traffic::PatternKind::kUniform, traffic::PatternKind::kTranspose,
      traffic::PatternKind::kBitComplement, traffic::PatternKind::kHotspot,
      traffic::PatternKind::kNeighbor, traffic::PatternKind::kTornado};
  const core::Workload workload = core::Workload::synthetic(kPatterns[rng.next_below(6)]);
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + ", " + s.name + ", reserve " +
               std::to_string(s.shared_reserve) + ", policy " + core::to_string(policy));

  run_differential(s, policy, workload, core::RunnerOptions{});
}

INSTANTIATE_TEST_SUITE_P(RandomSharedConfigs, SharedPoolFastForwardFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// Fault storm on the shared organization: transient faults land on pool
// slots (the slot-form modulus of Up_Down delivery), so every drop and flip
// must match across schedulers, and a stepped re-run under the
// InvariantChecker must prove slot conservation and the M* credit bound
// held through the whole storm.
TEST(SchedulerDifferential, SharedPoolFaultStormMatchesAcrossSchedulers) {
  sim::Scenario s = sim::Scenario::synthetic(3, 2, 0.05);
  s.buffer_org = "shared";
  s.warmup_cycles = 500;
  s.measure_cycles = 6'000;
  core::RunnerOptions options;
  options.faults = sim::FaultPlan::uniform(0.02);
  run_differential(s, core::PolicyKind::kSensorWiseSlotMd, core::Workload::synthetic(), options);

  options.check_invariants = true;
  options.scheduler = SchedulerMode::kStepped;
  const core::RunResult checked = core::run_experiment(
      s, core::PolicyKind::kSensorWiseSlotMd, core::Workload::synthetic(), options);
  EXPECT_TRUE(checked.invariant_violations.empty())
      << checked.invariant_violations.front() << " (+" << checked.invariant_violations.size() - 1
      << " more)";
}

// All-gated fixed point, shared organization: with zero offered load the
// slot policy gates the pool down to the per-VC reserve and stays there —
// the structural no-op fixed point of sensor_wise_slot_decide. The active
// set must carry the long parked horizon bit-exactly.
TEST(SchedulerDifferential, SharedAllGatedFixedPointMatchesAcrossSchedulers) {
  sim::Scenario s = sim::Scenario::synthetic(3, 2, 0.0);
  s.buffer_org = "shared";
  s.warmup_cycles = 500;
  s.measure_cycles = 60'000;
  run_differential(s, core::PolicyKind::kSensorWiseSlotMd, core::Workload::synthetic(),
                   core::RunnerOptions{});
}

// Trace capture/replay fuzz: for random scenario/policy/workload draws,
// record the live run through RunnerOptions::capture_trace, freeze it into
// an NBTITRACE mapping, and demand (a) the replay reproduces the live run's
// full result JSON bit for bit and (b) the replay itself is bit-identical
// across both scheduler modes.
class TraceCaptureReplayFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceCaptureReplayFuzzTest, CapturedRunsReplayBitIdentically) {
  util::Xoshiro256 rng(GetParam() ^ 0x7ace5ULL);
  sim::Scenario s = sim::Scenario::synthetic(2 + static_cast<int>(rng.next_below(2)),
                                             1 + static_cast<int>(rng.next_below(3)),
                                             0.02 + 0.1 * rng.next_double());
  s.num_vnets = 1 + static_cast<int>(rng.next_below(2));
  s.wakeup_latency = rng.next_below(4);
  s.warmup_cycles = 500;
  s.measure_cycles = 4'000 + rng.next_below(4'000);
  constexpr core::PolicyKind kPolicies[] = {
      core::PolicyKind::kBaseline, core::PolicyKind::kRrNoSensor,
      core::PolicyKind::kSensorWiseNoTraffic, core::PolicyKind::kSensorWise,
      core::PolicyKind::kSensorRank};
  const core::PolicyKind policy = kPolicies[rng.next_below(5)];
  constexpr traffic::PatternKind kPatterns[] = {
      traffic::PatternKind::kUniform, traffic::PatternKind::kTranspose,
      traffic::PatternKind::kBitComplement, traffic::PatternKind::kHotspot,
      traffic::PatternKind::kNeighbor, traffic::PatternKind::kTornado};
  // Rotate the source family: synthetic patterns, bursty benchmark mixes,
  // and the multi-packet-per-cycle datacenter aggregate.
  core::Workload workload = core::Workload::synthetic(kPatterns[rng.next_below(6)]);
  if (GetParam() % 3 == 1) {
    workload = core::Workload::benchmark_mix(
        traffic::random_mix(s.mesh_width * s.mesh_height, GetParam()), GetParam());
  } else if (GetParam() % 3 == 2) {
    traffic::DatacenterProfile profile;
    profile.users_per_node = 32;
    profile.user_rate = 0.02 + 0.2 * rng.next_double();
    profile.mean_on_cycles = 200;
    profile.mean_off_cycles = 800;
    profile.profile_horizon = 1 << 12;
    workload = core::Workload::datacenter_aggregate(profile);
  }
  SCOPED_TRACE("seed " + std::to_string(GetParam()) + ", " + s.name + ", policy " +
               core::to_string(policy));

  core::RunnerOptions options;
  options.scheduler = SchedulerMode::kStepped;
  traffic::Trace captured;
  options.capture_trace = &captured;
  const core::RunResult live = core::run_experiment(s, policy, workload, options);

  const core::Workload replay = core::Workload::trace_replay(
      traffic::TraceFile::from_trace(captured, s.cores(), "fuzz seed " +
                                     std::to_string(GetParam())));
  options.capture_trace = nullptr;
  const core::RunResult replayed = core::run_experiment(s, policy, replay, options);
  expect_run_equal(live, replayed, "live vs trace replay");

  run_differential(s, policy, replay, core::RunnerOptions{});
}

INSTANTIATE_TEST_SUITE_P(RandomCaptures, TraceCaptureReplayFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// run_experiment has no request/reply workload, so that source family gets
// its scheduler equivalence pinned at the Network level: coupled requesters
// and repliers across two vnets, run under both schedulers. The
// active-set leg leans on the ReplyBoard wake sink — a reply posted while
// the server's NI is parked must still be served on time.
TEST(FastForwardFuzz, RequestReplyTrafficMatchesStepped) {
  const auto run_one = [](SchedulerMode mode) {
    NocConfig c;
    c.width = 3;
    c.height = 3;
    c.num_vcs = 2;
    c.num_vnets = 2;
    c.buffer_depth = 4;
    c.packet_length = 4;
    Network net(c);
    traffic::RequestReplyConfig rr;
    rr.request_rate = 0.004;  // sparse: long quiescent gaps between transactions
    traffic::install_request_reply_traffic(net, rr, 77);
    net.set_scheduler_mode(mode);
    net.run_with_warmup(1'000, 40'000);
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
  const std::vector<double> stepped = run_one(SchedulerMode::kStepped);
  const std::vector<double> active = run_one(SchedulerMode::kActiveSet);
  ASSERT_EQ(stepped.size(), active.size());
  for (std::size_t i = 0; i < stepped.size(); ++i)
    EXPECT_EQ(stepped[i], active[i]) << "active-set index " << i;
}

}  // namespace
}  // namespace nbtinoc::noc
