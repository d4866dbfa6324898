#include "nbtinoc/core/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nbtinoc/core/controller.hpp"

namespace nbtinoc::core {
namespace {

FleetSpec small_spec() {
  FleetSpec spec;
  spec.scenario = sim::Scenario::synthetic(2, 2, 0.2);
  spec.scenario.warmup_cycles = 300;
  spec.scenario.measure_cycles = 2'000;
  spec.policies = {PolicyKind::kBaseline, PolicyKind::kSensorWise};
  spec.workloads = {{"uniform", Workload::synthetic()}};
  spec.chips = 3;
  return spec;
}

TEST(Fleet, ValidatesSpec) {
  FleetSpec bad = small_spec();
  bad.chips = 0;
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  bad = small_spec();
  bad.policies.clear();
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  bad = small_spec();
  bad.failure_fraction = 0.0;
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  bad = small_spec();
  bad.failure_fraction = 1.5;
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  bad = small_spec();
  bad.dvth_budget_v = 0.0;
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  bad = small_spec();
  bad.workloads[0].label = "has,comma";
  EXPECT_THROW(run_fleet(bad, 1), std::invalid_argument);
  EXPECT_THROW(run_fleet_shard(small_spec(), 2, 2, 1), std::invalid_argument);
  EXPECT_THROW(run_fleet_shard(small_spec(), -1, 2, 1), std::invalid_argument);
}

// Runner fields every fleet point would silently override (initial_vths)
// or share across points and workers (the per-run outputs) are rejected,
// naming the field. paper_scale stays legal: a paper-scale run per chip is
// meaningful.
TEST(Fleet, RejectsRunnerFieldsItOverridesOrShares) {
  const auto expect_rejects = [](const FleetSpec& bad, const std::string& field) {
    try {
      run_fleet(bad, 1);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  FleetSpec bad = small_spec();
  bad.runner.initial_vths[{0, noc::Dir::East}] = {0.18, 0.18};
  expect_rejects(bad, "runner.initial_vths");
  traffic::Trace trace;
  bad = small_spec();
  bad.runner.capture_trace = &trace;
  expect_rejects(bad, "runner.capture_trace");
  std::string snapshot;
  bad = small_spec();
  bad.runner.snapshot_out = &snapshot;
  expect_rejects(bad, "runner.snapshot_out");
  bad = small_spec();
  bad.runner.resume_from = std::string("NBTISNAP");
  expect_rejects(bad, "runner.resume_from");

  FleetSpec paper = small_spec();
  paper.runner.paper_scale = true;
  EXPECT_NO_THROW(paper.validate());
}

TEST(Fleet, ChipSeedsAreDistinctAndStable) {
  const auto spec = small_spec();
  EXPECT_EQ(fleet_chip_seed(spec.scenario, 0), fleet_chip_seed(spec.scenario, 0));
  EXPECT_NE(fleet_chip_seed(spec.scenario, 0), fleet_chip_seed(spec.scenario, 1));
  EXPECT_NE(fleet_chip_seed(spec.scenario, 1), fleet_chip_seed(spec.scenario, 2));
}

TEST(Fleet, ReportIsByteIdenticalAcrossWorkerCounts) {
  const auto spec = small_spec();
  const FleetReport serial = run_fleet(spec, 1);
  const FleetReport threaded = run_fleet(spec, 3);
  EXPECT_EQ(serial.to_json(), threaded.to_json());
  EXPECT_EQ(serial.to_csv(), threaded.to_csv());
}

TEST(Fleet, ShardSplitsMergeByteIdentically) {
  const auto spec = small_spec();
  const FleetReport whole = run_fleet(spec, 2);

  for (int shard_count : {2, 3}) {
    std::vector<FleetShardResult> shards;
    for (int i = 0; i < shard_count; ++i)
      shards.push_back(run_fleet_shard(spec, i, shard_count, 2));
    const FleetReport merged = merge_fleet_shards(spec, std::move(shards));
    EXPECT_EQ(whole.to_json(), merged.to_json()) << shard_count << "-way split";
    EXPECT_EQ(whole.to_csv(), merged.to_csv()) << shard_count << "-way split";
  }
}

TEST(Fleet, PartialsRoundTripExactly) {
  const auto spec = small_spec();
  const FleetShardResult shard = run_fleet_shard(spec, 1, 2, 1);
  const FleetShardResult parsed = parse_fleet_shard(serialize_fleet_shard(shard));
  EXPECT_EQ(parsed.digest, shard.digest);
  EXPECT_EQ(parsed.total_points, shard.total_points);
  EXPECT_EQ(parsed.shard_index, shard.shard_index);
  EXPECT_EQ(parsed.shard_count, shard.shard_count);
  ASSERT_EQ(parsed.outcomes.size(), shard.outcomes.size());
  for (std::size_t i = 0; i < shard.outcomes.size(); ++i) {
    EXPECT_EQ(parsed.outcomes[i].index, shard.outcomes[i].index);
    EXPECT_EQ(parsed.outcomes[i].chip, shard.outcomes[i].chip);
    EXPECT_EQ(parsed.outcomes[i].policy_index, shard.outcomes[i].policy_index);
    EXPECT_EQ(parsed.outcomes[i].workload_index, shard.outcomes[i].workload_index);
    // Bit-exact, not approximately-equal: the whole point of hex patterns.
    EXPECT_EQ(parsed.outcomes[i].failure_years, shard.outcomes[i].failure_years);
    EXPECT_EQ(parsed.outcomes[i].worst_duty_percent, shard.outcomes[i].worst_duty_percent);
  }
  // Serialize(parse(x)) == x closes the loop.
  EXPECT_EQ(serialize_fleet_shard(parsed), serialize_fleet_shard(shard));
}

TEST(Fleet, ParserRejectsMalformedPartials) {
  EXPECT_THROW(parse_fleet_shard(""), std::runtime_error);
  EXPECT_THROW(parse_fleet_shard("not a shard\n"), std::runtime_error);
  const auto spec = small_spec();
  const std::string good = serialize_fleet_shard(run_fleet_shard(spec, 0, 2, 1));
  // Truncation (drop the END line) is detected.
  EXPECT_THROW(parse_fleet_shard(good.substr(0, good.size() - 4)), std::runtime_error);
  // A corrupted outcome line names itself in the error.
  std::string corrupt = good;
  corrupt.replace(corrupt.find("\nO "), 3, "\nX ");
  EXPECT_THROW(parse_fleet_shard(corrupt), std::runtime_error);
}

TEST(Fleet, MergeRejectsForeignIncompleteAndOverlappingShards) {
  const auto spec = small_spec();
  FleetShardResult shard0 = run_fleet_shard(spec, 0, 2, 1);
  const FleetShardResult shard1 = run_fleet_shard(spec, 1, 2, 1);

  // Wrong configuration: digest mismatch.
  FleetSpec other = spec;
  other.dvth_budget_v = 0.05;
  try {
    merge_fleet_shards(other, {shard0, shard1});
    FAIL() << "digest mismatch not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different fleet configuration"), std::string::npos);
  }

  // Missing shard: coverage gap.
  EXPECT_THROW(merge_fleet_shards(spec, {shard0}), std::runtime_error);
  // Same shard twice: duplicate points.
  EXPECT_THROW(merge_fleet_shards(spec, {shard0, shard0}), std::runtime_error);
  // Stray index beyond the spec's point count.
  FleetShardResult stray = shard0;
  stray.outcomes[0].index = spec.total_points() + 7;
  EXPECT_THROW(merge_fleet_shards(spec, {stray, shard1}), std::runtime_error);
}

TEST(Fleet, GroupStatisticsAreOrderedAndBounded) {
  auto spec = small_spec();
  spec.chips = 4;
  const FleetReport report = run_fleet(spec, 2);
  ASSERT_EQ(report.groups().size(), 2u);  // 2 policies x 1 workload
  for (const auto& g : report.groups()) {
    ASSERT_EQ(g.failure_years.size(), 4u);
    EXPECT_LE(g.min_years, g.p10_years);
    EXPECT_LE(g.p10_years, g.median_years);
    EXPECT_LE(g.median_years, g.p90_years);
    EXPECT_LE(g.p90_years, g.max_years);
    EXPECT_GE(g.mean_years, g.min_years);
    EXPECT_LE(g.mean_years, g.max_years);
    for (double y : g.failure_years) {
      EXPECT_GT(y, 0.0);
      EXPECT_LE(y, spec.max_years);
    }
  }
  // Sensor-wise wear leveling must not shorten fleet lifetime vs baseline.
  EXPECT_GE(report.groups()[1].median_years, report.groups()[0].median_years);
}

// The per-chip oracle: one run_experiment per fleet point on that chip's
// own silicon, reduced exactly as the fleet reduces — what run_fleet_shard
// computed before sensor-less groups shared a run.
FleetShardResult per_chip_shard(const FleetSpec& spec, int shard_index, int shard_count) {
  const std::size_t chips = static_cast<std::size_t>(spec.chips);
  const std::size_t workload_count = spec.workloads.size();
  const nbti::NbtiModel model = calibrated_model_of(spec.scenario, spec.runner.nbti);
  const nbti::AgingForecaster forecaster(model, operating_point_of(spec.scenario));
  FleetShardResult shard;
  shard.digest = fleet_digest(spec);
  shard.total_points = spec.total_points();
  shard.shard_index = shard_index;
  shard.shard_count = shard_count;
  for (std::size_t index = static_cast<std::size_t>(shard_index); index < spec.total_points();
       index += static_cast<std::size_t>(shard_count)) {
    FleetPointOutcome o;
    o.index = index;
    o.chip = static_cast<int>(index % chips);
    o.workload_index = (index / chips) % workload_count;
    o.policy_index = index / chips / workload_count;
    RunnerOptions options = spec.runner;
    options.initial_vths = sample_network_vths(noc_config_of(spec.scenario),
                                               pv_config_of(spec.scenario),
                                               fleet_chip_seed(spec.scenario, o.chip));
    const RunResult run = run_experiment(spec.scenario, spec.policies[o.policy_index],
                                         spec.workloads[o.workload_index].workload, options);
    std::vector<double> lifetimes;
    for (const auto& [key, port] : run.ports) {
      for (std::size_t v = 0; v < port.duty_percent.size(); ++v) {
        nbti::BufferAgingInput input;
        input.initial_vth_v = port.initial_vth_v[v];
        input.alpha = port.duty_percent[v] / 100.0;
        lifetimes.push_back(forecaster.lifetime_years(input, spec.dvth_budget_v, spec.max_years));
        o.worst_duty_percent = std::max(o.worst_duty_percent, port.duty_percent[v]);
      }
    }
    std::sort(lifetimes.begin(), lifetimes.end());
    const auto over = static_cast<std::size_t>(
        std::ceil(spec.failure_fraction * static_cast<double>(lifetimes.size())));
    o.failure_years = lifetimes[std::max<std::size_t>(over, 1) - 1];
    shard.outcomes.push_back(o);
  }
  return shard;
}

// Sensor-less groups (baseline, rr-no-sensor, rr-slot) run once per shard
// and reduce per chip; the partials and the merged report must equal the
// per-chip oracle byte for byte, with and without a fault plan, for every
// shard split — and the shard must make exactly one run per sensor-less
// group it touches plus one per sensor-reading point.
TEST(Fleet, SharedSensorlessRunsMatchPerChipOracle) {
  struct Case {
    const char* name;
    const char* buffer_org;
    std::vector<PolicyKind> policies;
  };
  const std::vector<Case> cases = {
      {"partitioned", "partitioned",
       {PolicyKind::kBaseline, PolicyKind::kRrNoSensor, PolicyKind::kSensorWise}},
      {"shared", "shared", {PolicyKind::kBaseline, PolicyKind::kRrSlot,
                            PolicyKind::kSensorWiseSlotMd}},
  };
  sim::FaultPlan storm = sim::FaultPlan::uniform(0.05, 7);
  sim::StructuralFault link_kill;
  link_kill.router = 4;
  link_kill.port = static_cast<int>(noc::Dir::East);
  link_kill.cycle = 700;
  storm.structural.push_back(link_kill);

  for (const Case& c : cases) {
    for (const bool faulted : {false, true}) {
      FleetSpec spec;
      spec.scenario = sim::Scenario::synthetic(3, 3, 0.15);
      spec.scenario.buffer_org = c.buffer_org;
      spec.scenario.warmup_cycles = 200;
      spec.scenario.measure_cycles = 1'200;
      spec.policies = c.policies;
      Workload transpose = Workload::synthetic(traffic::PatternKind::kTranspose);
      transpose.seed_salt = 3;
      spec.workloads = {{"uniform", Workload::synthetic()}, {"transpose", transpose}};
      spec.chips = 4;
      if (faulted) spec.runner.faults = storm;
      const std::string label = std::string(c.name) + (faulted ? " +faults" : "");

      for (const int shard_count : {1, 3}) {
        std::vector<FleetShardResult> shards;
        std::vector<FleetShardResult> oracles;
        for (int i = 0; i < shard_count; ++i) {
          shards.push_back(run_fleet_shard(spec, i, shard_count, 2));
          oracles.push_back(per_chip_shard(spec, i, shard_count));
          EXPECT_EQ(serialize_fleet_shard(shards.back()), serialize_fleet_shard(oracles.back()))
              << label << ", shard " << i << "/" << shard_count;

          // One run per sensor-less group with points here, one per
          // sensor-reading point.
          std::vector<bool> seen(spec.policies.size() * spec.workloads.size(), false);
          std::size_t expected_runs = 0;
          for (const FleetPointOutcome& o : shards.back().outcomes) {
            const std::size_t group = o.policy_index * spec.workloads.size() + o.workload_index;
            if (reads_sensors(spec.policies[o.policy_index])) {
              ++expected_runs;
            } else if (!seen[group]) {
              seen[group] = true;
              ++expected_runs;
            }
          }
          EXPECT_EQ(shards.back().simulated_runs, expected_runs)
              << label << ", shard " << i << "/" << shard_count;
        }
        EXPECT_EQ(merge_fleet_shards(spec, shards).to_json(),
                  merge_fleet_shards(spec, oracles).to_json())
            << label << ", " << shard_count << "-way split";
      }
    }
  }
}

// Chip silicon is sampled on the scenario's own network, so fleets run on
// every topology and buffer organization, not just the partitioned mesh.
FleetReport tiny_fleet(sim::Scenario scenario, std::vector<PolicyKind> policies) {
  FleetSpec spec;
  spec.scenario = std::move(scenario);
  spec.scenario.warmup_cycles = 200;
  spec.scenario.measure_cycles = 1'000;
  spec.policies = std::move(policies);
  spec.chips = 2;
  return run_fleet(spec, 2);
}

void expect_complete(const FleetReport& report, std::size_t groups) {
  ASSERT_EQ(report.groups().size(), groups);
  for (const auto& g : report.groups()) {
    ASSERT_EQ(g.failure_years.size(), 2u);
    for (double y : g.failure_years) EXPECT_GT(y, 0.0);
  }
}

TEST(Fleet, DigestSeparatesTopologyAndBufferOrg) {
  const FleetSpec mesh = small_spec();
  FleetSpec torus = small_spec();
  torus.scenario.topology = "torus";
  FleetSpec shared = small_spec();
  shared.scenario.buffer_org = "shared";
  EXPECT_NE(fleet_digest(mesh), fleet_digest(torus));
  EXPECT_NE(fleet_digest(mesh), fleet_digest(shared));
  EXPECT_EQ(fleet_digest(mesh).find("topo="), std::string::npos);
  EXPECT_EQ(fleet_digest(mesh).find("org="), std::string::npos);
}

TEST(Fleet, DigestSeparatesBufferAndPipelineShape) {
  const FleetSpec base = small_spec();
  const std::string base_digest = fleet_digest(base);
  const auto differs = [&](const char* field, auto&& change) {
    FleetSpec spec = small_spec();
    change(spec.scenario);
    EXPECT_NE(fleet_digest(spec), base_digest) << field;
  };
  differs("buffer_depth", [](sim::Scenario& s) { s.buffer_depth = 8; });
  differs("packet_length", [](sim::Scenario& s) { s.packet_length = 5; });
  differs("flit_width_bits", [](sim::Scenario& s) { s.flit_width_bits = 32; });
  differs("link_width_bits", [](sim::Scenario& s) { s.link_width_bits = 64; });
  differs("routing", [](sim::Scenario& s) { s.routing = "west-first"; });
  differs("router_stages", [](sim::Scenario& s) { s.router_stages = 4; });
  differs("wakeup_latency", [](sim::Scenario& s) { s.wakeup_latency = 2; });
  // Defaults name none of them, so default digests keep their bytes.
  for (const char* tag : {" depth=", " plen=", " flit_bits=", " link_bits=", " routing=",
                          " stages=", " wake="})
    EXPECT_EQ(base_digest.find(tag), std::string::npos) << tag;
  // And a merge refuses shards whose specs differ only in one of them.
  FleetSpec deep = small_spec();
  deep.scenario.buffer_depth = 8;
  const FleetShardResult a = run_fleet_shard(base, 0, 2, 1);
  const FleetShardResult b = run_fleet_shard(deep, 1, 2, 1);
  try {
    merge_fleet_shards(base, {a, b});
    FAIL() << "a deeper-buffer shard merged into the default fleet";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different fleet configuration"), std::string::npos);
  }
}

// The fleet digest names a fault plan when one is set, and spells a value
// exactly when std::to_string's six decimals cannot tell it apart; digests
// without a plan and with round-tripping values keep their bytes.
TEST(Fleet, DigestNamesFaultPlanAndExactValues) {
  const FleetSpec base = small_spec();
  const std::string base_digest = fleet_digest(base);
  EXPECT_EQ(base_digest.find(" faults="), std::string::npos);
  EXPECT_EQ(base_digest.find('['), std::string::npos);
  EXPECT_NE(base_digest.find(" rate=0.200000 "), std::string::npos) << base_digest;

  FleetSpec coarse = small_spec();
  coarse.scenario.injection_rate = 0.05;
  FleetSpec fine = small_spec();
  fine.scenario.injection_rate = 0.0500001;
  EXPECT_NE(fleet_digest(coarse), fleet_digest(fine));
  EXPECT_NE(fleet_digest(fine).find("[0.050000099999999999]"), std::string::npos)
      << fleet_digest(fine);
  FleetSpec budget = small_spec();
  budget.dvth_budget_v = 0.0300001;
  EXPECT_NE(fleet_digest(budget), base_digest);

  // A merge refuses a shard made under another fault plan.
  FleetSpec weak = small_spec();
  weak.runner.faults = sim::FaultPlan::uniform(0.02);
  FleetSpec strong = small_spec();
  strong.runner.faults = sim::FaultPlan::uniform(0.2);
  EXPECT_NE(fleet_digest(weak), base_digest);
  try {
    merge_fleet_shards(weak, {run_fleet_shard(weak, 0, 2, 1), run_fleet_shard(strong, 1, 2, 1)});
    FAIL() << "a shard made under uniform(0.2) merged into a uniform(0.02) fleet";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different fleet configuration"), std::string::npos);
  }
}

TEST(Fleet, RunsOnTorus) {
  sim::Scenario s = sim::Scenario::synthetic(3, 2, 0.1);
  s.topology = "torus";
  expect_complete(tiny_fleet(s, {PolicyKind::kBaseline, PolicyKind::kSensorWise}), 2);
}

TEST(Fleet, RunsOnCmesh) {
  sim::Scenario s = sim::Scenario::synthetic(4, 2, 0.1);
  s.topology = "cmesh";
  s.concentration = 2;
  expect_complete(tiny_fleet(s, {PolicyKind::kBaseline, PolicyKind::kSensorWise}), 2);
}

TEST(Fleet, RunsOnSharedBuffers) {
  sim::Scenario s = sim::Scenario::synthetic(2, 2, 0.1);
  s.buffer_org = "shared";
  expect_complete(tiny_fleet(s, {PolicyKind::kBaseline, PolicyKind::kSensorWiseSlotMd}), 2);
}

}  // namespace
}  // namespace nbtinoc::core
