#include "nbtinoc/core/lifetime.hpp"

#include <gtest/gtest.h>

#include <string>

namespace nbtinoc::core {
namespace {

sim::Scenario scenario() {
  return sim::Scenario::synthetic(2, 2, 0.2);
}

LifetimeOptions quick_options(int epochs = 4) {
  LifetimeOptions opt;
  opt.epochs = epochs;
  opt.years_per_epoch = 0.5;
  opt.measure_cycles_per_epoch = 15'000;
  return opt;
}

TEST(LifetimeStudy, RejectsBadOptions) {
  LifetimeOptions bad = quick_options();
  bad.epochs = 0;
  EXPECT_THROW(run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                  {0, noc::Dir::East}, bad),
               std::invalid_argument);
  bad = quick_options();
  bad.years_per_epoch = 0.0;
  EXPECT_THROW(run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                  {0, noc::Dir::East}, bad),
               std::invalid_argument);
  bad = quick_options();
  bad.measure_cycles_per_epoch = 0;
  EXPECT_THROW(run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                  {0, noc::Dir::East}, bad),
               std::invalid_argument);
  EXPECT_THROW(run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                  {0, noc::Dir::West}, quick_options()),
               std::invalid_argument);
}

// Runner fields the study owns (silicon, cycle counts) or would share
// across epochs (per-run outputs) are rejected, naming the field.
TEST(LifetimeStudy, RejectsRunnerFieldsItOverridesOrShares) {
  const auto expect_rejects = [](const LifetimeOptions& bad, const std::string& field) {
    try {
      run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                         {0, noc::Dir::East}, bad);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  LifetimeOptions bad = quick_options();
  bad.runner.initial_vths[{0, noc::Dir::East}] = {0.18, 0.18};
  expect_rejects(bad, "runner.initial_vths");
  bad = quick_options();
  bad.runner.paper_scale = true;
  expect_rejects(bad, "runner.paper_scale");
  traffic::Trace trace;
  bad = quick_options();
  bad.runner.capture_trace = &trace;
  expect_rejects(bad, "runner.capture_trace");
  std::string snapshot;
  bad = quick_options();
  bad.runner.snapshot_out = &snapshot;
  expect_rejects(bad, "runner.snapshot_out");
  bad = quick_options();
  bad.runner.resume_from = std::string("NBTISNAP");
  expect_rejects(bad, "runner.resume_from");
}

TEST(LifetimeStudy, RecordsEveryEpochWithMonotoneTime) {
  const auto r = run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                    {0, noc::Dir::East}, quick_options(4));
  ASSERT_EQ(r.epochs.size(), 4u);
  double prev_years = 0.0;
  for (const auto& e : r.epochs) {
    EXPECT_GT(e.years_elapsed, prev_years);
    prev_years = e.years_elapsed;
    EXPECT_EQ(e.vth_v.size(), 2u);
    EXPECT_EQ(e.duty_percent.size(), 2u);
  }
  EXPECT_DOUBLE_EQ(r.epochs.back().years_elapsed, 2.0);
}

TEST(LifetimeStudy, VthNeverDecreases) {
  const auto r = run_lifetime_study(scenario(), PolicyKind::kRrNoSensor, Workload::synthetic(),
                                    {0, noc::Dir::East}, quick_options(4));
  for (std::size_t e = 1; e < r.epochs.size(); ++e) {
    for (std::size_t v = 0; v < r.epochs[e].vth_v.size(); ++v)
      EXPECT_GE(r.epochs[e].vth_v[v], r.epochs[e - 1].vth_v[v] - 1e-12);
  }
}

TEST(LifetimeStudy, BaselineAgesFastest) {
  const auto base = run_lifetime_study(scenario(), PolicyKind::kBaseline, Workload::synthetic(),
                                       {0, noc::Dir::East}, quick_options(3));
  const auto sw = run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                     {0, noc::Dir::East}, quick_options(3));
  EXPECT_GT(base.final_worst_vth_v, sw.final_worst_vth_v);
}

TEST(LifetimeStudy, BaselineDutyStaysHundred) {
  const auto base = run_lifetime_study(scenario(), PolicyKind::kBaseline, Workload::synthetic(),
                                       {0, noc::Dir::East}, quick_options(2));
  for (const auto& e : base.epochs)
    for (double d : e.duty_percent) EXPECT_DOUBLE_EQ(d, 100.0);
}

TEST(LifetimeStudy, FinalVthsCoverEveryPort) {
  const auto r = run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                    {0, noc::Dir::East}, quick_options(2));
  EXPECT_EQ(r.final_vths.size(), 12u);  // 2x2 mesh: 3 ports x 4 routers
  for (const auto& [key, bank] : r.final_vths) EXPECT_EQ(bank.size(), 2u);
}

TEST(LifetimeStudy, SensorWiseEquizalizesWearOverTime) {
  // Under sensor-wise the accumulated shift concentrates away from the
  // initially-worst VC; the spread of *final* Vth should not exceed the
  // baseline's spread by much (baseline ages uniformly: spread = initial
  // PV spread exactly).
  const auto base = run_lifetime_study(scenario(), PolicyKind::kBaseline, Workload::synthetic(),
                                       {0, noc::Dir::East}, quick_options(4));
  const auto sw = run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                     {0, noc::Dir::East}, quick_options(4));
  // Baseline: every VC at alpha=1 -> near-equal shift (the Eox term makes a
  // higher-Vth device age marginally slower) -> spread ~ PV spread.
  const auto& first = base.epochs.front().vth_v;
  const auto& last = base.epochs.back().vth_v;
  EXPECT_NEAR(last[0] - last[1], first[0] - first[1], 1e-4);
  // The policy's wear-aware allocation keeps the final spread bounded.
  EXPECT_LT(sw.final_spread_v, 0.030);
}

// Fresh silicon is sampled on the scenario's own network, so the study runs
// on every topology and buffer organization, not just the partitioned mesh.
LifetimeOptions two_epochs() {
  LifetimeOptions opt = quick_options(2);
  opt.measure_cycles_per_epoch = 2'000;
  return opt;
}

void expect_covers_every_port(const LifetimeResult& r, const sim::Scenario& s) {
  const auto expected = sample_network_vths(noc_config_of(s), pv_config_of(s), s.pv_seed());
  ASSERT_EQ(r.final_vths.size(), expected.size());
  for (const auto& [key, bank] : expected) EXPECT_EQ(r.final_vths.at(key).size(), bank.size());
}

TEST(LifetimeStudy, RunsOnTorus) {
  sim::Scenario s = sim::Scenario::synthetic(3, 2, 0.1);
  s.topology = "torus";
  const auto r = run_lifetime_study(s, PolicyKind::kSensorWise, Workload::synthetic(),
                                    {0, noc::Dir::East}, two_epochs());
  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_EQ(r.measured_epochs, 2);
  // The wrap link feeds router 0's West input: its buffers aged too.
  const noc::PortKey wrap{0, noc::Dir::West};
  ASSERT_TRUE(r.final_vths.count(wrap));
  expect_covers_every_port(r, s);
}

TEST(LifetimeStudy, RunsOnCmesh) {
  sim::Scenario s = sim::Scenario::synthetic(4, 2, 0.1);
  s.topology = "cmesh";
  s.concentration = 2;
  const auto r = run_lifetime_study(s, PolicyKind::kSensorWise, Workload::synthetic(),
                                    {0, noc::Dir::East}, two_epochs());
  ASSERT_EQ(r.epochs.size(), 2u);
  expect_covers_every_port(r, s);
  // Each router carries one local port per concentrated tile.
  ASSERT_TRUE(r.final_vths.count({0, static_cast<noc::Dir>(noc::kFirstLocalPort + 1)}));
  // 4x4 tiles at concentration 2 form a 2x4 router mesh: router 8 is absent.
  try {
    run_lifetime_study(s, PolicyKind::kSensorWise, Workload::synthetic(), {8, noc::Dir::West},
                       two_epochs());
    ADD_FAILURE() << "nonexistent cmesh port accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sampled port does not exist"), std::string::npos);
  }
}

TEST(LifetimeStudy, SharedBuffersAgeEveryPoolSlot) {
  sim::Scenario s = sim::Scenario::synthetic(2, 2, 0.1);
  s.buffer_org = "shared";
  const auto r = run_lifetime_study(s, PolicyKind::kSensorWiseSlotMd, Workload::synthetic(),
                                    {0, noc::Dir::East}, two_epochs());
  const auto slots = static_cast<std::size_t>(noc_config_of(s).pool_slots());
  ASSERT_EQ(r.epochs.size(), 2u);
  for (const auto& e : r.epochs) {
    EXPECT_EQ(e.vth_v.size(), slots);
    EXPECT_EQ(e.duty_percent.size(), slots);
  }
  expect_covers_every_port(r, s);
}

}  // namespace
}  // namespace nbtinoc::core
