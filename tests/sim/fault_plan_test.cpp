#include "nbtinoc/sim/fault_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace nbtinoc::sim {
namespace {

TEST(FaultPlan, DefaultPlanIsDisabled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_NO_THROW(plan.validate());
  EXPECT_EQ(plan.describe(), "fault plan: none (all rates zero)");
}

TEST(FaultPlan, AnyNonzeroRateEnables) {
  for (auto set : std::vector<void (*)(FaultPlan&)>{
           [](FaultPlan& p) { p.sensor_stuck_rate = 0.1; },
           [](FaultPlan& p) { p.sensor_drift_rate = 0.1; },
           [](FaultPlan& p) { p.sensor_death_rate = 0.1; },
           [](FaultPlan& p) { p.gate_cmd_drop_rate = 0.1; },
           [](FaultPlan& p) { p.gate_cmd_flip_rate = 0.1; },
           [](FaultPlan& p) { p.down_up_drop_rate = 0.1; },
           [](FaultPlan& p) { p.wake_fail_rate = 0.1; }}) {
    FaultPlan plan;
    set(plan);
    EXPECT_TRUE(plan.enabled());
  }
  // A repair rate alone never injects anything.
  FaultPlan repair_only;
  repair_only.sensor_repair_rate = 0.5;
  EXPECT_FALSE(repair_only.enabled());
}

TEST(FaultPlan, ValidateRejectsOutOfRangeRates) {
  FaultPlan plan;
  plan.gate_cmd_drop_rate = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.gate_cmd_drop_rate = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, ValidateRejectsSensorRateSumAboveOne) {
  FaultPlan plan;
  plan.sensor_stuck_rate = 0.5;
  plan.sensor_drift_rate = 0.4;
  plan.sensor_death_rate = 0.2;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, UniformIsValidAcrossTheWholeRange) {
  for (double rate : {0.0, 0.001, 0.5, 1.0}) {
    const FaultPlan plan = FaultPlan::uniform(rate);
    EXPECT_NO_THROW(plan.validate()) << "rate " << rate;
    EXPECT_EQ(plan.enabled(), rate > 0.0);
  }
}

TEST(FaultPlan, DigestNamesEveryFieldExactly) {
  const FaultPlan base = FaultPlan::uniform(0.02, 5);
  const std::string d = base.digest();
  EXPECT_EQ(d.find(' '), std::string::npos) << d;
  EXPECT_EQ(d, FaultPlan::uniform(0.02, 5).digest());
  const auto differs = [&](const char* field, auto&& change) {
    FaultPlan p = base;
    change(p);
    EXPECT_NE(p.digest(), d) << field;
  };
  differs("seed_salt", [](FaultPlan& p) { p.seed_salt = 6; });
  differs("sensor_stuck_rate", [](FaultPlan& p) { p.sensor_stuck_rate = 0.0200001; });
  differs("sensor_drift_rate", [](FaultPlan& p) { p.sensor_drift_rate = 0.03; });
  differs("sensor_death_rate", [](FaultPlan& p) { p.sensor_death_rate = 0.03; });
  differs("sensor_repair_rate", [](FaultPlan& p) { p.sensor_repair_rate = 0.03; });
  differs("drift_step_v", [](FaultPlan& p) { p.drift_step_v = 0.003; });
  differs("dead_reading_v", [](FaultPlan& p) { p.dead_reading_v = 0.5; });
  differs("gate_cmd_drop_rate", [](FaultPlan& p) { p.gate_cmd_drop_rate = 0.03; });
  differs("gate_cmd_flip_rate", [](FaultPlan& p) { p.gate_cmd_flip_rate = 0.03; });
  differs("down_up_drop_rate", [](FaultPlan& p) { p.down_up_drop_rate = 0.03; });
  differs("wake_fail_rate", [](FaultPlan& p) { p.wake_fail_rate = 0.03; });
  differs("targets", [](FaultPlan& p) { p.targets = {{1, 2}}; });
  differs("structural", [](FaultPlan& p) { p.structural.push_back({100, 1, 2}); });

  // Kills are named in (cycle, router, port) order, however the plan lists
  // them.
  FaultPlan ab = base;
  ab.structural = {{100, 1, 2}, {50, 3, StructuralFault::kWholeRouter}};
  FaultPlan ba = base;
  ba.structural = {{50, 3, StructuralFault::kWholeRouter}, {100, 1, 2}};
  EXPECT_EQ(ab.digest(), ba.digest());
  FaultPlan later = ab;
  later.structural[0].cycle = 150;
  EXPECT_NE(later.digest(), ab.digest());
}

TEST(FaultInjector, ZeroRatePlanNeverFires) {
  FaultInjector inj(FaultPlan{}, /*seed=*/1234);
  int shift = -1;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(inj.drop_gate_command());
    EXPECT_FALSE(inj.flip_gate_command(4, &shift));
    EXPECT_FALSE(inj.wake_fails());
    EXPECT_FALSE(inj.drop_down_up_report());
  }
  inj.advance_sensor_epoch(0, 0, 4);
  EXPECT_EQ(inj.faulty_sites(), 0u);
  EXPECT_EQ(inj.corrupt_reading(0, 0, 0, 0.18), 0.18);
  EXPECT_EQ(shift, -1);  // flip never wrote through
}

TEST(FaultInjector, SameSeedReplaysBitExactly) {
  const FaultPlan plan = FaultPlan::uniform(0.1, /*seed_salt=*/7);
  FaultInjector a(plan, 42), b(plan, 42);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.drop_gate_command(), b.drop_gate_command());
    int sa = -1, sb = -1;
    EXPECT_EQ(a.flip_gate_command(4, &sa), b.flip_gate_command(4, &sb));
    EXPECT_EQ(sa, sb);
    EXPECT_EQ(a.wake_fails(), b.wake_fails());
    a.advance_sensor_epoch(0, 1, 4);
    b.advance_sensor_epoch(0, 1, 4);
  }
  EXPECT_EQ(a.faulty_sites(), b.faulty_sites());
  for (int vc = 0; vc < 4; ++vc) {
    EXPECT_EQ(a.sensor_mode(0, 1, vc), b.sensor_mode(0, 1, vc));
    EXPECT_EQ(a.corrupt_reading(0, 1, vc, 0.2), b.corrupt_reading(0, 1, vc, 0.2));
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  const FaultPlan plan = FaultPlan::uniform(0.5);
  FaultInjector a(plan, 1), b(plan, 2);
  int agreements = 0;
  const int kDraws = 256;
  for (int i = 0; i < kDraws; ++i)
    if (a.drop_gate_command() == b.drop_gate_command()) ++agreements;
  EXPECT_LT(agreements, kDraws);  // astronomically unlikely to fully agree
}

TEST(FaultInjector, FlipShiftIsAlwaysInRange) {
  FaultPlan plan;
  plan.gate_cmd_flip_rate = 1.0;
  FaultInjector inj(plan, 99);
  for (int range : {1, 2, 4, 8}) {
    for (int i = 0; i < 100; ++i) {
      int shift = -1;
      ASSERT_TRUE(inj.flip_gate_command(range, &shift));
      EXPECT_GE(shift, 0);
      EXPECT_LT(shift, range);
    }
  }
}

TEST(FaultInjector, StuckSensorLatchesFirstReading) {
  FaultPlan plan;
  plan.sensor_stuck_rate = 1.0;  // every site faults on the first epoch
  FaultInjector inj(plan, 5);
  inj.advance_sensor_epoch(3, 1, 1);
  ASSERT_EQ(inj.sensor_mode(3, 1, 0), SensorFaultMode::kStuck);
  EXPECT_EQ(inj.corrupt_reading(3, 1, 0, 0.21), 0.21);  // latch
  EXPECT_EQ(inj.corrupt_reading(3, 1, 0, 0.30), 0.21);  // frozen thereafter
}

TEST(FaultInjector, DriftingSensorAccumulatesPerEpoch) {
  FaultPlan plan;
  plan.sensor_drift_rate = 1.0;
  plan.drift_step_v = 0.01;
  FaultInjector inj(plan, 5);
  inj.advance_sensor_epoch(0, 0, 1);  // healthy -> drifting (drift 0 so far)
  ASSERT_EQ(inj.sensor_mode(0, 0, 0), SensorFaultMode::kDrifting);
  EXPECT_DOUBLE_EQ(inj.corrupt_reading(0, 0, 0, 0.2), 0.2);
  inj.advance_sensor_epoch(0, 0, 1);  // +1 drift step
  EXPECT_DOUBLE_EQ(inj.corrupt_reading(0, 0, 0, 0.2), 0.21);
  inj.advance_sensor_epoch(0, 0, 1);
  EXPECT_DOUBLE_EQ(inj.corrupt_reading(0, 0, 0, 0.2), 0.22);
}

TEST(FaultInjector, DeadSensorReportsTheRail) {
  FaultPlan plan;
  plan.sensor_death_rate = 1.0;
  plan.dead_reading_v = 0.0;
  FaultInjector inj(plan, 5);
  inj.advance_sensor_epoch(0, 2, 2);
  for (int vc = 0; vc < 2; ++vc) {
    ASSERT_EQ(inj.sensor_mode(0, 2, vc), SensorFaultMode::kDead);
    EXPECT_EQ(inj.corrupt_reading(0, 2, vc, 0.25), 0.0);
  }
}

TEST(FaultInjector, RepairReturnsSitesToHealthy) {
  FaultPlan plan;
  plan.sensor_death_rate = 1.0;
  plan.sensor_repair_rate = 1.0;
  FaultInjector inj(plan, 5);
  inj.advance_sensor_epoch(0, 0, 1);
  ASSERT_EQ(inj.faulty_sites(), 1u);
  inj.advance_sensor_epoch(0, 0, 1);  // guaranteed repair
  EXPECT_EQ(inj.faulty_sites(), 0u);
  EXPECT_EQ(inj.sensor_mode(0, 0, 0), SensorFaultMode::kHealthy);
  EXPECT_EQ(inj.corrupt_reading(0, 0, 0, 0.3), 0.3);
}

TEST(FaultInjector, CountsEventsIntoBoundStats) {
  StatRegistry stats;
  FaultPlan plan;
  plan.gate_cmd_drop_rate = 1.0;
  plan.wake_fail_rate = 1.0;
  FaultInjector inj(plan, 11);
  inj.bind_stats(&stats);
  EXPECT_TRUE(inj.drop_gate_command());
  EXPECT_TRUE(inj.drop_gate_command());
  EXPECT_TRUE(inj.wake_fails());
  EXPECT_EQ(stats.counter("fault.gate_cmd_drops"), 2u);
  EXPECT_EQ(stats.counter("fault.wake_failures"), 1u);
}

TEST(FaultInjector, ConstructorValidatesPlan) {
  FaultPlan plan;
  plan.wake_fail_rate = 2.0;
  EXPECT_THROW(FaultInjector(plan, 1), std::invalid_argument);
}

}  // namespace
}  // namespace nbtinoc::sim
