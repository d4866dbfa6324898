#include "nbtinoc/core/lifetime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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

// The exactness reference: the literal stepped loop, written out here so
// the library's measure/extrapolate loop is checked against something other
// than itself. Every epoch runs a cycle-accurate window on the aged silicon
// (warmup = measure / 5, traffic salt ^= 0x11d0 * (epoch + 1)) and advances
// every buffer by the epoch length at the duty it just measured.
LifetimeResult stepped_oracle(sim::Scenario s, PolicyKind policy, const Workload& workload,
                              noc::PortKey sampled_port, const LifetimeOptions& options) {
  s.warmup_cycles = options.measure_cycles_per_epoch / 5;
  s.measure_cycles = options.measure_cycles_per_epoch;
  const nbti::NbtiModel model = calibrated_model_of(s, options.runner.nbti);
  const nbti::AgingForecaster forecaster(model, operating_point_of(s));
  const double epoch_seconds = nbti::AgingForecaster::years_to_seconds(options.years_per_epoch);
  const auto fresh = sample_network_vths(noc_config_of(s), pv_config_of(s), s.pv_seed());
  std::map<noc::PortKey, std::vector<double>> dvth;
  for (const auto& [key, bank] : fresh) dvth[key].assign(bank.size(), 0.0);
  const auto aged = [&](const noc::PortKey& key) {
    std::vector<double> v = fresh.at(key);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += dvth.at(key)[i];
    return v;
  };

  LifetimeResult result;
  result.sampled_port = sampled_port;
  int previous_md = -1;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    RunnerOptions ropt = options.runner;
    ropt.policy.kind = policy;
    for (const auto& [key, bank] : fresh) ropt.initial_vths[key] = aged(key);
    Workload epoch_workload = workload;
    epoch_workload.seed_salt ^= 0x11d0ULL * static_cast<std::uint64_t>(epoch + 1);
    const RunResult run = run_experiment(s, policy, epoch_workload, ropt);
    ++result.measured_epochs;

    for (auto& [key, shifts] : dvth) {
      const auto& port = run.ports.at(key);
      for (std::size_t i = 0; i < shifts.size(); ++i)
        shifts[i] = forecaster.advance_dvth(shifts[i], port.duty_percent[i] / 100.0,
                                            epoch_seconds, fresh.at(key)[i]);
    }

    LifetimeEpoch record;
    record.years_elapsed = (epoch + 1) * options.years_per_epoch;
    record.duty_percent = run.ports.at(sampled_port).duty_percent;
    record.vth_v = aged(sampled_port);
    record.most_degraded = static_cast<int>(std::distance(
        record.vth_v.begin(), std::max_element(record.vth_v.begin(), record.vth_v.end())));
    if (previous_md >= 0 && record.most_degraded != previous_md) ++result.md_changes;
    previous_md = record.most_degraded;
    result.epochs.push_back(std::move(record));
  }
  const auto& final_vths = result.epochs.back().vth_v;
  result.final_worst_vth_v = *std::max_element(final_vths.begin(), final_vths.end());
  result.final_spread_v =
      result.final_worst_vth_v - *std::min_element(final_vths.begin(), final_vths.end());
  for (const auto& [key, bank] : fresh) result.final_vths[key] = aged(key);
  return result;
}

TEST(LifetimeEngine, RejectsBadOptions) {
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
  bad = quick_options();
  bad.remeasure_tolerance_v = -1.0;
  EXPECT_THROW(run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                  {0, noc::Dir::East}, bad),
               std::invalid_argument);
  bad = quick_options();
  bad.max_extrapolated_epochs = 0;
  EXPECT_THROW(run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                  {0, noc::Dir::East}, bad),
               std::invalid_argument);
  // Nonexistent port on a 2x2 mesh corner.
  EXPECT_THROW(run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                  {0, noc::Dir::West}, quick_options()),
               std::invalid_argument);
}

// The exactness anchor: tolerance 0 measures every epoch, which must
// reproduce the literal per-epoch oracle bit for bit — same salts, same
// warmup derivation, same advance arithmetic.
TEST(LifetimeEngine, ToleranceZeroMatchesSteppedStudyExactly) {
  LifetimeOptions exact = quick_options(4);
  exact.remeasure_tolerance_v = 0.0;

  for (PolicyKind policy : {PolicyKind::kBaseline, PolicyKind::kSensorWise}) {
    const auto stepped =
        stepped_oracle(scenario(), policy, Workload::synthetic(), {0, noc::Dir::East}, exact);
    const auto hier = run_lifetime_study(scenario(), policy, Workload::synthetic(),
                                         {0, noc::Dir::East}, exact);
    EXPECT_EQ(hier.measured_epochs, exact.epochs);
    EXPECT_EQ(hier.extrapolated_epochs, 0);
    ASSERT_EQ(hier.epochs.size(), stepped.epochs.size());
    for (std::size_t e = 0; e < stepped.epochs.size(); ++e) {
      EXPECT_DOUBLE_EQ(hier.epochs[e].years_elapsed, stepped.epochs[e].years_elapsed);
      EXPECT_EQ(hier.epochs[e].most_degraded, stepped.epochs[e].most_degraded);
      ASSERT_EQ(hier.epochs[e].vth_v.size(), stepped.epochs[e].vth_v.size());
      for (std::size_t v = 0; v < stepped.epochs[e].vth_v.size(); ++v) {
        EXPECT_EQ(hier.epochs[e].vth_v[v], stepped.epochs[e].vth_v[v]);
        EXPECT_EQ(hier.epochs[e].duty_percent[v], stepped.epochs[e].duty_percent[v]);
      }
    }
    EXPECT_EQ(hier.final_worst_vth_v, stepped.final_worst_vth_v);
    EXPECT_EQ(hier.final_spread_v, stepped.final_spread_v);
    EXPECT_EQ(hier.md_changes, stepped.md_changes);
    ASSERT_EQ(hier.final_vths.size(), stepped.final_vths.size());
    for (const auto& [key, bank] : stepped.final_vths) {
      const auto& hier_bank = hier.final_vths.at(key);
      ASSERT_EQ(hier_bank.size(), bank.size());
      for (std::size_t v = 0; v < bank.size(); ++v) EXPECT_EQ(hier_bank[v], bank[v]);
    }
  }
}

// With a nonzero tolerance the loop must actually skip measurement windows
// AND stay within a trajectory error of the oracle commensurate with the
// tolerance it was given.
TEST(LifetimeEngine, ToleranceSkipsWindowsAndTracksReference) {
  const auto opt = quick_options(8);
  const auto stepped = stepped_oracle(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                      {0, noc::Dir::East}, opt);
  LifetimeOptions approx = opt;
  approx.remeasure_tolerance_v = 0.002;
  const auto hier = run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                       {0, noc::Dir::East}, approx);
  EXPECT_LT(hier.measured_epochs, opt.epochs);  // this is where the speedup comes from
  EXPECT_EQ(hier.measured_epochs + hier.extrapolated_epochs, opt.epochs);
  EXPECT_GE(hier.measured_epochs, 1);

  // Convergence: every buffer of the full final silicon within a small
  // multiple of the tolerance (duty drifts slowly; errors accumulate
  // sublinearly because re-measurement resets them).
  ASSERT_EQ(hier.final_vths.size(), stepped.final_vths.size());
  double worst_error = 0.0;
  for (const auto& [key, bank] : stepped.final_vths) {
    const auto& hier_bank = hier.final_vths.at(key);
    ASSERT_EQ(hier_bank.size(), bank.size());
    for (std::size_t v = 0; v < bank.size(); ++v)
      worst_error = std::max(worst_error, std::fabs(hier_bank[v] - bank[v]));
  }
  EXPECT_LT(worst_error, 4 * approx.remeasure_tolerance_v);
}

TEST(LifetimeEngine, MaxExtrapolatedEpochsForcesRemeasure) {
  LifetimeOptions opt = quick_options(6);
  opt.remeasure_tolerance_v = 1.0;  // absurdly loose: would never re-measure on drift
  opt.max_extrapolated_epochs = 2;
  const auto hier = run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                       {0, noc::Dir::East}, opt);
  // Epochs: measure, extrap, extrap, measure (cap), extrap, extrap.
  EXPECT_EQ(hier.measured_epochs, 2);
  EXPECT_EQ(hier.extrapolated_epochs, 4);
}

TEST(LifetimeEngine, DeterministicAcrossRuns) {
  LifetimeOptions opt = quick_options(5);
  opt.remeasure_tolerance_v = 0.002;
  const auto a = run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                    {0, noc::Dir::East}, opt);
  const auto b = run_lifetime_study(scenario(), PolicyKind::kSensorWise, Workload::synthetic(),
                                    {0, noc::Dir::East}, opt);
  EXPECT_EQ(a.measured_epochs, b.measured_epochs);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e)
    for (std::size_t v = 0; v < a.epochs[e].vth_v.size(); ++v)
      EXPECT_EQ(a.epochs[e].vth_v[v], b.epochs[e].vth_v[v]);
}

}  // namespace
}  // namespace nbtinoc::core
