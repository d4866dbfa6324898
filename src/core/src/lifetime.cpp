#include "nbtinoc/core/lifetime.hpp"

#include <algorithm>
#include <stdexcept>

namespace nbtinoc::core {

void LifetimeOptions::validate() const {
  if (epochs < 1) throw std::invalid_argument("LifetimeOptions: epochs < 1");
  if (years_per_epoch <= 0.0) throw std::invalid_argument("LifetimeOptions: years_per_epoch <= 0");
  if (measure_cycles_per_epoch == 0)
    throw std::invalid_argument(
        "LifetimeOptions: measure_cycles_per_epoch must be >= 1 — each measured epoch needs a "
        "window to sample duty cycles from");
  if (remeasure_tolerance_v < 0.0)
    throw std::invalid_argument(
        "LifetimeOptions: remeasure_tolerance_v < 0 (use 0 to measure every epoch)");
  if (max_extrapolated_epochs < 1)
    throw std::invalid_argument("LifetimeOptions: max_extrapolated_epochs < 1");
  // Runner fields the study would silently override or share across epochs.
  if (!runner.initial_vths.empty())
    throw std::invalid_argument(
        "LifetimeOptions: runner.initial_vths must be empty (the study samples the year-0 "
        "silicon and ages it)");
  if (runner.paper_scale)
    throw std::invalid_argument(
        "LifetimeOptions: runner.paper_scale must be off (it would replace "
        "measure_cycles_per_epoch)");
  if (runner.capture_trace != nullptr)
    throw std::invalid_argument(
        "LifetimeOptions: runner.capture_trace must be null (every epoch would write one trace)");
  if (runner.snapshot_out != nullptr)
    throw std::invalid_argument(
        "LifetimeOptions: runner.snapshot_out must be null (every epoch would overwrite it)");
  if (runner.resume_from)
    throw std::invalid_argument(
        "LifetimeOptions: runner.resume_from must be empty (one snapshot cannot resume every "
        "epoch)");
}

LifetimeResult run_lifetime_study(sim::Scenario scenario, PolicyKind policy,
                                  const Workload& workload, noc::PortKey sampled_port,
                                  const LifetimeOptions& options) {
  options.validate();
  scenario.warmup_cycles = options.measure_cycles_per_epoch / 5;
  scenario.measure_cycles = options.measure_cycles_per_epoch;

  // Year-0 silicon (fresh PV sample) plus accumulated shifts tracked apart,
  // so the Eq.1 operating point keeps using the fabrication-time Vth.
  using Banks = std::map<noc::PortKey, std::vector<double>>;
  const Banks fresh =
      sample_network_vths(noc_config_of(scenario), pv_config_of(scenario), scenario.pv_seed());
  if (!fresh.count(sampled_port))
    throw std::invalid_argument("run_lifetime_study: sampled port does not exist");
  Banks dvth;             // accumulated shift
  Banks dvth_at_measure;  // shift when the last window was measured
  Banks duty;             // last measured duty (percent)
  for (const auto& [key, bank] : fresh) dvth[key].assign(bank.size(), 0.0);

  const nbti::NbtiModel model = calibrated_model_of(scenario, options.runner.nbti);
  const nbti::AgingForecaster forecaster(model, operating_point_of(scenario));
  const double epoch_seconds = nbti::AgingForecaster::years_to_seconds(options.years_per_epoch);

  // Largest ΔVth growth of any buffer since the last measurement.
  const auto drift_since_measure = [&] {
    double drift = 0.0;
    for (const auto& [key, shifts] : dvth) {
      const auto& at_measure = dvth_at_measure.at(key);
      for (std::size_t i = 0; i < shifts.size(); ++i)
        drift = std::max(drift, shifts[i] - at_measure[i]);
    }
    return drift;
  };

  LifetimeResult result;
  result.sampled_port = sampled_port;

  int previous_md = -1;
  int epochs_since_measure = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const bool must_measure = result.measured_epochs == 0 ||
                              drift_since_measure() >= options.remeasure_tolerance_v ||
                              epochs_since_measure >= options.max_extrapolated_epochs;
    if (must_measure) {
      // One cycle-accurate window on the current silicon (fresh + shift),
      // with a fresh traffic stream per epoch (same statistics).
      RunnerOptions ropt = options.runner;
      ropt.policy.kind = policy;
      for (const auto& [key, bank] : fresh) {
        auto& aged = ropt.initial_vths[key];
        aged.resize(bank.size());
        for (std::size_t i = 0; i < bank.size(); ++i) aged[i] = bank[i] + dvth.at(key)[i];
      }
      Workload epoch_workload = workload;
      epoch_workload.seed_salt ^= 0x11d0ULL * static_cast<std::uint64_t>(epoch + 1);
      const RunResult run = run_experiment(scenario, policy, epoch_workload, ropt);
      for (const auto& [key, bank] : fresh) duty[key] = run.ports.at(key).duty_percent;
      dvth_at_measure = dvth;
      ++result.measured_epochs;
      epochs_since_measure = 0;
    } else {
      ++result.extrapolated_epochs;
      ++epochs_since_measure;
    }

    // Advance every buffer by the epoch length at its (last measured) duty.
    for (auto& [key, shifts] : dvth) {
      const auto& port_duty = duty.at(key);
      for (std::size_t i = 0; i < shifts.size(); ++i)
        shifts[i] = forecaster.advance_dvth(shifts[i], port_duty[i] / 100.0, epoch_seconds,
                                            fresh.at(key)[i]);
    }

    // Record the sampled port.
    LifetimeEpoch record;
    record.years_elapsed = (epoch + 1) * options.years_per_epoch;
    record.duty_percent = duty.at(sampled_port);
    record.vth_v.resize(dvth.at(sampled_port).size());
    for (std::size_t i = 0; i < record.vth_v.size(); ++i)
      record.vth_v[i] = fresh.at(sampled_port)[i] + dvth.at(sampled_port)[i];
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
  for (const auto& [key, bank] : fresh) {
    auto& out = result.final_vths[key];
    out.resize(bank.size());
    for (std::size_t i = 0; i < bank.size(); ++i) out[i] = bank[i] + dvth.at(key)[i];
  }
  return result;
}

}  // namespace nbtinoc::core
