#pragma once
// Multi-year lifetime study: closes the loop the single-shot experiment
// leaves open.
//
// run_experiment measures duty cycles on *fresh* silicon; over months of
// operation, however, the accumulated Vth shift changes the sensor ranking,
// the policies react to the new most-degraded VC, and wear redistributes.
// The lifetime study alternates (simulate an epoch's traffic -> measure
// per-buffer duty -> advance every buffer's Vth by the epoch length via the
// equivalent-age method -> re-seed the sensors with the aged silicon) and
// records the trajectory. This is the experiment the paper's methodology is
// ultimately for: which policy keeps the worst buffer inside its Vth budget
// the longest.
//
// The loop is hierarchical. The only thing an epoch's simulation produces
// is the per-buffer duty distribution, and as long as the silicon the
// policy reacts to has not drifted appreciably since the last measurement
// that distribution is unchanged (the schedulers are deterministic
// functions of {silicon, workload statistics}). So an epoch either runs a
// cycle-accurate measurement window or, once remeasure_tolerance_v > 0,
// advances the closed-form reaction–diffusion ΔVth (AgingForecaster) at the
// last measured duty without touching the network, re-measuring when any
// buffer's drift since the last window crosses the tolerance. Weeks to
// months of virtual time then cost one closed-form evaluation per buffer
// per epoch — the >=50x wall-clock lever gated by BENCH_lifetime.json. The
// default tolerance 0 measures every epoch.

#include <map>
#include <vector>

#include "nbtinoc/core/experiment.hpp"

namespace nbtinoc::core {

struct LifetimeOptions {
  int epochs = 12;
  double years_per_epoch = 0.25;          ///< 12 x 0.25 = a 3-year study
  sim::Cycle measure_cycles_per_epoch = 60'000;
  /// Re-measure once any buffer's ΔVth has grown by at least this much
  /// (volts) since the silicon of the last measurement window. 0 measures
  /// every epoch; larger values trade trajectory fidelity for wall-clock
  /// (~0.002, well under the PV sigma, keeps sensor rankings faithful).
  double remeasure_tolerance_v = 0.0;
  /// Hard cap on consecutive closed-form epochs, so a tolerance set too
  /// loose cannot extrapolate an entire study from one window.
  int max_extrapolated_epochs = 32;
  /// Policy/sensor/nbti knobs. The study owns the silicon and the cycle
  /// counts, so initial_vths must be empty and paper_scale off; the
  /// per-run outputs (capture_trace, snapshot_out, resume_from) must be
  /// unset, since every epoch is its own run.
  RunnerOptions runner;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// State of the sampled port after one epoch.
struct LifetimeEpoch {
  double years_elapsed = 0.0;
  int most_degraded = 0;                 ///< per the aged silicon
  std::vector<double> vth_v;             ///< absolute Vth per VC (pool slot when shared)
  std::vector<double> duty_percent;      ///< duty of the epoch's measurement window
};

struct LifetimeResult {
  noc::PortKey sampled_port;
  /// Extrapolated epochs carry the duty of the last measurement window.
  std::vector<LifetimeEpoch> epochs;
  /// Worst / best final Vth across the sampled port's VCs.
  double final_worst_vth_v = 0.0;
  double final_spread_v = 0.0;
  /// How many epochs changed the most-degraded VC (wear migration).
  int md_changes = 0;

  /// Full final silicon (for chaining studies).
  std::map<noc::PortKey, std::vector<double>> final_vths;

  int measured_epochs = 0;      ///< cycle-accurate windows actually simulated
  int extrapolated_epochs = 0;  ///< epochs advanced in closed form only
};

/// Runs the measure/extrapolate epoch loop. A measured epoch's traffic is
/// re-seeded per epoch (distinct stream, same statistics); the PV seed
/// fixes the fresh silicon at year 0, sampled on noc_config_of(scenario),
/// so every topology and buffer organization is covered.
LifetimeResult run_lifetime_study(sim::Scenario scenario, PolicyKind policy,
                                  const Workload& workload, noc::PortKey sampled_port,
                                  const LifetimeOptions& options = {});

}  // namespace nbtinoc::core
