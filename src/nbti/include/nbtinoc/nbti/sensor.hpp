#pragma once
// NBTI sensor model (paper [20]: Singh et al., 45 nm multi-degradation
// sensor).
//
// Each VC buffer of a downstream input port carries one sensor; the bank
// reports the *most degraded* VC, which is all the sensor-wise policy
// consumes (one-hot `most_degraded` marker in the upstream out-VC-state).
// The model reads the buffer's true modeled Vth (initial PV sample plus the
// Eq.1 shift accumulated at the measured duty cycle) and optionally applies
// measurement quantization and Gaussian noise plus a refresh epoch, so the
// robustness of the policy to sensor error can be studied (bench X5).

#include <cstdint>
#include <vector>

#include "nbtinoc/nbti/duty_cycle.hpp"
#include "nbtinoc/nbti/model.hpp"
#include "nbtinoc/sim/clock.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/util/rng.hpp"

namespace nbtinoc::nbti {

struct SensorConfig {
  sim::Cycle epoch_cycles = 1024;  ///< refresh period; readings are stale in between
  double quantization_v = 0.0;     ///< sensor LSB; 0 = ideal (continuous)
  double noise_sigma_v = 0.0;      ///< Gaussian measurement noise; 0 = ideal
  /// Multiplies elapsed simulated seconds before evaluating Eq.1, letting
  /// short simulations emulate months of aging. 1.0 reproduces the paper
  /// (30 ms of simulated time => degradation ranking dominated by the PV
  /// initial Vth, so the most-degraded VC is constant per scenario).
  double time_acceleration = 1.0;
};

/// Index of the highest reading in [first, first + count) of `vths` (the
/// most degraded buffer), ties broken toward the lowest index like a
/// fixed-priority comparator tree. The range is clamped to vths.size();
/// throws std::out_of_range when `first` is past the end.
std::size_t most_degraded_index(const std::vector<double>& vths, std::size_t first,
                                std::size_t count);

/// One sensor per buffer of an input port. Deterministic given its seed.
class NbtiSensorBank {
 public:
  /// `model` must outlive the bank (stored by pointer); the rvalue overload
  /// is deleted so passing a temporary is a compile error.
  NbtiSensorBank(std::vector<double> initial_vths, const NbtiModel& model, OperatingPoint op,
                 SensorConfig config = {}, std::uint64_t noise_seed = 0x5e7501ULL);
  NbtiSensorBank(std::vector<double> initial_vths, NbtiModel&& model, OperatingPoint op,
                 SensorConfig config = {}, std::uint64_t noise_seed = 0x5e7501ULL) = delete;

  std::size_t size() const { return initial_vths_.size(); }

  /// Refreshes measurements if the epoch boundary passed. `elapsed_seconds`
  /// is wall-clock device age (clock.seconds_now() during simulation).
  void update(sim::Cycle now, double elapsed_seconds, const StressTrackerBank& trackers);

  /// True iff update(now, ...) would refresh — the epoch boundary has
  /// passed (or no refresh has happened yet). Lets callers that post-process
  /// readings (fault corruption, health tracking) act exactly once per epoch.
  bool refresh_due(sim::Cycle now) const {
    return !refreshed_once_ || now >= last_refresh_ + config_.epoch_cycles;
  }

  /// Earliest cycle at which refresh_due() turns true — the bank's epoch
  /// fence for the active-set engine's jump. A refresh draws noise RNG and
  /// re-reads elapsed time, so skipping across this cycle would shift the
  /// whole measurement schedule; the engine instead skips *to* it and steps
  /// it normally.
  sim::Cycle next_refresh_cycle() const {
    return refreshed_once_ ? last_refresh_ + config_.epoch_cycles : 0;
  }

  /// Forces a refresh regardless of epoch (used at construction/reset).
  void refresh(double elapsed_seconds, const StressTrackerBank& trackers);

  /// Index of the most degraded VC per the *sensor readings* (ties broken
  /// toward the lowest index, matching a fixed-priority comparator tree).
  std::size_t most_degraded() const { return most_degraded_; }

  /// Most degraded VC within [first, first+count) — the per-vnet comparator
  /// used when the port's VCs are partitioned into virtual networks.
  std::size_t most_degraded_in(std::size_t first, std::size_t count) const;

  /// Last sensor reading for buffer i (quantized/noisy absolute Vth).
  double measured_vth(std::size_t i) const { return measured_vths_.at(i); }
  const std::vector<double>& measured_vths() const { return measured_vths_; }

  /// Exact modeled Vth for buffer i at the given age/duty (no sensor error).
  double true_vth(std::size_t i, double elapsed_seconds, const StressTrackerBank& trackers) const;

  double initial_vth(std::size_t i) const { return initial_vths_.at(i); }
  const SensorConfig& config() const { return config_; }

  // --- checkpoint/restore ----------------------------------------------------
  /// Dynamic fields only (noise RNG, readings, refresh schedule); the
  /// initial Vth vector, model pointer and config come from reconstruction.
  void save(sim::SnapshotWriter& w) const;
  void load(sim::SnapshotReader& r);

 private:
  std::vector<double> initial_vths_;
  const NbtiModel* model_;
  OperatingPoint op_;
  SensorConfig config_;
  util::Xoshiro256 noise_rng_;
  std::vector<double> measured_vths_;
  std::size_t most_degraded_ = 0;
  sim::Cycle last_refresh_ = 0;
  bool refreshed_once_ = false;
};

}  // namespace nbtinoc::nbti
