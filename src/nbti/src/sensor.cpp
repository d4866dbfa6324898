#include "nbtinoc/nbti/sensor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nbtinoc::nbti {

NbtiSensorBank::NbtiSensorBank(std::vector<double> initial_vths, const NbtiModel& model,
                               OperatingPoint op, SensorConfig config, std::uint64_t noise_seed)
    : initial_vths_(std::move(initial_vths)),
      model_(&model),
      op_(op),
      config_(config),
      noise_rng_(noise_seed),
      measured_vths_(initial_vths_.size(), 0.0) {
  if (initial_vths_.empty()) throw std::invalid_argument("NbtiSensorBank: need at least one buffer");
  if (config_.epoch_cycles == 0) config_.epoch_cycles = 1;
  // Initial reading with zero accumulated stress: ranking equals the PV
  // initial-Vth ranking.
  StressTrackerBank empty(initial_vths_.size());
  refresh(0.0, empty);
}

double NbtiSensorBank::true_vth(std::size_t i, double elapsed_seconds,
                                const StressTrackerBank& trackers) const {
  OperatingPoint op = op_;
  op.vth_v = initial_vths_.at(i);
  const double alpha = i < trackers.size() ? trackers.at(i).stress_probability() : 0.0;
  return initial_vths_.at(i) +
         model_->delta_vth(alpha, elapsed_seconds * config_.time_acceleration, op);
}

void NbtiSensorBank::refresh(double elapsed_seconds, const StressTrackerBank& trackers) {
  double worst = -1e9;
  std::size_t worst_idx = 0;
  for (std::size_t i = 0; i < initial_vths_.size(); ++i) {
    double v = true_vth(i, elapsed_seconds, trackers);
    if (config_.noise_sigma_v > 0.0) v += noise_rng_.next_gaussian(0.0, config_.noise_sigma_v);
    if (config_.quantization_v > 0.0)
      v = std::round(v / config_.quantization_v) * config_.quantization_v;
    measured_vths_[i] = v;
    if (v > worst) {
      worst = v;
      worst_idx = i;
    }
  }
  most_degraded_ = worst_idx;
  refreshed_once_ = true;
}

std::size_t most_degraded_index(const std::vector<double>& vths, std::size_t first,
                                std::size_t count) {
  if (first >= vths.size()) throw std::out_of_range("most_degraded_index: bad range");
  const std::size_t last = std::min(first + count, vths.size());
  std::size_t worst = first;
  for (std::size_t i = first + 1; i < last; ++i)
    if (vths[i] > vths[worst]) worst = i;
  return worst;
}

std::size_t NbtiSensorBank::most_degraded_in(std::size_t first, std::size_t count) const {
  return most_degraded_index(measured_vths_, first, count);
}

void NbtiSensorBank::update(sim::Cycle now, double elapsed_seconds,
                            const StressTrackerBank& trackers) {
  if (refreshed_once_ && now < last_refresh_ + config_.epoch_cycles) return;
  last_refresh_ = now;
  refresh(elapsed_seconds, trackers);
}

void NbtiSensorBank::save(sim::SnapshotWriter& w) const {
  sim::save_rng(w, noise_rng_);
  w.f64_vec(measured_vths_);
  w.u64(most_degraded_);
  w.u64(static_cast<std::uint64_t>(last_refresh_));
  w.b(refreshed_once_);
}

void NbtiSensorBank::load(sim::SnapshotReader& r) {
  sim::load_rng(r, noise_rng_);
  measured_vths_ = r.f64_vec();
  if (measured_vths_.size() != initial_vths_.size())
    throw sim::SnapshotError("NbtiSensorBank: snapshot has " +
                             std::to_string(measured_vths_.size()) + " sensors, this bank has " +
                             std::to_string(initial_vths_.size()));
  most_degraded_ = static_cast<std::size_t>(r.u64());
  last_refresh_ = static_cast<sim::Cycle>(r.u64());
  refreshed_once_ = r.b();
}

}  // namespace nbtinoc::nbti
