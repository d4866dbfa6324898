#pragma once
// PolicyGateController: the host that wires the paper's machinery into a
// network — per-input-port NBTI sensor banks (downstream side), the pre-VA
// policy algorithms (upstream side), and the process-variation Vth sampling
// that both share.

#include <cstdint>
#include <map>
#include <vector>

#include "nbtinoc/core/policy.hpp"
#include "nbtinoc/nbti/model.hpp"
#include "nbtinoc/nbti/process_variation.hpp"
#include "nbtinoc/nbti/sensor.hpp"
#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/sim/snapshot.hpp"

namespace nbtinoc::core {

/// Per-port sensor health tracking: when fault injection is active, the
/// controller watches every port's Down_Up reports and demotes ports whose
/// sensors stop making sense. A quarantined port runs the rr-no-sensor
/// fallback (still gates, no longer trusts readings) until its sensors
/// behave again — the graceful half of graceful degradation.
struct HealthConfig {
  /// Plausibility window for a measured Vth (volts). Readings outside it
  /// are treated as sensor failure evidence, not as data. The defaults
  /// bracket any reachable {PV sample + NBTI shift + noise} in this model.
  double plausible_min_v = 0.05;
  double plausible_max_v = 0.60;
  /// Consecutive epochs with an implausible reading before quarantine.
  int implausible_epochs_to_quarantine = 2;
  /// Consecutive epochs without a delivered Down_Up report before the
  /// staleness watchdog quarantines the port.
  int staleness_epochs = 4;
  /// Consecutive healthy epochs (delivered report, all readings plausible)
  /// before a quarantined port is trusted again.
  int healthy_epochs_to_recover = 4;
};

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kSensorWise;
  /// Cycles between advances of the rr-no-sensor active candidate
  /// ("changed cyclically on a time basis").
  sim::Cycle rr_rotation_period = 1;
  /// Pre-VA decisions are recomputed only every this-many cycles and held
  /// in between (hysteresis). 1 reproduces the paper's per-cycle decision;
  /// larger values cut header-PMOS gating transitions at the cost of
  /// occasionally parking the awake VC on a now-busy buffer (latency).
  sim::Cycle decision_period = 1;
  nbti::SensorConfig sensor;
  HealthConfig health;

  /// Throws std::invalid_argument with an actionable message on
  /// configurations that would divide by zero or stall the machinery
  /// (zero rotation/decision periods, zero-length sensor epochs).
  void validate() const;
};

/// Samples one initial Vth per gateable buffer (VC bank entry, or pool slot
/// under the shared organization — same count either way) for every existing
/// input port of a network with the given config. The sampling order is fixed (router id
/// ascending, then port N,S,E,W,L), so the same seed always yields the same
/// silicon — the paper's requirement that every policy sees identical Vth
/// vectors on the same {architecture, traffic} scenario.
std::map<noc::PortKey, std::vector<double>> sample_network_vths(const noc::NocConfig& config,
                                                                const nbti::PvConfig& pv,
                                                                std::uint64_t seed);

class PolicyGateController final : public noc::IGateController {
 public:
  /// `model` must outlive the controller: every per-port sensor bank keeps
  /// a pointer into it. The rvalue overloads are deleted so a temporary
  /// (e.g. `NbtiModel::calibrated(...)` inline) is a compile error instead
  /// of a dangling pointer.
  PolicyGateController(noc::Network& network, PolicyConfig config, const nbti::NbtiModel& model,
                       nbti::OperatingPoint op, const nbti::PvConfig& pv, std::uint64_t pv_seed);
  PolicyGateController(noc::Network& network, PolicyConfig config, nbti::NbtiModel&& model,
                       nbti::OperatingPoint op, const nbti::PvConfig& pv,
                       std::uint64_t pv_seed) = delete;

  /// Builds the controller on explicitly provided per-port Vth vectors
  /// (e.g. partially aged silicon in a lifetime study) instead of sampling
  /// fresh process variation. The map must cover every existing input port.
  PolicyGateController(noc::Network& network, PolicyConfig config, const nbti::NbtiModel& model,
                       nbti::OperatingPoint op,
                       std::map<noc::PortKey, std::vector<double>> initial_vths,
                       std::uint64_t noise_seed = 0x5e7502ULL);
  PolicyGateController(noc::Network& network, PolicyConfig config, nbti::NbtiModel&& model,
                       nbti::OperatingPoint op,
                       std::map<noc::PortKey, std::vector<double>> initial_vths,
                       std::uint64_t noise_seed = 0x5e7502ULL) = delete;

  // IGateController
  noc::GateCommand decide(const noc::PortKey& key, const noc::OutVcStateView& view,
                          bool new_traffic, sim::Cycle now) override;
  void post_cycle(sim::Cycle now) override;
  /// Parked-fabric horizon: with a fault injector installed the fault
  /// processes draw RNG every cycle, so the horizon is pinned to `now`
  /// (no jump can span a cycle); otherwise the only autonomous events are
  /// the per-port sensor refresh epochs, so the horizon is the earliest
  /// next_refresh_cycle() across ports.
  sim::Cycle next_event_cycle(sim::Cycle now) override;
  const char* name() const override;

  /// Installs this controller on the network it was built for.
  void attach() { network_->set_gate_controller(this); }

  /// Routes every Down_Up refresh through the injector's sensor fault
  /// process and arms the per-port health watchdogs (non-owning; nullptr
  /// to detach). With no injector installed the controller's behavior is
  /// bit-identical to a build without this subsystem.
  void set_fault_injector(sim::FaultInjector* injector) { injector_ = injector; }
  sim::FaultInjector* fault_injector() { return injector_; }

  /// True while the port's sensors are distrusted and the rr fallback runs.
  bool quarantined(const noc::PortKey& key) const { return ports_.at(key).quarantined; }
  std::size_t quarantined_ports() const;
  /// The reading the policy actually acts on (corrupted + possibly stale
  /// under faults; equals sensors().measured_vth otherwise).
  double effective_vth(const noc::PortKey& key, int vc) const;

  /// Checkpoint of the controller's dynamic state: per-port sensor banks
  /// (noise RNG included), last-delivered effective readings, health-ladder
  /// counters, the hysteresis cache and the post-cycle fence. Initial Vth
  /// vectors and stat handles are reconstructed by the constructor, so the
  /// loading controller must be built from the same scenario.
  void save(sim::SnapshotWriter& w) const;
  void load(sim::SnapshotReader& r);

  PolicyKind kind() const { return config_.kind; }
  const nbti::NbtiSensorBank& sensors(const noc::PortKey& key) const;
  const std::vector<double>& initial_vths(const noc::PortKey& key) const;
  /// Most degraded VC over the whole port (reporting).
  int most_degraded(const noc::PortKey& key) const;
  /// Most degraded VC within the view's subrange, in view-local coordinates
  /// (what the per-vnet Down_Up comparator reports).
  int local_most_degraded(const noc::PortKey& key, const noc::OutVcStateView& view) const;

 private:
  struct PortContext {
    std::vector<double> initial_vths;
    nbti::NbtiSensorBank sensors;
    /// What the upstream router believes the readings are: the last
    /// *delivered* (possibly corrupted) Down_Up report. Mirrors
    /// sensors.measured_vth exactly while no injector is installed.
    std::vector<double> effective_vths;
    bool quarantined = false;
    int epochs_since_report = 0;  ///< staleness watchdog input
    int implausible_streak = 0;   ///< consecutive epochs with bad readings
    int healthy_streak = 0;       ///< consecutive clean epochs (recovery)
  };

  noc::GateCommand compute(const noc::PortKey& key, const noc::OutVcStateView& view,
                           bool new_traffic, sim::Cycle now);
  /// most_degraded_in over effective (fault-corrupted) readings, same
  /// lowest-index tie-break as the sensor bank's comparator tree.
  int effective_local_most_degraded(const PortContext& ctx, const noc::OutVcStateView& view) const;
  /// One Down_Up refresh epoch of `key` under the installed injector:
  /// fault-process step, report delivery/corruption, health bookkeeping.
  void faulted_epoch(const noc::PortKey& key, PortContext& ctx);

  noc::Network* network_;
  PolicyConfig config_;
  std::string name_;
  /// Shared (DAMQ) organization: sensor banks index pool slots instead of
  /// VC bank entries, slot policies dispatch, and the VC-indexed hysteresis
  /// cache is bypassed.
  bool shared_ = false;
  std::map<noc::PortKey, PortContext> ports_;
  sim::FaultInjector* injector_ = nullptr;

  /// Earliest sensor-refresh epoch across ports: fault-free post_cycle
  /// calls before this cycle are provable no-ops and return in O(1) — the
  /// controller-side epoch fence of the event-driven schedulers.
  sim::Cycle post_cycle_fence_ = 0;

  // Interned stat handles (fault.quarantined_port_cycles is bumped every
  // cycle per quarantined port — a hot-path site under fault injection).
  sim::CounterHandle h_quarantined_cycles_;
  sim::CounterHandle h_quarantines_;
  sim::CounterHandle h_recoveries_;

  /// Scratch for the sensor-rank degradation vector (sized once; the
  /// per-decision fill must not allocate).
  std::vector<double> degradation_scratch_;

  /// Hysteresis cache, keyed by (port, vnet subrange start).
  struct HeldDecision {
    noc::GateCommand command;
    sim::Cycle held_until = 0;
    bool valid = false;
  };
  std::map<std::pair<noc::PortKey, int>, HeldDecision> held_;
};

}  // namespace nbtinoc::core
