#include "nbtinoc/core/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "nbtinoc/noc/topology.hpp"

namespace nbtinoc::core {

void PolicyConfig::validate() const {
  if (rr_rotation_period == 0)
    throw std::invalid_argument(
        "PolicyConfig: rr_rotation_period must be >= 1 (the rr candidate is "
        "(now / rr_rotation_period) % num_vcs; 0 divides by zero)");
  if (decision_period == 0)
    throw std::invalid_argument(
        "PolicyConfig: decision_period must be >= 1 (0 would never refresh a "
        "held decision; use 1 for the paper's per-cycle behavior)");
  if (sensor.epoch_cycles == 0)
    throw std::invalid_argument(
        "PolicyConfig: sensor.epoch_cycles must be >= 1 (a zero-length epoch "
        "would refresh sensors every cycle and defeat the Down_Up protocol)");
}

std::map<noc::PortKey, std::vector<double>> sample_network_vths(const noc::NocConfig& config,
                                                                const nbti::PvConfig& pv,
                                                                std::uint64_t seed) {
  nbti::ProcessVariation sampler(pv, seed);
  const auto topo = noc::Topology::create(config);
  std::map<noc::PortKey, std::vector<double>> out;
  for (noc::NodeId id = 0; id < topo->num_routers(); ++id) {
    // Die-position gradient coordinates come from the topology (identical
    // to the mesh's x/(width-1) arithmetic on non-concentrated layouts, so
    // the sampling stream — and every seeded experiment — is unchanged).
    const double xn = topo->norm_x(id);
    const double yn = topo->norm_y(id);
    for (int p = 0; p < topo->ports_per_router(); ++p) {
      const noc::Dir port = static_cast<noc::Dir>(p);
      // An input port exists iff a neighbor feeds it; local ports always
      // exist.
      if (!noc::is_local(port) && topo->neighbor(id, port) == noc::kInvalidNode) continue;
      // One Vth per gateable buffer: a VC bank entry under the partitioned
      // organization, a pool slot under the shared one (same count when
      // partitioned, so established seeds keep their silicon).
      out.emplace(noc::PortKey{id, port},
                  sampler.sample_bank(static_cast<std::size_t>(config.buffers_per_port()), xn, yn));
    }
  }
  return out;
}

PolicyGateController::PolicyGateController(noc::Network& network, PolicyConfig config,
                                           const nbti::NbtiModel& model, nbti::OperatingPoint op,
                                           const nbti::PvConfig& pv, std::uint64_t pv_seed)
    : PolicyGateController(network, config, model, op,
                           sample_network_vths(network.config(), pv, pv_seed),
                           pv_seed ^ 0x6e6f697365ULL /* "noise" */) {}

PolicyGateController::PolicyGateController(noc::Network& network, PolicyConfig config,
                                           const nbti::NbtiModel& model, nbti::OperatingPoint op,
                                           std::map<noc::PortKey, std::vector<double>> initial_vths,
                                           std::uint64_t noise_seed)
    : network_(&network), config_(config), name_(to_string(config.kind)),
      shared_(network.config().shared_buffers()),
      h_quarantined_cycles_(network.stats().intern("fault.quarantined_port_cycles")),
      h_quarantines_(network.stats().intern("fault.quarantines")),
      h_recoveries_(network.stats().intern("fault.recoveries")),
      degradation_scratch_(static_cast<std::size_t>(network.config().buffers_per_port())) {
  // Sanity: every existing input port must be covered with one Vth per
  // gateable buffer (VC bank entry or pool slot).
  const auto& cfg = network.config();
  for (noc::NodeId id = 0; id < network.num_routers(); ++id) {
    for (int p = 0; p < cfg.ports_per_router(); ++p) {
      const noc::Dir port = static_cast<noc::Dir>(p);
      if (!network.router(id).has_input(port)) continue;
      const auto it = initial_vths.find(noc::PortKey{id, port});
      if (it == initial_vths.end() ||
          it->second.size() != static_cast<std::size_t>(cfg.buffers_per_port()))
        throw std::invalid_argument("PolicyGateController: initial_vths must cover every port");
    }
  }
  util::SplitMix64 noise_seeder(noise_seed);
  for (auto& [key, bank_vths] : initial_vths) {
    PortContext ctx{bank_vths,
                    nbti::NbtiSensorBank(bank_vths, model, op, config_.sensor,
                                         noise_seeder.next()),
                    /*effective_vths=*/{}};
    ctx.effective_vths.resize(ctx.sensors.size());
    for (std::size_t i = 0; i < ctx.sensors.size(); ++i)
      ctx.effective_vths[i] = ctx.sensors.measured_vth(i);
    ports_.emplace(key, std::move(ctx));
  }
}

const char* PolicyGateController::name() const { return name_.c_str(); }

const nbti::NbtiSensorBank& PolicyGateController::sensors(const noc::PortKey& key) const {
  return ports_.at(key).sensors;
}

const std::vector<double>& PolicyGateController::initial_vths(const noc::PortKey& key) const {
  return ports_.at(key).initial_vths;
}

int PolicyGateController::most_degraded(const noc::PortKey& key) const {
  return static_cast<int>(ports_.at(key).sensors.most_degraded());
}

int PolicyGateController::local_most_degraded(const noc::PortKey& key,
                                              const noc::OutVcStateView& view) const {
  const auto global = ports_.at(key).sensors.most_degraded_in(
      static_cast<std::size_t>(view.first_vc()), static_cast<std::size_t>(view.num_vcs()));
  return static_cast<int>(global) - view.first_vc();
}

noc::GateCommand PolicyGateController::decide(const noc::PortKey& key,
                                              const noc::OutVcStateView& view, bool new_traffic,
                                              sim::Cycle now) {
  // Shared organization: decisions are slot-form and already rate-limited
  // to one gate + one wake per port per cycle, and the VC-indexed hysteresis
  // cache below cannot interpret slot ids — compute fresh every call.
  if (config_.decision_period <= 1 || shared_) return compute(key, view, new_traffic, now);
  // Hysteresis: hold the previous decision for decision_period cycles.
  // Exceptions (asynchronous overrides, both computable from signals the
  // upstream router already has): new traffic while the held command keeps
  // nothing awake, or while the kept VC has meanwhile been allocated —
  // either would stall VA for up to a full period.
  HeldDecision& held = held_[{key, view.first_vc()}];
  const bool kept_unusable =
      held.valid && held.command.enable &&
      (held.command.keep_vc < 0 || view.is_active(held.command.keep_vc));
  const bool must_refresh = !held.valid || now >= held.held_until ||
                            (new_traffic && (!held.command.enable || kept_unusable));
  if (must_refresh) {
    held.command = compute(key, view, new_traffic, now);
    held.held_until = now + config_.decision_period;
    held.valid = true;
  }
  return held.command;
}

int PolicyGateController::effective_local_most_degraded(const PortContext& ctx,
                                                        const noc::OutVcStateView& view) const {
  int worst = 0;
  for (int i = 1; i < view.num_vcs(); ++i)
    if (ctx.effective_vths.at(static_cast<std::size_t>(view.global_vc(i))) >
        ctx.effective_vths.at(static_cast<std::size_t>(view.global_vc(worst))))
      worst = i;
  return worst;
}

noc::GateCommand PolicyGateController::compute(const noc::PortKey& key,
                                               const noc::OutVcStateView& view, bool new_traffic,
                                               sim::Cycle now) {
  // Under fault injection the sensor policies act on the *effective* (last
  // delivered, possibly corrupted) readings, and a quarantined port runs
  // the sensor-free rr fallback: keep gating, stop trusting. With no
  // injector this block is dead and the paths below are bit-identical to
  // the fault-free build.
  // Targeted plans (FaultPlan::targets) confine the storm: an untargeted
  // port never sees corrupted readings or quarantine and must take the
  // fault-free paths below — its effective_vths are never refreshed.
  const bool faulted = injector_ != nullptr && injector_->enabled() &&
                       injector_->plan().targets_port(static_cast<int>(key.router),
                                                     static_cast<int>(key.port));
  const bool sensor_policy = config_.kind == PolicyKind::kSensorWiseNoTraffic ||
                             config_.kind == PolicyKind::kSensorWise ||
                             config_.kind == PolicyKind::kSensorRank ||
                             config_.kind == PolicyKind::kSensorWiseSlotMd;
  if (faulted && sensor_policy) {
    const PortContext& ctx = ports_.at(key);
    if (ctx.quarantined) {
      if (config_.kind == PolicyKind::kSensorWiseSlotMd) {
        // Slot policies fall back to the slot-form sensor-less baseline —
        // the command stays in slot coordinates for this port's pool.
        const noc::SharedBufferPool& pool = *view.unit()->pool();
        const int candidate = static_cast<int>((now / config_.rr_rotation_period) %
                                               static_cast<sim::Cycle>(pool.num_slots()));
        return rr_slot_decide(pool, candidate, new_traffic);
      }
      const int candidate = static_cast<int>((now / config_.rr_rotation_period) %
                                             static_cast<sim::Cycle>(view.num_vcs()));
      return rr_no_sensor_decide(view, candidate, new_traffic);
    }
    switch (config_.kind) {
      case PolicyKind::kSensorWiseNoTraffic:
        return sensor_wise_decide(view, effective_local_most_degraded(ctx, view),
                                  /*bool_traffic=*/true);
      case PolicyKind::kSensorWise:
        return sensor_wise_decide(view, effective_local_most_degraded(ctx, view), new_traffic);
      case PolicyKind::kSensorWiseSlotMd: {
        const noc::SharedBufferPool& pool = *view.unit()->pool();
        degradation_scratch_.resize(ctx.effective_vths.size());
        for (std::size_t s = 0; s < ctx.effective_vths.size(); ++s)
          degradation_scratch_[s] = ctx.effective_vths[s];
        return sensor_wise_slot_decide(pool, degradation_scratch_, new_traffic);
      }
      default: {
        degradation_scratch_.resize(static_cast<std::size_t>(view.num_vcs()));
        for (int i = 0; i < view.num_vcs(); ++i)
          degradation_scratch_[static_cast<std::size_t>(i)] =
              ctx.effective_vths.at(static_cast<std::size_t>(view.global_vc(i)));
        return sensor_rank_decide(view, degradation_scratch_, new_traffic);
      }
    }
  }
  switch (config_.kind) {
    case PolicyKind::kBaseline:
      return noc::GateCommand{};
    case PolicyKind::kRrNoSensor: {
      const int candidate =
          static_cast<int>((now / config_.rr_rotation_period) % static_cast<sim::Cycle>(view.num_vcs()));
      return rr_no_sensor_decide(view, candidate, new_traffic);
    }
    case PolicyKind::kSensorWiseNoTraffic:
      return sensor_wise_decide(view, local_most_degraded(key, view), /*bool_traffic=*/true);
    case PolicyKind::kSensorWise:
      return sensor_wise_decide(view, local_most_degraded(key, view), new_traffic);
    case PolicyKind::kSensorRank: {
      const auto& sensors = ports_.at(key).sensors;
      degradation_scratch_.resize(static_cast<std::size_t>(view.num_vcs()));
      for (int i = 0; i < view.num_vcs(); ++i)
        degradation_scratch_[static_cast<std::size_t>(i)] =
            sensors.measured_vth(static_cast<std::size_t>(view.global_vc(i)));
      return sensor_rank_decide(view, degradation_scratch_, new_traffic);
    }
    case PolicyKind::kSensorWiseSlotMd: {
      const auto& sensors = ports_.at(key).sensors;
      const noc::SharedBufferPool& pool = *view.unit()->pool();
      degradation_scratch_.resize(sensors.size());
      for (std::size_t s = 0; s < sensors.size(); ++s)
        degradation_scratch_[s] = sensors.measured_vth(s);
      return sensor_wise_slot_decide(pool, degradation_scratch_, new_traffic);
    }
    case PolicyKind::kRrSlot: {
      const noc::SharedBufferPool& pool = *view.unit()->pool();
      const int candidate = static_cast<int>((now / config_.rr_rotation_period) %
                                             static_cast<sim::Cycle>(pool.num_slots()));
      return rr_slot_decide(pool, candidate, new_traffic);
    }
  }
  throw std::logic_error("PolicyGateController::decide: bad kind");
}

void PolicyGateController::post_cycle(sim::Cycle now) {
  const bool have_injector = injector_ != nullptr && injector_->enabled();
  // Off-epoch, fault-free calls are strict no-ops (refresh_due is false for
  // every port and update() is epoch-gated with no RNG), so an O(1) fence
  // skips the O(ports) walk until the earliest due epoch. With an injector
  // the walk runs every cycle: quarantine dwell stats accrue per cycle.
  if (!have_injector && now < post_cycle_fence_) return;
  // Sensor refresh (epoch-gated inside the bank) from the authoritative
  // stress trackers; this is the Down_Up link update point.
  const double elapsed = network_->clock().seconds_now();
  sim::Cycle fence = sim::kCycleNever;
  for (auto& [key, ctx] : ports_) {
    const bool epoch = ctx.sensors.refresh_due(now);
    noc::InputUnit& iu = network_->router(key.router).input(key.port);
    // Stress accounting is event-driven: flush this port's lazy intervals
    // through the end of the current cycle before the sensors read the
    // counters, but only at epoch boundaries — update() ignores the
    // trackers otherwise.
    if (epoch) iu.sync_stress(now + 1);
    ctx.sensors.update(now, elapsed, iu.trackers());
    fence = std::min(fence, ctx.sensors.next_refresh_cycle());
    if (!have_injector) continue;
    // Targeted plans confine the fault machinery (and its RNG draws) to
    // the ports the plan names; with an empty target list that is all of
    // them, the pre-locality behavior.
    if (!injector_->plan().targets_port(static_cast<int>(key.router),
                                        static_cast<int>(key.port)))
      continue;
    if (epoch) faulted_epoch(key, ctx);
    if (ctx.quarantined) network_->stats().add(h_quarantined_cycles_);
  }
  post_cycle_fence_ = fence;
}

sim::Cycle PolicyGateController::next_event_cycle(sim::Cycle now) {
  // Fault processes advance every cycle (per-cycle stats, RNG draws), so a
  // skip would change the fault stream: pin the horizon to `now`.
  if (injector_ != nullptr && injector_->enabled()) return now;
  // Otherwise post_cycle only acts at sensor epoch boundaries. The refresh
  // itself must be *stepped* (it reads elapsed time and draws noise RNG at
  // exactly its due cycle), so report the earliest due cycle across ports
  // and let the engine land on it.
  sim::Cycle horizon = sim::kCycleNever;
  for (const auto& [key, ctx] : ports_)
    horizon = std::min(horizon, ctx.sensors.next_refresh_cycle());
  return std::max(horizon, now);
}

void PolicyGateController::faulted_epoch(const noc::PortKey& key, PortContext& ctx) {
  sim::StatRegistry& stats = network_->stats();
  const HealthConfig& h = config_.health;
  const int node = static_cast<int>(key.router);
  const int port = static_cast<int>(key.port);
  const int num_vcs = static_cast<int>(ctx.sensors.size());

  injector_->advance_sensor_epoch(node, port, num_vcs);
  const bool delivered = !injector_->drop_down_up_report();
  if (delivered) {
    ctx.epochs_since_report = 0;
    for (int v = 0; v < num_vcs; ++v)
      ctx.effective_vths[static_cast<std::size_t>(v)] =
          injector_->corrupt_reading(node, port, v, ctx.sensors.measured_vth(static_cast<std::size_t>(v)));
  } else {
    ++ctx.epochs_since_report;
  }

  bool plausible = true;
  for (double v : ctx.effective_vths)
    if (!(v >= h.plausible_min_v && v <= h.plausible_max_v)) {
      plausible = false;
      break;
    }
  // The implausibility streak only advances on delivered reports — a
  // dropped report is the staleness watchdog's evidence, not this one's.
  if (delivered) ctx.implausible_streak = plausible ? 0 : ctx.implausible_streak + 1;

  if (!ctx.quarantined) {
    ctx.healthy_streak = 0;
    if (ctx.epochs_since_report >= h.staleness_epochs ||
        ctx.implausible_streak >= h.implausible_epochs_to_quarantine) {
      ctx.quarantined = true;
      stats.add(h_quarantines_);
    }
  } else if (delivered && plausible) {
    if (++ctx.healthy_streak >= h.healthy_epochs_to_recover) {
      ctx.quarantined = false;
      ctx.healthy_streak = 0;
      ctx.implausible_streak = 0;
      ctx.epochs_since_report = 0;
      stats.add(h_recoveries_);
    }
  } else {
    ctx.healthy_streak = 0;
  }
}

std::size_t PolicyGateController::quarantined_ports() const {
  std::size_t n = 0;
  for (const auto& [key, ctx] : ports_) n += ctx.quarantined ? 1u : 0u;
  return n;
}

double PolicyGateController::effective_vth(const noc::PortKey& key, int vc) const {
  return ports_.at(key).effective_vths.at(static_cast<std::size_t>(vc));
}

void PolicyGateController::save(sim::SnapshotWriter& w) const {
  w.u64(ports_.size());
  for (const auto& [key, ctx] : ports_) {
    ctx.sensors.save(w);
    w.f64_vec(ctx.effective_vths);
    w.b(ctx.quarantined);
    w.i64(ctx.epochs_since_report);
    w.i64(ctx.implausible_streak);
    w.i64(ctx.healthy_streak);
  }
  w.u64(held_.size());
  for (const auto& [key, held] : held_) {
    w.i64(key.first.router);
    w.u8(static_cast<std::uint8_t>(key.first.port));
    w.i64(key.second);
    noc::snapshot_save(w, held.command);
    w.u64(static_cast<std::uint64_t>(held.held_until));
    w.b(held.valid);
  }
  w.u64(static_cast<std::uint64_t>(post_cycle_fence_));
}

void PolicyGateController::load(sim::SnapshotReader& r) {
  r.expect_u64(ports_.size(), "controller port count");
  for (auto& [key, ctx] : ports_) {
    ctx.sensors.load(r);
    ctx.effective_vths = r.f64_vec();
    if (ctx.effective_vths.size() != ctx.initial_vths.size())
      throw sim::SnapshotError("controller: effective-Vth vector length differs from this "
                               "scenario's VC count");
    ctx.quarantined = r.b();
    ctx.epochs_since_report = static_cast<int>(r.i64());
    ctx.implausible_streak = static_cast<int>(r.i64());
    ctx.healthy_streak = static_cast<int>(r.i64());
  }
  held_.clear();
  const std::uint64_t held_count = r.u64();
  for (std::uint64_t i = 0; i < held_count; ++i) {
    noc::PortKey key;
    key.router = static_cast<noc::NodeId>(r.i64());
    key.port = static_cast<noc::Dir>(r.u8());
    const int first_vc = static_cast<int>(r.i64());
    HeldDecision held;
    held.command = noc::snapshot_load_gate_command(r);
    held.held_until = static_cast<sim::Cycle>(r.u64());
    held.valid = r.b();
    held_.emplace(std::make_pair(key, first_vc), held);
  }
  post_cycle_fence_ = static_cast<sim::Cycle>(r.u64());
}

}  // namespace nbtinoc::core
