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
    ctx.effective_vths = ctx.sensors.measured_vths();
    post_cycle_fence_ = std::min(post_cycle_fence_, ctx.sensors.next_refresh_cycle());
    ports_.emplace(key, std::move(ctx));
  }
  ports_per_router_ = cfg.ports_per_router();
  port_index_.assign(static_cast<std::size_t>(network.num_routers() * ports_per_router_), nullptr);
  for (auto& [key, ctx] : ports_) {
    const int p = static_cast<int>(key.port);
    if (key.router >= 0 && key.router < network.num_routers() && p >= 0 && p < ports_per_router_)
      port_index_[static_cast<std::size_t>(key.router * ports_per_router_ + p)] = &ctx;
  }
  const bool memoized = !shared_ && config_.decision_period <= 1 &&
                        (config_.kind == PolicyKind::kSensorWise ||
                         config_.kind == PolicyKind::kSensorWiseNoTraffic);
  if (memoized) {
    memo_vcs_ = cfg.total_vcs();
    memo_.resize(port_index_.size() * static_cast<std::size_t>(memo_vcs_));
  }
}

const PolicyGateController::PortContext& PolicyGateController::context(
    const noc::PortKey& key) const {
  const int p = static_cast<int>(key.port);
  const long i = static_cast<long>(key.router) * ports_per_router_ + p;
  if (p < 0 || p >= ports_per_router_ || i < 0 || i >= static_cast<long>(port_index_.size()) ||
      port_index_[static_cast<std::size_t>(i)] == nullptr)
    throw std::out_of_range("PolicyGateController: port not covered");
  return *port_index_[static_cast<std::size_t>(i)];
}

const char* PolicyGateController::name() const { return name_.c_str(); }

const nbti::NbtiSensorBank& PolicyGateController::sensors(const noc::PortKey& key) const {
  return context(key).sensors;
}

const std::vector<double>& PolicyGateController::initial_vths(const noc::PortKey& key) const {
  return context(key).initial_vths;
}

int PolicyGateController::most_degraded(const noc::PortKey& key) const {
  return static_cast<int>(context(key).sensors.most_degraded());
}

int PolicyGateController::local_most_degraded(const noc::PortKey& key,
                                              const noc::OutVcStateView& view) const {
  const auto global = context(key).sensors.most_degraded_in(
      static_cast<std::size_t>(view.first_vc()), static_cast<std::size_t>(view.num_vcs()));
  return static_cast<int>(global) - view.first_vc();
}

bool PolicyGateController::faulted(const noc::PortKey& key) const {
  return injector_ != nullptr &&
         injector_->plan().reaches(static_cast<int>(key.router), static_cast<int>(key.port));
}

noc::GateCommand PolicyGateController::memo_decide(const noc::PortKey& key,
                                                   const noc::OutVcStateView& view,
                                                   bool traffic) {
  const PortContext& ctx = context(key);  // also validates the key
  DecideMemo& memo = memo_[static_cast<std::size_t>(
      (key.router * ports_per_router_ + static_cast<int>(key.port)) * memo_vcs_ + view.first_vc())];
  const int num_vcs = view.num_vcs();
  const sim::Cycle stamp = ctx.sensors.next_refresh_cycle();
  if (!memo.md_valid || memo.md_stamp != stamp || memo.num_vcs != num_vcs) {
    memo.md = local_most_degraded(key, view);
    memo.md_stamp = stamp;
    memo.num_vcs = num_vcs;
    memo.md_valid = true;
    memo.command_valid = false;
  }
  std::uint64_t active = 0;
  for (int vc = 0; vc < num_vcs && vc < 64; ++vc)
    if (view.is_active(vc)) active |= std::uint64_t{1} << vc;
  if (!memo.command_valid || memo.active != active || memo.traffic != traffic) {
    memo.command = sensor_wise_decide(view, memo.md, traffic);
    memo.active = active;
    memo.traffic = traffic;
    memo.command_valid = true;
  }
  return memo.command;
}

noc::GateCommand PolicyGateController::decide(const noc::PortKey& key,
                                              const noc::OutVcStateView& view, bool new_traffic,
                                              sim::Cycle now) {
  // Shared organization: decisions are slot-form and already rate-limited
  // to one gate + one wake per port per cycle, and the VC-indexed hysteresis
  // cache below cannot interpret slot ids — compute fresh every call.
  if (config_.decision_period <= 1 || shared_) {
    // The per-cycle sensor-wise family on fault-free readings is memoized
    // (see DecideMemo); faulted ports act on effective readings and the
    // quarantine ladder, so they keep computing, as does a view range
    // outside the port (compute() reports it).
    if (!memo_.empty() && view.first_vc() >= 0 && view.first_vc() < memo_vcs_ && !faulted(key))
      return memo_decide(key, view,
                         config_.kind == PolicyKind::kSensorWiseNoTraffic || new_traffic);
    return compute(key, view, new_traffic, now);
  }
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

noc::GateCommand PolicyGateController::compute(const noc::PortKey& key,
                                               const noc::OutVcStateView& view, bool new_traffic,
                                               sim::Cycle now) {
  // The readings a sensor policy acts on: on a port the fault plan reaches,
  // the *effective* ones (the last delivered, possibly corrupted Down_Up
  // report); elsewhere the sensor bank's own, which is what the effective
  // readings mirror until a fault lands. A quarantined port stops trusting
  // its readings and runs the sensor-free rr fallback of its organization:
  // keep gating, stop trusting.
  PolicyKind kind = config_.kind;
  const std::vector<double>* vths = nullptr;
  if (reads_sensors(kind)) {
    const PortContext& ctx = context(key);
    const bool reached = faulted(key);
    vths = reached ? &ctx.effective_vths : &ctx.sensors.measured_vths();
    if (reached && ctx.quarantined)
      kind = kind == PolicyKind::kSensorWiseSlotMd ? PolicyKind::kRrSlot : PolicyKind::kRrNoSensor;
  }
  switch (kind) {
    case PolicyKind::kBaseline:
      return noc::GateCommand{};
    case PolicyKind::kRrNoSensor: {
      const int candidate =
          static_cast<int>((now / config_.rr_rotation_period) % static_cast<sim::Cycle>(view.num_vcs()));
      return rr_no_sensor_decide(view, candidate, new_traffic);
    }
    case PolicyKind::kSensorWiseNoTraffic:
    case PolicyKind::kSensorWise: {
      const auto first = static_cast<std::size_t>(view.first_vc());
      const auto md =
          nbti::most_degraded_index(*vths, first, static_cast<std::size_t>(view.num_vcs()));
      return sensor_wise_decide(view, static_cast<int>(md - first),
                                kind == PolicyKind::kSensorWiseNoTraffic || new_traffic);
    }
    case PolicyKind::kSensorRank: {
      degradation_scratch_.resize(static_cast<std::size_t>(view.num_vcs()));
      for (int i = 0; i < view.num_vcs(); ++i)
        degradation_scratch_[static_cast<std::size_t>(i)] =
            vths->at(static_cast<std::size_t>(view.global_vc(i)));
      return sensor_rank_decide(view, degradation_scratch_, new_traffic);
    }
    case PolicyKind::kSensorWiseSlotMd:
      return sensor_wise_slot_decide(*view.unit()->pool(), *vths, new_traffic);
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
  // Off-epoch calls without a control-plane storm are strict no-ops
  // (refresh_due is false for every port and update() is epoch-gated with
  // no RNG), so an O(1) fence skips the O(ports) walk until the earliest due
  // epoch. Under a storm the walk runs every cycle: quarantine dwell stats
  // accrue per cycle.
  if (!control_plan() && now < post_cycle_fence_) return;
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
    // The fault machinery (and its RNG draws) runs only on the ports the
    // plan reaches.
    if (!faulted(key)) continue;
    if (epoch) faulted_epoch(key, ctx);
    if (ctx.quarantined) network_->stats().add(h_quarantined_cycles_);
  }
  post_cycle_fence_ = fence;
}

sim::Cycle PolicyGateController::next_event_cycle(sim::Cycle now) {
  // Control-plane fault processes advance every cycle (per-cycle stats, RNG
  // draws), so a skip would change the fault stream: pin the horizon to
  // `now`.
  if (control_plan()) return now;
  // Otherwise post_cycle only acts at sensor epoch boundaries. The refresh
  // itself must be *stepped* (it reads elapsed time and draws noise RNG at
  // exactly its due cycle), so report the earliest due cycle across ports —
  // the fence post_cycle keeps — and let the engine land on it.
  return std::max(post_cycle_fence_, now);
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
  return context(key).effective_vths.at(static_cast<std::size_t>(vc));
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
  memo_.assign(memo_.size(), DecideMemo{});
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
