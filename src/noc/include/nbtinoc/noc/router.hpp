#pragma once
// Three-stage virtual-channel wormhole router (Garnet-style, paper §III):
//   stage 1: buffer write + route compute (BW/RC)
//   stage 2: virtual-channel allocation + switch allocation (VA/SA)
//   stage 3: switch traversal + link traversal (ST/LT)
//
// VC allocation for a downstream input port runs *here*, in the upstream
// router — the architectural fact both NBTI policies exploit. No packet
// mixing: a VC holds flits of a single packet between allocate and tail.
//
// Port space: 4 cardinal ports plus one local (injection/ejection) port per
// attached NI — Topology::ports_per_router() in total. Non-concentrated
// topologies have exactly one local port (Dir::Local), reproducing the
// classic 5-port router.
//
// The RC stage is table-driven: one Topology::route() load per arriving
// head flit replaces the per-flit coordinate arithmetic, and carries the
// dateline VC class the packet needs downstream (torus/ring wrap-link
// deadlock avoidance; see topology.hpp).
//
// The router binds to its network's StatRegistry at construction: counter
// names are interned once into dense handles, and the per-cycle stages bump
// those handles directly. Arbitration request vectors are fixed-capacity
// scratch bitsets owned by the router. Together with the ring-buffered
// channels this makes the steady-state cycle kernel allocation-free and
// string-hash-free.

#include <memory>
#include <vector>

#include "nbtinoc/noc/channel.hpp"
#include "nbtinoc/noc/config.hpp"
#include "nbtinoc/noc/flit.hpp"
#include "nbtinoc/noc/input_unit.hpp"
#include "nbtinoc/noc/output_unit.hpp"
#include "nbtinoc/noc/topology.hpp"
#include "nbtinoc/sim/stat_registry.hpp"

namespace nbtinoc::noc {

class Router {
 public:
  /// `stats` must outlive the router: counter handles are interned against
  /// it here (wiring time) and used by every pipeline stage. `topology`
  /// (non-owning, must outlive the router) supplies the route table; pass
  /// nullptr — the standalone-unit-test convenience — and the router builds
  /// and owns its own from `config`.
  Router(NodeId id, const NocConfig& config, sim::StatRegistry& stats,
         const Topology* topology = nullptr);

  NodeId id() const { return id_; }
  int num_ports() const { return ports_; }

  // --- wiring (performed once by Network) -----------------------------------
  /// Output side toward `dir`: the downstream router's input unit, the flit
  /// link to it, and the credit link coming back.
  void wire_output(Dir dir, InputUnit* downstream_iu, Channel<Flit>* flit_out,
                   Channel<Credit>* credit_in);
  /// Input side from `dir`: the flit link in and the credit link back to the
  /// upstream entity.
  void wire_input(Dir dir, Channel<Flit>* flit_in, Channel<Credit>* credit_out);
  /// Local output `dir` = ejection channel into that slot's NI.
  void wire_ejection(Dir dir, Channel<Flit>* eject_out);
  /// Single-NI convenience: ejection on Dir::Local.
  void wire_ejection(Channel<Flit>* eject_out) { wire_ejection(Dir::Local, eject_out); }

  bool has_input(Dir dir) const { return inputs_[static_cast<std::size_t>(dir)] != nullptr; }
  bool has_output(Dir dir) const { return outputs_[static_cast<std::size_t>(dir)] != nullptr; }
  InputUnit& input(Dir dir) { return *inputs_.at(static_cast<std::size_t>(dir)); }
  const InputUnit& input(Dir dir) const { return *inputs_.at(static_cast<std::size_t>(dir)); }
  OutputUnit& output(Dir dir) { return *outputs_.at(static_cast<std::size_t>(dir)); }
  const OutputUnit& output(Dir dir) const { return *outputs_.at(static_cast<std::size_t>(dir)); }

  // --- wiring views (read-only; used by the invariant checker) ---------------
  const Channel<Flit>* flit_out_link(Dir dir) const {
    return flit_out_[static_cast<std::size_t>(dir)];
  }
  // Mutable channel access for the network's structural-fault drain (purge
  // by packet id, dead-link clearing). Never used on the healthy path.
  Channel<Flit>* flit_out_link_mut(Dir dir) { return flit_out_[static_cast<std::size_t>(dir)]; }
  Channel<Flit>* flit_in_link_mut(Dir dir) { return flit_in_[static_cast<std::size_t>(dir)]; }
  Channel<Credit>* credit_in_link_mut(Dir dir) {
    return credit_in_[static_cast<std::size_t>(dir)];
  }
  Channel<Credit>* credit_out_link_mut(Dir dir) {
    return credit_out_[static_cast<std::size_t>(dir)];
  }
  Channel<Flit>* eject_out_link_mut(Dir dir) { return eject_out_[static_cast<std::size_t>(dir)]; }
  const Channel<Credit>* credit_in_link(Dir dir) const {
    return credit_in_[static_cast<std::size_t>(dir)];
  }
  const Channel<Flit>* flit_in_link(Dir dir) const {
    return flit_in_[static_cast<std::size_t>(dir)];
  }
  const InputUnit* downstream_input(Dir dir) const {
    return downstream_iu_[static_cast<std::size_t>(dir)];
  }

  /// True if any input VC holds a routed head flit toward `out` that has no
  /// output VC yet — is_new_traffic_outport_x() of Algorithms 1 and 2.
  bool has_new_traffic_toward(Dir out, sim::Cycle now) const;
  /// Same, restricted to packets of one virtual network.
  bool has_new_traffic_toward(Dir out, int vnet, sim::Cycle now) const;
  /// Same, further restricted to one downstream dateline class (the
  /// per-class gating decision's traffic signal).
  bool has_new_traffic_toward(Dir out, int vnet, int cls, sim::Cycle now) const;

  // --- routing ---------------------------------------------------------------
  /// The RC decision for a flit arriving at `in_port`: the plain table load
  /// under DOR; under the turn-model modes, adaptive-class packets pick the
  /// least-stressed admissible output (per-output forwarded-flit counters,
  /// lowest port on ties); on a degraded fabric, the up*/down* candidate
  /// set replaces the turn model. Deterministic given router state, so both
  /// scheduler modes agree bit for bit.
  RouteEntry route_for(Dir in_port, const Flit& flit) const;

  /// Cumulative flits forwarded through cardinal output `out` — the
  /// "stress" signal of the least-stressed adaptive selection and the
  /// reroute diagnostics.
  std::uint64_t port_forwarded(Dir out) const {
    return port_forwarded_[static_cast<std::size_t>(out)];
  }

  // --- structural-fault bookkeeping ------------------------------------------
  /// A dead input port never gates, wakes or receives again (its VCs were
  /// purged and parked in Recovery by the network's kill protocol); a dead
  /// router additionally drops out of every pipeline stage.
  void mark_input_port_dead(Dir d) { port_dead_[static_cast<std::size_t>(d)] = 1; }
  bool input_port_dead(Dir d) const { return port_dead_[static_cast<std::size_t>(d)] != 0; }
  void mark_dead() { dead_ = true; }
  bool dead() const { return dead_; }

  /// Re-runs RC (against the regenerated tables / candidate sets) for every
  /// buffered head flit still waiting for VA. Called once per kill, after
  /// the purge pass has removed everything illegal.
  void reroute_waiting_heads(sim::Cycle now);

  // --- pipeline stages (invoked by Network in order) -------------------------
  /// Stage 2a: one output-VC allocation per output port per cycle.
  void va_stage(sim::Cycle now);
  /// Stage 2b/3: separable switch allocation, then switch+link traversal.
  void sa_st_stage(sim::Cycle now);
  /// Stage 1 for arriving flits; also drains returning credits.
  void accept_arrivals(sim::Cycle now);

  /// Flushes the event-driven NBTI accounting of every input port through
  /// cycle `through` (exclusive); see InputUnit::sync_stress.
  void sync_stress(sim::Cycle through);

  const NocConfig& config() const { return config_; }
  const Topology& topology() const { return *topo_; }

  /// Stat key of this router's per-cycle flit movements
  /// ("noc.router<id>.flits_out"), used for per-tile power attribution.
  const std::string& flits_out_stat_key() const { return flits_out_key_; }

  /// True when any input port holds an Active VC — the O(ports) gate in
  /// front of the VA/SA scans (see va_stage), and the active-set
  /// scheduler's "this router still has datapath work" signal.
  bool any_busy_input() const;

  /// True when no inbound flit or credit channel of this router carries a
  /// payload: together with any_busy_input() == false this proves
  /// accept_arrivals() would be a no-op — half of the scheduler's
  /// park-eligibility condition.
  bool inbound_links_quiet() const;

  // --- checkpoint/restore ----------------------------------------------------
  /// Per-port input/output unit state plus the adaptive-routing stress
  /// signal and structural death flags. Channels are serialized by the
  /// network (their owner); arbitration scratch is per-cycle and skipped.
  void save(sim::SnapshotWriter& w) const;
  void load(sim::SnapshotReader& r);

 private:
  NodeId id_;
  NocConfig config_;
  std::unique_ptr<Topology> owned_topology_;  ///< standalone routers only
  const Topology* topo_;
  int ports_;
  std::string flits_out_key_;

  // Interned stat handles (resolved once against stats_ at construction).
  sim::StatRegistry* stats_;
  sim::CounterHandle h_va_grants_;
  sim::CounterHandle h_flits_forwarded_;
  sim::CounterHandle h_flits_ejected_router_;
  sim::CounterHandle h_flits_out_;

  std::vector<std::unique_ptr<InputUnit>> inputs_;
  std::vector<std::unique_ptr<OutputUnit>> outputs_;

  /// Turn-model least-stressed selection on the healthy mesh.
  RouteEntry turn_model_route(const Flit& flit) const;
  /// Up*/down* least-stressed selection on a degraded fabric.
  RouteEntry degraded_adaptive_route(Dir in_port, const Flit& flit, RouteEntry table) const;

  // Wiring (non-owning; channels owned by Network). All sized ports_;
  // ejection channels are indexed by local port, null on cardinal slots.
  std::vector<InputUnit*> downstream_iu_;
  std::vector<Channel<Flit>*> flit_out_;
  std::vector<Channel<Credit>*> credit_in_;
  std::vector<Channel<Flit>*> flit_in_;
  std::vector<Channel<Credit>*> credit_out_;
  std::vector<Channel<Flit>*> eject_out_;

  std::vector<std::uint64_t> port_forwarded_;  ///< per-port forwarded flits (stress signal)
  std::vector<std::uint8_t> port_dead_;        ///< structurally dead input ports
  bool dead_ = false;                          ///< whole router killed

  // Per-cycle arbitration scratch (sized once here; cleared, never
  // reallocated, inside the stages).
  RequestSet va_requests_;     ///< flattened (input port, VC) VA requests
  RequestSet vnet_has_free_;   ///< per-(vnet, class) free-downstream-VC flags
  RequestSet sa_ready_;        ///< per-VC SA readiness of one input port
  RequestSet sa_port_requests_;  ///< per-input-port SA requests
  std::vector<int> sa_candidate_;  ///< per-input-port nominated VC (phase 1)
};

}  // namespace nbtinoc::noc
