#pragma once
// Network interface (NI) of one tile.
//
// The NI is the *upstream entity* of its router's Local input port: it
// performs VC allocation for that port, tracks its credits, and — like any
// upstream router — runs the pre-VA gating policy for it. Packets produced
// by the traffic source wait in an unbounded source queue (standard open-
// loop methodology: offered load is never back-pressured into the source).

#include <cstdint>

#include "nbtinoc/noc/channel.hpp"
#include "nbtinoc/noc/config.hpp"
#include "nbtinoc/noc/flit.hpp"
#include "nbtinoc/noc/input_unit.hpp"
#include "nbtinoc/noc/traffic_source.hpp"
#include "nbtinoc/sim/stat_registry.hpp"
#include "nbtinoc/util/ring_queue.hpp"

namespace nbtinoc::noc {

class Topology;

class NetworkInterface {
 public:
  /// `stats` must outlive the NI: counter/distribution handles are interned
  /// against it here and bumped by the per-cycle methods.
  NetworkInterface(NodeId node, const NocConfig& config, sim::StatRegistry& stats);

  NodeId node() const { return node_; }

  // --- wiring ---------------------------------------------------------------
  void wire(InputUnit* router_local_iu, Channel<Flit>* inject_out, Channel<Credit>* credit_in,
            Channel<Flit>* eject_in);
  void set_traffic_source(ITrafficSource* source) { source_ = source; }
  /// Installs the offered-load observer (non-owning; nullptr to remove).
  /// Every packet the source offers is reported before the NI's filters —
  /// see ITraceSink. Not snapshot state: capture wiring is per-run.
  void set_trace_sink(ITraceSink* sink) { trace_sink_ = sink; }
  /// Attaches the topology (non-owning, must outlive the NI) whose
  /// inject_class() restricts VC allocation on wrap-link topologies.
  /// Unattached NIs (standalone unit tests) behave single-class.
  void set_topology(const Topology* topology) { topo_ = topology; }

  // --- per-cycle operation (order matters; called by Network) ---------------
  /// Drains returning credits and ejected flits; samples packet latency.
  void receive(sim::Cycle now);
  /// VA for the queue head + send one flit of the in-flight packet.
  void inject(sim::Cycle now, std::uint64_t& packet_id_counter);
  /// Asks the traffic source for a new packet.
  void generate(sim::Cycle now);

  /// True if a queued packet is still waiting for a VC — the NI-side
  /// is_new_traffic() input to the gating policy of the Local input port.
  bool has_new_traffic(sim::Cycle now) const;
  /// Same, restricted to one virtual network (the pre-VA policy runs once
  /// per vnet).
  bool has_new_traffic(int vnet, sim::Cycle now) const;
  /// Same, further restricted to one dateline class (per-class gating).
  bool has_new_traffic(int vnet, int cls, sim::Cycle now) const;

  std::size_t queue_depth() const { return queue_.size(); }

  // --- structural-fault support ----------------------------------------------
  /// Kills the NI (its router died): the source queue is discarded and
  /// receive()/inject()/generate() become permanent no-ops. The traffic
  /// source is never consulted again, so the RNG stream of a dead tile is
  /// identical across scheduler modes by construction.
  void mark_dead();
  bool dead() const { return dead_; }

  /// True while a packet is mid-serialization into the router.
  bool sending() const { return sending_; }
  PacketId sending_packet() const { return send_id_; }
  NodeId sending_dst() const { return send_pkt_.dst; }
  int sending_vc() const { return send_vc_; }
  /// Abandons the in-flight packet without sending its tail (the kill
  /// protocol purged its flits); the owning VC was purged separately.
  void cancel_sending() {
    sending_ = false;
    send_vc_ = kInvalidVc;
  }

  /// Structural-fault drain support: rewrites one VC credit counter to the
  /// exact survivor-side value. Never used on the healthy path.
  void set_credits(int vc, int credits) {
    credits_.at(static_cast<std::size_t>(vc)) = credits;
  }

  /// Drops every queued packet that can no longer reach its destination on
  /// the degraded fabric (dead destination tile or no surviving path).
  /// Returns the number dropped; each is counted as fault.unroutable_packets.
  std::uint64_t drop_queued_unroutable();

  /// True when the NI holds no work at all: nothing queued and no packet
  /// mid-serialization. Part of the active-set park condition — an idle NI
  /// can neither inject a flit nor assert has_new_traffic() until its
  /// source generates again.
  bool idle() const { return !sending_ && queue_.empty(); }

  /// True when no inbound channel (credit return, ejection) carries a
  /// payload: with idle() this proves receive()/inject()/generate() would
  /// all be no-ops until a link delivery or source fire — the active-set
  /// scheduler's NI park-eligibility condition.
  bool inbound_links_quiet() const {
    return (credit_in_ == nullptr || credit_in_->empty()) &&
           (eject_in_ == nullptr || eject_in_->empty());
  }

  std::uint64_t packets_ejected() const { return packets_ejected_; }
  std::uint64_t flits_injected() const { return flits_injected_; }

  // --- checkpoint/restore ----------------------------------------------------
  /// Source queue, credits, in-flight serialization state, counters and the
  /// death flag. The traffic source serializes itself separately (Network
  /// owns the source list).
  void save(sim::SnapshotWriter& w) const;
  void load(sim::SnapshotReader& r);

  // --- read-only wiring views (used by the invariant checker) ---------------
  /// Credits the NI holds for VC `vc` of its router's Local input port.
  int credits(int vc) const { return credits_.at(static_cast<std::size_t>(vc)); }
  /// Non-null under the shared organization: the wired router port's slot
  /// pool, whose per-VC charge replaces the credits_ counters entirely.
  SharedBufferPool* shared_pool() const {
    return router_iu_ != nullptr ? router_iu_->pool() : nullptr;
  }
  const Channel<Flit>* inject_link() const { return inject_out_; }
  const Channel<Credit>* credit_link() const { return credit_in_; }
  const Channel<Flit>* eject_link() const { return eject_in_; }

 private:
  struct QueuedPacket {
    NodeId dst = 0;
    int length = 1;
    int vnet = 0;
    sim::Cycle injected_at = 0;
  };

  /// Dateline class of the queue-front packet at this NI's router (0
  /// without an attached topology or on single-class topologies).
  int front_class() const;

  NodeId node_;
  NocConfig config_;
  const Topology* topo_ = nullptr;
  ITrafficSource* source_ = nullptr;
  ITraceSink* trace_sink_ = nullptr;
  // Pooled ring (see util::RingQueue): the open-loop source queue churns
  // every cycle under load and must not touch the allocator in steady state.
  util::RingQueue<QueuedPacket> queue_;

  // Interned stat handles (resolved once at construction).
  sim::StatRegistry* stats_;
  sim::CounterHandle h_flits_ejected_;
  sim::CounterHandle h_packets_ejected_;
  sim::CounterHandle h_ni_va_grants_;
  sim::CounterHandle h_flits_injected_;
  sim::CounterHandle h_packets_offered_;
  sim::CounterHandle h_unroutable_;
  sim::DistributionHandle d_packet_latency_;

  InputUnit* router_iu_ = nullptr;
  Channel<Flit>* inject_out_ = nullptr;
  Channel<Credit>* credit_in_ = nullptr;
  Channel<Flit>* eject_in_ = nullptr;

  std::vector<int> credits_;

  // In-flight packet being serialized into the router.
  bool sending_ = false;
  int send_vc_ = kInvalidVc;
  int send_seq_ = 0;
  QueuedPacket send_pkt_{};
  PacketId send_id_ = 0;

  std::uint64_t packets_ejected_ = 0;
  std::uint64_t flits_injected_ = 0;
  bool dead_ = false;  ///< tile structurally killed (router death)

  /// True when `dst` is unreachable from this tile on the (degraded)
  /// fabric; always false while the topology is healthy.
  bool unroutable(NodeId dst) const;
};

}  // namespace nbtinoc::noc
