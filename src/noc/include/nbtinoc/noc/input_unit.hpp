#pragma once
// Input unit: the VC buffer bank of one router input port, together with
// the downstream-allocation bookkeeping and the NBTI stress accounting.
//
// This is the authoritative home of each VC's state: the upstream router's
// out-VC-state table is a (zero-skew) view over it, exactly the information
// the upstream VA stage maintains in hardware.

#include <memory>
#include <vector>

#include "nbtinoc/noc/arbiter.hpp"
#include "nbtinoc/noc/buffer.hpp"
#include "nbtinoc/noc/config.hpp"
#include "nbtinoc/noc/gate.hpp"
#include "nbtinoc/noc/shared_pool.hpp"
#include "nbtinoc/noc/types.hpp"
#include "nbtinoc/nbti/duty_cycle.hpp"
#include "nbtinoc/sim/fault_plan.hpp"

namespace nbtinoc::noc {

class InputUnit {
 public:
  InputUnit(Dir dir, const NocConfig& config);

  // The VC buffers point back into the owning unit (stress trackers and
  // the busy-VC counter), so copying would alias the source's state; a
  // move re-attaches the pointers to the new home.
  InputUnit(const InputUnit&) = delete;
  InputUnit& operator=(const InputUnit&) = delete;
  InputUnit(InputUnit&& other) noexcept
      : dir_(other.dir_),
        extra_stages_(other.extra_stages_),
        pool_(std::move(other.pool_)),
        vcs_(std::move(other.vcs_)),
        out_vc_(std::move(other.out_vc_)),
        out_port_(std::move(other.out_port_)),
        trackers_(std::move(other.trackers_)),
        sa_arbiter_(std::move(other.sa_arbiter_)),
        busy_vcs_(other.busy_vcs_),
        gated_vcs_(other.gated_vcs_) {
    // The pool lives on the heap, so descriptor/tracker pointers into it
    // survive the move untouched; only pointers into *this* need rebinding.
    for (std::size_t i = 0; i < vcs_.size(); ++i) {
      if (pool_ == nullptr) vcs_[i].attach_stress_tracker(&trackers_.at(i));
      vcs_[i].attach_busy_counter(&busy_vcs_);
      vcs_[i].attach_gated_counter(&gated_vcs_);
    }
    if (pool_ != nullptr)
      for (int s = 0; s < pool_->num_slots(); ++s)
        pool_->attach_stress_tracker(s, &trackers_.at(static_cast<std::size_t>(s)));
  }
  InputUnit& operator=(InputUnit&&) = delete;

  Dir dir() const { return dir_; }
  int num_vcs() const { return static_cast<int>(vcs_.size()); }

  /// Number of VCs currently Active (reserved for or holding a packet),
  /// maintained by the buffers themselves. Zero proves in O(1) that no VC
  /// of this port can be waiting for VA or ready for SA.
  int busy_vcs() const { return busy_vcs_; }

  /// Number of VCs currently gated (Recovery), maintained by the buffers.
  /// `gated_vcs() == num_vcs()` proves in O(1) that the port sits in the
  /// all-gated fixed point of an active gating policy; `busy_vcs() == 0 &&
  /// gated_vcs() == 0` proves the all-idle fixed point of the baseline.
  /// Always 0 under the shared organization (descriptors are never gated —
  /// see gating_fixed_point for the pool-counter equivalent).
  int gated_vcs() const { return gated_vcs_; }

  /// Non-null under BufferOrg::kShared: the port's DAMQ slot pool.
  SharedBufferPool* pool() { return pool_.get(); }
  const SharedBufferPool* pool() const { return pool_.get(); }

  /// O(1) proof that this port sits in the gating fixed point of its last
  /// applied command: under an active policy everything gateable is gated
  /// (all VCs in Recovery, or the pool's whole shared region) with no wake
  /// in flight; under the baseline nothing is gated. The active-set
  /// parking proof reduces to this per-port predicate.
  bool gating_fixed_point(bool active, int total_vcs) const {
    if (pool_ != nullptr) {
      if (pool_->waking_slots() != 0) return false;
      return pool_->gated_slots() == (active ? pool_->shared_capacity() : 0);
    }
    return gated_vcs_ == (active ? total_vcs : 0);
  }

  VcBuffer& vc(int i) { return vcs_.at(static_cast<std::size_t>(i)); }
  const VcBuffer& vc(int i) const { return vcs_.at(static_cast<std::size_t>(i)); }

  // --- downstream allocation made by *this router's* VA for the packet
  //     currently resident in vc i ------------------------------------------
  int out_vc(int i) const { return out_vc_.at(static_cast<std::size_t>(i)); }
  Dir out_port(int i) const { return out_port_.at(static_cast<std::size_t>(i)); }
  void assign_output(int i, Dir port, int downstream_vc);
  void clear_output(int i);
  bool has_output(int i) const { return out_vc(i) != kInvalidVc; }

  /// Structural-fault drain: purges vc i's buffer (see VcBuffer::purge) and
  /// clears its downstream allocation. Returns the flits dropped.
  int purge_vc(int i) {
    clear_output(i);
    return vc(i).purge();
  }

  /// True if vc i holds a routed head flit still waiting for an output VC —
  /// the "new packet" notion of is_new_traffic_outport_x().
  bool waiting_for_va(int i, sim::Cycle now) const;
  /// Any VC waiting for VA toward output port `port`?
  bool has_new_traffic_toward(Dir port, sim::Cycle now) const;
  /// Same, restricted to packets of one virtual network.
  bool has_new_traffic_toward(Dir port, int vnet, sim::Cycle now) const;
  /// Same, further restricted to packets needing downstream dateline class
  /// `cls` — the per-class gating decision's traffic signal.
  bool has_new_traffic_toward(Dir port, int vnet, int cls, sim::Cycle now) const;

  // --- datapath --------------------------------------------------------------
  /// Buffer write (+ RC on head flits). `route` / `next_class` are the
  /// precomputed RC results for head flits, ignored otherwise.
  void receive_flit(const Flit& flit, Dir route, int next_class, sim::Cycle now);
  /// Single-class convenience (mesh-era call sites and unit tests).
  void receive_flit(const Flit& flit, Dir route, sim::Cycle now) {
    receive_flit(flit, route, /*next_class=*/0, now);
  }

  // --- power gating (Up_Down command execution) ------------------------------
  /// Executes a delivered Up_Down command. Throws std::invalid_argument on
  /// structurally impossible commands (first_vc / range / keep_vc outside
  /// the port) — a malformed command is a policy bug, not a modeled fault.
  /// With a fault injector, a wake of a gated buffer may miss its deadline
  /// (the buffer stays in Recovery and the wake is retried when the command
  /// is re-issued next cycle). Faults never gate a non-empty buffer: the
  /// Idle-and-empty precondition is enforced here regardless of injection.
  void apply_gate_command(const GateCommand& cmd, sim::Cycle now,
                          sim::FaultInjector* faults = nullptr);

  // --- NBTI accounting --------------------------------------------------------
  // Accounting is event-driven: each VC buffer notifies its tracker at
  // gate/wake transitions (the only edges of is_stressed()), and readers
  // fence with sync_stress(). An idle port therefore costs zero accounting
  // work per cycle instead of one record_cycle() per VC.
  /// Flushes every VC tracker's lazy interval through cycle `through`
  /// (exclusive). Call before reading counters; see StressTracker::sync.
  void sync_stress(sim::Cycle through) { trackers_.sync(through); }
  nbti::StressTrackerBank& trackers() { return trackers_; }
  const nbti::StressTrackerBank& trackers() const { return trackers_; }

  /// Round-robin pointer for SA VC selection within this port.
  RoundRobinArbiter& sa_arbiter() { return sa_arbiter_; }

  /// A buffered flit is eligible for VA/SA once it has aged past the buffer
  /// write plus any extra pipeline stages.
  bool flit_eligible(const Flit& flit, sim::Cycle now) const {
    return flit.arrived_at + static_cast<sim::Cycle>(extra_stages_) < now;
  }

  // --- checkpoint/restore ----------------------------------------------------
  /// Buffers (busy/gated counters rebuilt by their loads), downstream
  /// allocations, stress accumulators and the SA fairness pointer.
  void save(sim::SnapshotWriter& w) const {
    for (const auto& v : vcs_) v.save(w);
    for (int ov : out_vc_) w.i64(ov);
    for (Dir op : out_port_) w.i64(static_cast<int>(op));
    trackers_.save(w);
    w.u64(sa_arbiter_.pointer());
    if (pool_ != nullptr) pool_->save(w);
  }
  void load(sim::SnapshotReader& r) {
    for (auto& v : vcs_) v.load(r);
    for (int& ov : out_vc_) ov = static_cast<int>(r.i64());
    for (Dir& op : out_port_) op = static_cast<Dir>(r.i64());
    trackers_.load(r);
    sa_arbiter_.set_pointer(static_cast<std::size_t>(r.u64()));
    if (pool_ != nullptr) pool_->load(r);
  }

 private:
  void apply_slot_gate_command(const GateCommand& cmd, sim::Cycle now,
                               sim::FaultInjector* faults);

  Dir dir_;
  int extra_stages_;
  std::unique_ptr<SharedBufferPool> pool_;  ///< non-null: shared organization
  std::vector<VcBuffer> vcs_;
  std::vector<int> out_vc_;
  std::vector<Dir> out_port_;
  nbti::StressTrackerBank trackers_;
  RoundRobinArbiter sa_arbiter_;
  int busy_vcs_ = 0;
  int gated_vcs_ = 0;
};

}  // namespace nbtinoc::noc
