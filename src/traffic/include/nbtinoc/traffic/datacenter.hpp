#pragma once
// Datacenter aggregate workload — the millions-of-users traffic model.
//
// Each node multiplexes `users_per_node` independent user sessions: a
// session alternates heavy-tailed (Pareto) ON phases, during which it
// contributes `user_rate` flits/cycle, with heavy-tailed OFF think times.
// The superposition is the classic self-similar datacenter load process
// (Crovella/Taqqu): the per-node packet rate is a piecewise-constant
// function of how many sessions are ON, with bursts on every timescale up
// to the profile horizon.
//
// The implementation composes the per-user on/off processes ONCE at
// construction into an active-session profile (an event-compressed step
// function over [0, profile_horizon), repeated periodically), then runs as
// a non-homogeneous per-cycle emission process over it: packet count at
// cycle c is floor(lambda_c) + Bernoulli(frac(lambda_c)). Emission draws
// are pre-rolled in cycle order with destination draws deferred to
// consumption (the SyntheticSource discipline), so next_event_cycle() is
// safe for the active-set engine and the RNG stream is
// bit-identical across both scheduler modes. Multi-packet cycles hand their
// whole batch to the NI through generate_burst(); a batch larger than
// noc::kMaxGenerateBurst slips, deterministically, to the following cycles.
//
// A datacenter run is capturable through the ordinary trace hooks
// (RunnerOptions::capture_trace) into the NBTITRACE format — the intended
// production path: synthesize once, capture, then replay the frozen
// workload zero-copy across policies, sweeps and fleet shards.

#include <cstdint>
#include <string>
#include <vector>

#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/noc/traffic_source.hpp"
#include "nbtinoc/traffic/patterns.hpp"
#include "nbtinoc/util/rng.hpp"

namespace nbtinoc::traffic {

/// Parameters of one node's aggregated user population.
struct DatacenterProfile {
  int users_per_node = 1000;      ///< independent sessions multiplexed per node
  double user_rate = 0.002;       ///< flits/cycle contributed by one ON session
  double mean_on_cycles = 2000;   ///< mean ON (service burst) length
  double mean_off_cycles = 18000; ///< mean OFF (think time) length
  double pareto_alpha = 1.6;      ///< tail index of both phases (> 1: finite mean)
  PatternKind pattern = PatternKind::kUniform;  ///< per-packet destination law
  double hotspot_fraction = 0.2;  ///< kHotspot only: fraction aimed at the hot node
  int packet_length = 4;          ///< flits per packet
  sim::Cycle profile_horizon = 1 << 16;  ///< activity profile period (wraps)

  /// Canonical textual encoding (config digests, describe blocks).
  std::string describe() const;
  /// Rejects impossible profiles with an actionable std::invalid_argument.
  void validate() const;
};

/// One node's aggregate source. Deterministic: the activity profile and the
/// emission stream both derive from the construction seed alone.
class DatacenterAggregateSource final : public noc::ITrafficSource {
 public:
  DatacenterAggregateSource(noc::NodeId src, const DatacenterProfile& profile, int width,
                            int height, noc::NodeId hotspot, std::uint64_t seed);

  std::optional<noc::PacketRequest> maybe_generate(sim::Cycle now) override;
  std::size_t generate_burst(sim::Cycle now, noc::PacketRequest* out, std::size_t max) override;

  /// Exact for pending batches (returns `now` while packets are undelivered)
  /// and pre-rolled otherwise — never overshoots a real emission.
  sim::Cycle next_event_cycle(sim::Cycle now) override;

  /// Sessions ON at cycle `c` of the (wrapped) activity profile.
  int active_sessions(sim::Cycle c) const;
  /// Long-run mean flit rate implied by the profile (flits/cycle/node).
  double mean_flit_rate() const;

  void save(sim::SnapshotWriter& w) const override {
    sim::save_rng(w, rng_);
    w.u64(static_cast<std::uint64_t>(rolled_until_));
    w.u64(static_cast<std::uint64_t>(next_fire_));
    w.u64(static_cast<std::uint64_t>(next_count_));
    w.u64(static_cast<std::uint64_t>(pending_));
  }
  void load(sim::SnapshotReader& r) override {
    sim::load_rng(r, rng_);
    rolled_until_ = static_cast<sim::Cycle>(r.u64());
    next_fire_ = static_cast<sim::Cycle>(r.u64());
    next_count_ = static_cast<std::size_t>(r.u64());
    pending_ = static_cast<std::size_t>(r.u64());
    profile_pos_ = sim::kCycleNever;  // force a segment-cursor re-seek
  }

 private:
  void build_activity_profile();
  sim::Cycle pareto_cycles(double mean);  ///< one heavy-tailed phase length (draws)
  /// Packets/cycle at `cycle`; `span` receives how long that rate holds.
  /// Monotone-cursor lookup — callers advance cycle between calls.
  double lambda_at(sim::Cycle cycle, sim::Cycle& span);
  void roll_until(sim::Cycle limit);
  void refill(sim::Cycle now);

  noc::NodeId src_;
  DatacenterProfile profile_;
  DestinationPattern pattern_;
  util::Xoshiro256 rng_;

  // Activity profile: active-session count as an event-compressed step
  // function over [0, profile_horizon). Structural (rebuilt from the seed
  // on construction), so snapshots never carry it.
  std::vector<sim::Cycle> seg_start_;  ///< ascending, seg_start_[0] == 0
  std::vector<double> seg_lambda_;     ///< packets/cycle while the segment holds
  std::vector<int> seg_active_;        ///< ON-session count (introspection)
  std::size_t seg_idx_ = 0;            ///< monotone lookup cursor
  sim::Cycle profile_pos_ = sim::kCycleNever;  ///< last looked-up wrapped position
  double max_lambda_ = 0.0;            ///< peak packets/cycle over the profile

  // Pre-roll frontier (SyntheticSource discipline): every cycle below
  // rolled_until_ has drawn its emission; next_fire_/next_count_ is the
  // earliest unconsumed nonzero batch; pending_ holds packets whose cycle
  // has arrived but which the NI has not pulled yet (burst slip).
  sim::Cycle rolled_until_ = 0;
  sim::Cycle next_fire_ = sim::kCycleNever;
  std::size_t next_count_ = 0;
  std::size_t pending_ = 0;
};

/// Installs one DatacenterAggregateSource per node; each node's population
/// is an independent stream derived from `base_seed`. `rate_scale` converts
/// flits/cycle rates to the network's transfer units (phits/cycle), exactly
/// as install_benchmark_mix does; the hotspot is the last node.
void install_datacenter_traffic(noc::Network& network, const DatacenterProfile& profile,
                                std::uint64_t base_seed, double rate_scale = 1.0);

}  // namespace nbtinoc::traffic
