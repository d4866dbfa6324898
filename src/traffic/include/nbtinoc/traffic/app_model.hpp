#pragma once
// Application traffic model — the substitute for GEM5 full-system SPLASH2 /
// WCET runs (paper §IV-C).
//
// Real shared-memory benchmarks impose on each router a *bursty, spatially
// skewed* load: compute phases with almost no traffic alternate with
// communication phases (cache-miss bursts), and destinations mix
// address-interleaved L2 bank accesses (~uniform) with neighbor/owner
// locality. We model each core as a two-state Markov-modulated (on/off)
// source with per-benchmark rate, burst shape and locality parameters; the
// benchmark presets live in benchmarks.hpp. What Table IV consumes is only
// the resulting spatio-temporal buffer occupancy, which this process class
// reproduces.

#include <cstdint>
#include <string>

#include "nbtinoc/noc/traffic_source.hpp"
#include "nbtinoc/traffic/patterns.hpp"
#include "nbtinoc/util/rng.hpp"

namespace nbtinoc::traffic {

/// Parameters of one application's traffic behaviour on one core.
struct AppProfile {
  std::string name = "app";
  double mean_rate = 0.05;        ///< long-run average, flits/cycle/node
  double burstiness = 4.0;        ///< on-state rate = burstiness * mean_rate (>= 1)
  double mean_burst_cycles = 200; ///< average length of an on (communication) phase
  double locality = 0.3;          ///< fraction of packets to a mesh neighbor
  double hotspot_fraction = 0.1;  ///< fraction to the "directory/memory" node
  int packet_length = 4;          ///< flits (data virtual network)
};

/// Two-state MMPP (on/off) source with destination mixing:
/// neighbor (locality) / hotspot (directory) / uniform (address-interleaved).
class AppTrafficSource final : public noc::ITrafficSource {
 public:
  AppTrafficSource(noc::NodeId src, const AppProfile& profile, int width, int height,
                   noc::NodeId hotspot, std::uint64_t seed);

  std::optional<noc::PacketRequest> maybe_generate(sim::Cycle now) override;

  /// Next-fire query for the active-set engine. Pre-rolls the Markov
  /// chain (transition draw, then emission draw, per cycle — the exact
  /// stepped order) up to a bounded look-ahead, deferring the destination
  /// draws to consumption time so the RNG stream matches stepped execution.
  sim::Cycle next_event_cycle(sim::Cycle now) override;

  const AppProfile& profile() const { return profile_; }
  bool in_burst() const { return on_; }

  /// Long-run mean packet generation probability implied by the profile.
  double mean_packet_probability() const;

  void save(sim::SnapshotWriter& w) const override {
    sim::save_rng(w, rng_);
    w.b(on_);
    w.u64(static_cast<std::uint64_t>(rolled_until_));
    w.u64(static_cast<std::uint64_t>(next_fire_));
  }
  void load(sim::SnapshotReader& r) override {
    sim::load_rng(r, rng_);
    on_ = r.b();
    rolled_until_ = static_cast<sim::Cycle>(r.u64());
    next_fire_ = static_cast<sim::Cycle>(r.u64());
  }

 private:
  noc::NodeId pick_destination();
  void roll_until(sim::Cycle limit);

  noc::NodeId src_;
  AppProfile profile_;
  int width_;
  int height_;
  noc::NodeId hotspot_;
  util::Xoshiro256 rng_;

  bool on_ = false;
  double p_on_packet_ = 0.0;   ///< per-cycle packet probability while on
  double p_off_packet_ = 0.0;  ///< residual probability while off
  double p_exit_on_ = 0.0;     ///< on -> off transition probability
  double p_exit_off_ = 0.0;    ///< off -> on transition probability

  // Pre-roll frontier (see SyntheticSource). on_ above is the Markov state
  // as of cycle rolled_until_, which may run ahead of the last consumed
  // cycle; in_burst() is therefore only meaningful to stepped callers.
  sim::Cycle rolled_until_ = 0;
  sim::Cycle next_fire_ = sim::kCycleNever;
};

}  // namespace nbtinoc::traffic
