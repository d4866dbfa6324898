#pragma once
// Synthetic open-loop traffic source: Bernoulli packet generation at a
// configured flit injection rate combined with a destination pattern.
// This is the paper's Tables II/III workload (uniform, 0.1/0.2/0.3
// flits/cycle/port).

#include <cstdint>

#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/noc/traffic_source.hpp"
#include "nbtinoc/traffic/patterns.hpp"
#include "nbtinoc/util/rng.hpp"

namespace nbtinoc::traffic {

class SyntheticSource final : public noc::ITrafficSource {
 public:
  /// `injection_rate` is in flits/cycle/port; packet generation probability
  /// per cycle is rate / packet_length.
  SyntheticSource(noc::NodeId src, double injection_rate, int packet_length,
                  DestinationPattern pattern, std::uint64_t seed);

  std::optional<noc::PacketRequest> maybe_generate(sim::Cycle now) override;

  /// Exact next-fire query for the active-set engine. Pre-rolls the
  /// per-cycle Bernoulli stream (bounded look-ahead) without disturbing the
  /// draw order: destination draws still happen at consumption time, so the
  /// RNG stream is bit-identical to stepped execution.
  sim::Cycle next_event_cycle(sim::Cycle now) override;

  double injection_rate() const { return injection_rate_; }

  void save(sim::SnapshotWriter& w) const override {
    sim::save_rng(w, rng_);
    w.u64(static_cast<std::uint64_t>(rolled_until_));
    w.u64(static_cast<std::uint64_t>(next_fire_));
  }
  void load(sim::SnapshotReader& r) override {
    sim::load_rng(r, rng_);
    rolled_until_ = static_cast<sim::Cycle>(r.u64());
    next_fire_ = static_cast<sim::Cycle>(r.u64());
  }

 private:
  /// Advances the pre-rolled Bernoulli frontier through cycle `limit`
  /// (inclusive), stopping at the first success.
  void roll_until(sim::Cycle limit);

  noc::NodeId src_;
  double injection_rate_;
  int packet_length_;
  double packet_probability_;
  DestinationPattern pattern_;
  util::Xoshiro256 rng_;
  // Pre-roll state: the Bernoulli for every cycle < rolled_until_ has been
  // drawn; next_fire_ is the earliest undelivered success (kCycleNever if
  // none found yet). Invariant: no success exists in [next roll start,
  // rolled_until_) other than next_fire_.
  sim::Cycle rolled_until_ = 0;
  sim::Cycle next_fire_ = sim::kCycleNever;
};

/// Installs one SyntheticSource per node with the given pattern; each node
/// gets an independent stream derived from `base_seed`.
void install_synthetic_traffic(noc::Network& network, PatternKind pattern, double injection_rate,
                               std::uint64_t base_seed);

/// Paper workload: uniform random at the given rate.
inline void install_uniform_traffic(noc::Network& network, double injection_rate,
                                    std::uint64_t base_seed) {
  install_synthetic_traffic(network, PatternKind::kUniform, injection_rate, base_seed);
}

}  // namespace nbtinoc::traffic
