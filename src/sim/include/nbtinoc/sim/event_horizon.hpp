#pragma once

#include <algorithm>
#include <cstdint>

#include "nbtinoc/sim/clock.hpp"

namespace nbtinoc::sim {

// Sentinel horizon: "this component will never act again on its own".
// Using the max Cycle value keeps min-aggregation branch-free; callers must
// clamp against their own end fence before advancing a Clock by the result.
inline constexpr Cycle kCycleNever = ~Cycle{0};

// Min-aggregator for next-event queries plus bookkeeping for how much work
// skipping actually saved.  One instance lives in noc::Network; the
// sim layer owns the type so traffic/ and core/ can name kCycleNever and the
// skip counters without depending on noc/.
//
// Usage per fully parked pause (Network::run under kActiveSet):
//   EventHorizon h(now);
//   h.consider(source->next_event_cycle(now));
//   h.consider(controller->next_event_cycle(now));
//   Cycle target = std::min(h.horizon(), end_fence);
//   if (target > now) { clock.advance(target - now); stats.note_skip(...); }
//
// consider() clamps each proposal to `now` — a component may conservatively
// answer a cycle in the past ("I can't prove anything"), which must never
// move time backwards.
class EventHorizon {
 public:
  explicit EventHorizon(Cycle now) : now_(now), horizon_(kCycleNever) {}

  void consider(Cycle proposal) { horizon_ = std::min(horizon_, std::max(proposal, now_)); }

  Cycle now() const { return now_; }
  Cycle horizon() const { return horizon_; }

 private:
  Cycle now_;
  Cycle horizon_;
};

// Counters describing how often the parked-fabric jump engaged and how many
// cycles it elided.  Monotonic over the life of a Network (not reset with
// StatRegistry) — benchmarks and tests read them to prove skipping happened.
struct SkipStats {
  std::uint64_t skips = 0;           // number of jumps taken
  std::uint64_t cycles_skipped = 0;  // total cycles elided across all jumps

  void note_skip(Cycle span) {
    ++skips;
    cycles_skipped += span;
  }
};

}  // namespace nbtinoc::sim
