#pragma once
// Interface between the network interfaces and the traffic generators.
// Concrete sources (uniform Bernoulli, Markov-modulated application models,
// trace replay) live in the traffic library.

#include <cstddef>
#include <optional>

#include "nbtinoc/noc/types.hpp"
#include "nbtinoc/sim/clock.hpp"
#include "nbtinoc/sim/event_horizon.hpp"
#include "nbtinoc/sim/snapshot.hpp"

namespace nbtinoc::noc {

struct PacketRequest {
  NodeId dst = 0;
  int length = 1;  ///< flits, head..tail
  int vnet = 0;    ///< virtual network (protocol class)
};

/// Most packets an NI pulls from its source in one generate() call (the
/// size of its stack-resident burst buffer). Sources with more same-cycle
/// packets keep the surplus and report next_event_cycle(now) == now, so
/// every scheduler mode drains the backlog on the following cycles in the
/// same order — burst overflow slips, it never drops or reorders.
inline constexpr std::size_t kMaxGenerateBurst = 8;

class ITrafficSource {
 public:
  virtual ~ITrafficSource() = default;
  /// Called once per cycle; returns a packet to enqueue at this node's NI,
  /// or nullopt. At most one packet per cycle per call.
  virtual std::optional<PacketRequest> maybe_generate(sim::Cycle now) = 0;

  /// Batched variant (ndn-dpdk-style): writes every packet this source
  /// offers at `now` — at most `max` — into `out` and returns how many.
  /// The NI calls this instead of maybe_generate(), so multi-packet sources
  /// (trace replay of same-cycle records, datacenter aggregates) hand over
  /// a whole same-cycle run in one virtual call with zero allocations.
  /// The default adapts single-packet sources: one maybe_generate() poll,
  /// preserving their per-cycle semantics and RNG draw order exactly.
  virtual std::size_t generate_burst(sim::Cycle now, PacketRequest* out, std::size_t max) {
    if (max == 0) return 0;
    if (auto req = maybe_generate(now)) {
      out[0] = *req;
      return 1;
    }
    return 0;
  }

  /// Earliest cycle >= now at which this source could return a packet, or
  /// sim::kCycleNever if it never will.  Answers may be conservative (any
  /// cycle <= the true next event is safe — the caller simply re-asks after
  /// stepping there); they must never overshoot a real event.  The default
  /// returns `now`, which disables skipping for sources that do not
  /// implement the query.  Implementations must not change the source's
  /// observable RNG consumption order relative to per-cycle stepping.
  virtual sim::Cycle next_event_cycle(sim::Cycle now) { return now; }

  /// Checkpoint hooks. Stateless sources need nothing; stateful ones must
  /// round-trip every field that influences future draws (RNG state,
  /// pre-roll frontiers, modulation state). The network calls these in node
  /// order inside its own save/load.
  virtual void save(sim::SnapshotWriter& w) const { (void)w; }
  virtual void load(sim::SnapshotReader& r) { (void)r; }
};

/// Observer of the offered load: Network::set_trace_sink fans one sink out
/// to every NI, which then reports each packet its source offers — before
/// the self-traffic / unroutable filters, so a replay re-applies the same
/// filters and reproduces the run bit-identically. Recording is passive:
/// it consumes no RNG and never perturbs the run (traffic::Trace is the
/// standard implementation).
class ITraceSink {
 public:
  virtual ~ITraceSink() = default;
  virtual void record(sim::Cycle now, NodeId src, const PacketRequest& req) = 0;
};

/// A source that never generates traffic (default for unconfigured nodes).
class SilentSource final : public ITrafficSource {
 public:
  std::optional<PacketRequest> maybe_generate(sim::Cycle) override { return std::nullopt; }
  sim::Cycle next_event_cycle(sim::Cycle) override { return sim::kCycleNever; }
};

}  // namespace nbtinoc::noc
