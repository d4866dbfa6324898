#pragma once
// Fixed-latency pipelined channel. Models flit links and credit return
// wires: payloads pushed at cycle t with delay d become visible exactly at
// cycle t+d, in push order.
//
// A channel may carry an optional *fault hook*, fired once per payload at
// the moment of consumption (pop_ready): the hook may mutate the payload
// in flight (a bit flip on the wire) or veto delivery entirely (a dropped
// payload). The zero-delay Up_Down control links apply the same hook type
// at their direct delivery point (Network::UpDownLink::deliver). No hook
// installed (the default) is the zero-overhead exact-delivery path.
// peek_ready never fires the hook — fault decisions draw from a
// deterministic RNG stream and must happen exactly once per payload.

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "nbtinoc/sim/clock.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/util/ring_queue.hpp"

namespace nbtinoc::noc {

template <typename T>
class Channel {
 public:
  /// Delivery interceptor: may mutate the payload; returns false to drop it.
  using FaultHook = std::function<bool(T& payload, sim::Cycle now)>;
  /// Push observer, fired with the payload's delivery cycle. The active-set
  /// scheduler installs these to wake a channel's receiver exactly when the
  /// payload becomes deliverable; no hook (the default) keeps the stepped
  /// hot path at a single branch.
  using PushHook = std::function<void(sim::Cycle ready_at)>;

  explicit Channel(sim::Cycle delay = 1) : delay_(delay) {}

  sim::Cycle delay() const { return delay_; }

  void push(T payload, sim::Cycle now) {
    const sim::Cycle ready_at = now + delay_;
    in_flight_.emplace_back(ready_at, std::move(payload));
    if (on_push_) on_push_(ready_at);
  }

  /// Pops the oldest payload whose delivery time has been reached. With a
  /// fault hook installed, dropped payloads are consumed silently and the
  /// next deliverable one is returned instead.
  std::optional<T> pop_ready(sim::Cycle now) {
    while (!in_flight_.empty() && in_flight_.front().first <= now) {
      T payload = std::move(in_flight_.front().second);
      in_flight_.pop_front();
      if (fault_ && !fault_(payload, now)) {
        ++dropped_;
        continue;
      }
      return payload;
    }
    return std::nullopt;
  }

  /// Pooled slots currently reserved (high-water mark of in_flight()).
  std::size_t slot_capacity() const { return in_flight_.capacity(); }

  /// Peeks without consuming; nullptr when nothing is deliverable. Never
  /// fires the fault hook (see file comment).
  const T* peek_ready(sim::Cycle now) const {
    if (in_flight_.empty() || in_flight_.front().first > now) return nullptr;
    return &in_flight_.front().second;
  }

  bool empty() const { return in_flight_.empty(); }
  std::size_t in_flight() const { return in_flight_.size(); }
  void clear() { in_flight_.clear(); }

  /// Removes every in-flight payload matching `pred`, preserving the order
  /// of the survivors; returns how many were removed. The structural-fault
  /// drain uses this to purge a doomed packet's flits wherever they sit.
  template <typename Pred>
  std::size_t remove_if(Pred&& pred) {
    const std::size_t n = in_flight_.size();
    std::size_t removed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      auto item = in_flight_.take_front();
      if (pred(item.second))
        ++removed;
      else
        in_flight_.push_back(std::move(item));
    }
    return removed;
  }

  /// Visits every in-flight payload (delivery cycle, payload) in queue
  /// order — the invariant checker's window into link occupancy.
  template <typename Fn>
  void for_each_in_flight(Fn&& fn) const {
    for (std::size_t i = 0; i < in_flight_.size(); ++i) {
      const auto& [at, payload] = in_flight_[i];
      fn(payload, at);
    }
  }

  // --- checkpoint/restore ----------------------------------------------------
  /// Serializes the in-flight queue (delivery cycles + payloads, via the
  /// caller's payload codec) and the dropped counter. `load` rebuilds the
  /// queue directly, so it must run before any push hooks are installed
  /// (scheduler-mode entry re-installs them and re-discovers the payloads).
  template <typename SavePayload>
  void save(sim::SnapshotWriter& w, SavePayload&& save_payload) const {
    w.u64(in_flight_.size());
    for (std::size_t i = 0; i < in_flight_.size(); ++i) {
      const auto& [at, payload] = in_flight_[i];
      w.u64(static_cast<std::uint64_t>(at));
      save_payload(w, payload);
    }
    w.u64(dropped_);
  }
  template <typename LoadPayload>
  void load(sim::SnapshotReader& r, LoadPayload&& load_payload) {
    in_flight_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto at = static_cast<sim::Cycle>(r.u64());
      in_flight_.emplace_back(at, load_payload(r));
    }
    dropped_ = r.u64();
  }

  /// Installs (or, with an empty function, removes) the delivery fault
  /// hook. The hook owns no payloads; it only inspects/mutates/vetoes.
  void set_fault_hook(FaultHook hook) { fault_ = std::move(hook); }
  bool has_fault_hook() const { return static_cast<bool>(fault_); }
  /// Installs (or removes, with an empty function) the push observer.
  void set_push_hook(PushHook hook) { on_push_ = std::move(hook); }
  bool has_push_hook() const { return static_cast<bool>(on_push_); }
  /// Payloads consumed by the hook so far.
  std::uint64_t dropped() const { return dropped_; }

 private:
  sim::Cycle delay_;
  // Pooled ring: steady-state push/pop never touch the allocator (see
  // util::RingQueue); capacity tracks the link's occupancy high-water mark.
  util::RingQueue<std::pair<sim::Cycle, T>> in_flight_;
  FaultHook fault_;
  PushHook on_push_;
  std::uint64_t dropped_ = 0;
};

}  // namespace nbtinoc::noc
