#pragma once
// Coherence-style request/reply traffic over two virtual networks.
//
// Table I's GEM5 setup separates protocol classes into virtual networks
// precisely because replies must never be blocked behind requests (protocol
// deadlock). This source mimics that: it emits short *request* packets on
// vnet 0 (a miss/fetch: control message) and, a fixed service delay later,
// the addressed node's source emits the long *reply* on vnet 1 (the data
// message). Wiring the reply through the destination's own source keeps
// each NI single-threaded, as in the simulator's one-source-per-node model.

#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/noc/traffic_source.hpp"
#include "nbtinoc/util/rng.hpp"

namespace nbtinoc::traffic {

struct RequestReplyConfig {
  double request_rate = 0.02;   ///< requests/cycle/node (Bernoulli)
  int request_length = 1;       ///< flits: control message
  int reply_length = 9;         ///< flits: data message (64B line + header)
  sim::Cycle service_delay = 20;  ///< cycles between request arrival and reply
  int request_vnet = 0;
  int reply_vnet = 1;
};

/// Shared mailbox: pending replies each serving node must emit.
class ReplyBoard {
 public:
  struct PendingReply {
    sim::Cycle ready_at = 0;
    noc::NodeId dst = 0;
  };

  /// Cross-source wake channel: posting a reply onto a *parked* server's
  /// board is the one traffic event next_event_cycle() cannot predict from
  /// the server's own state, so the board tells the active-set scheduler
  /// directly (install_request_reply_traffic wires this to
  /// Network::wake_terminal_at; a no-op in stepped mode).
  using WakeSink = std::function<void(noc::NodeId server, sim::Cycle ready_at)>;
  void set_wake_sink(WakeSink sink) { wake_sink_ = std::move(sink); }

  void post(noc::NodeId server, PendingReply reply) {
    boards_.at(static_cast<std::size_t>(server)).push_back(reply);
    if (wake_sink_) wake_sink_(server, reply.ready_at);
  }
  std::deque<PendingReply>& of(noc::NodeId server) {
    return boards_.at(static_cast<std::size_t>(server));
  }
  explicit ReplyBoard(int nodes) : boards_(static_cast<std::size_t>(nodes)) {}

  /// Checkpoint of every pending reply. Loading does NOT fire the wake
  /// sink: the resumed network reconstructs wakes itself on scheduler-mode
  /// entry (the sources' next_event_cycle covers pending replies).
  void save(sim::SnapshotWriter& w) const {
    for (const auto& board : boards_) {
      w.u64(board.size());
      for (const PendingReply& reply : board) {
        w.u64(static_cast<std::uint64_t>(reply.ready_at));
        w.i64(reply.dst);
      }
    }
  }
  void load(sim::SnapshotReader& r) {
    for (auto& board : boards_) {
      board.clear();
      const std::uint64_t n = r.u64();
      for (std::uint64_t i = 0; i < n; ++i) {
        PendingReply reply;
        reply.ready_at = static_cast<sim::Cycle>(r.u64());
        reply.dst = static_cast<noc::NodeId>(r.i64());
        board.push_back(reply);
      }
    }
  }

 private:
  std::vector<std::deque<PendingReply>> boards_;
  WakeSink wake_sink_;
};

class RequestReplySource final : public noc::ITrafficSource {
 public:
  RequestReplySource(noc::NodeId node, int mesh_nodes, RequestReplyConfig config,
                     ReplyBoard* board, std::uint64_t seed);

  std::optional<noc::PacketRequest> maybe_generate(sim::Cycle now) override;

  /// Next-fire query for the active-set engine: min of the pending-reply
  /// front's ready_at and the next pre-rolled request fire. Pre-rolling is
  /// capped strictly below min(front ready_at, now + service_delay) so that
  /// no Bernoulli is ever drawn for a cycle that stepped execution would
  /// spend serving a reply (reply cycles draw nothing). Assumes every
  /// source sharing the ReplyBoard uses the same service_delay, as
  /// install_request_reply_traffic guarantees.
  sim::Cycle next_event_cycle(sim::Cycle now) override;

  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t replies_sent() const { return replies_sent_; }

  void save(sim::SnapshotWriter& w) const override {
    sim::save_rng(w, rng_);
    w.u64(requests_sent_);
    w.u64(replies_sent_);
    w.u64(static_cast<std::uint64_t>(rolled_until_));
    w.u64(static_cast<std::uint64_t>(next_fire_));
  }
  void load(sim::SnapshotReader& r) override {
    sim::load_rng(r, rng_);
    requests_sent_ = r.u64();
    replies_sent_ = r.u64();
    rolled_until_ = static_cast<sim::Cycle>(r.u64());
    next_fire_ = static_cast<sim::Cycle>(r.u64());
  }

 private:
  void roll_until(sim::Cycle limit, sim::Cycle now);

  noc::NodeId node_;
  int mesh_nodes_;
  RequestReplyConfig config_;
  ReplyBoard* board_;
  util::Xoshiro256 rng_;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t replies_sent_ = 0;
  // Pre-roll frontier (see SyntheticSource): Bernoullis for all *request*
  // cycles < rolled_until_ are drawn; next_fire_ is the earliest unserved
  // success. Reply cycles advance rolled_until_ without a draw.
  sim::Cycle rolled_until_ = 0;
  sim::Cycle next_fire_ = sim::kCycleNever;
};

/// Installs request/reply sources on every node (shares one ReplyBoard,
/// which the network keeps alive through the returned sources).
void install_request_reply_traffic(noc::Network& network, RequestReplyConfig config,
                                   std::uint64_t base_seed);

}  // namespace nbtinoc::traffic
