#include "nbtinoc/traffic/request_reply.hpp"

#include <algorithm>
#include <stdexcept>

namespace nbtinoc::traffic {

namespace {
// Bounded pre-roll window for next_event_cycle (see SyntheticSource): if no
// fire is found within it, the rolled frontier is returned as a safe
// conservative horizon and the caller re-asks after skipping there.
constexpr sim::Cycle kLookaheadCycles = 4096;
}  // namespace

RequestReplySource::RequestReplySource(noc::NodeId node, int mesh_nodes,
                                       RequestReplyConfig config, ReplyBoard* board,
                                       std::uint64_t seed)
    : node_(node), mesh_nodes_(mesh_nodes), config_(config), board_(board), rng_(seed) {
  if (board == nullptr) throw std::invalid_argument("RequestReplySource: null board");
  if (config.request_rate < 0.0 || config.request_rate > 1.0)
    throw std::invalid_argument("RequestReplySource: bad request rate");
  if (config.request_vnet == config.reply_vnet)
    throw std::invalid_argument("RequestReplySource: request and reply must use distinct vnets");
}

void RequestReplySource::roll_until(sim::Cycle limit, sim::Cycle now) {
  // Stepped execution draws one Bernoulli per *request* cycle and nothing
  // at reply cycles, so the pre-roll may only cover cycles provably not
  // reply cycles: strictly below the front pending reply's ready_at (the
  // front is stable until popped), and strictly below now + service_delay
  // (any reply posted after this roll — by this source or a peer — becomes
  // ready no earlier than that). rate <= 0 draws nothing in stepped mode
  // either (Xoshiro256::next_bernoulli short-circuits), so skipping is
  // stream-exact.
  if (config_.request_rate <= 0.0) return;
  sim::Cycle cap = now + config_.service_delay;  // exclusive
  const auto& pending = board_->of(node_);
  if (!pending.empty()) cap = std::min(cap, pending.front().ready_at);
  if (cap == 0) return;
  const sim::Cycle last = std::min(limit, cap - 1);
  while (next_fire_ == sim::kCycleNever && rolled_until_ <= last) {
    if (rng_.next_bernoulli(config_.request_rate)) next_fire_ = rolled_until_;
    ++rolled_until_;
  }
}

std::optional<noc::PacketRequest> RequestReplySource::maybe_generate(sim::Cycle now) {
  roll_until(now, now);

  // A pre-rolled fire is always chronologically earlier than any currently
  // ready reply (fires are capped strictly below the front's ready_at), so
  // serve it first; with per-cycle stepping the fire cycle is `now` itself
  // and this is exactly the old request branch.
  if (next_fire_ <= now) {
    const sim::Cycle fire = next_fire_;
    next_fire_ = sim::kCycleNever;
    // Uniform server choice among the other nodes.
    const auto draw = static_cast<noc::NodeId>(
        rng_.next_below(static_cast<std::uint64_t>(mesh_nodes_ - 1)));
    const noc::NodeId server = draw >= node_ ? draw + 1 : draw;
    // The reply becomes ready after the request's flight + service time;
    // flight time is approximated by the service delay knob.
    board_->post(server, ReplyBoard::PendingReply{fire + config_.service_delay, node_});
    ++requests_sent_;
    return noc::PacketRequest{server, config_.request_length, config_.request_vnet};
  }

  // Replies drain next: the protocol requires them to flow. A reply cycle
  // consumes no randomness, so advance the roll frontier past it draw-free.
  auto& pending = board_->of(node_);
  if (!pending.empty() && pending.front().ready_at <= now) {
    const noc::NodeId dst = pending.front().dst;
    pending.pop_front();
    ++replies_sent_;
    if (rolled_until_ <= now) rolled_until_ = now + 1;
    return noc::PacketRequest{dst, config_.reply_length, config_.reply_vnet};
  }
  return std::nullopt;
}

sim::Cycle RequestReplySource::next_event_cycle(sim::Cycle now) {
  const auto& pending = board_->of(node_);
  const sim::Cycle reply_at =
      pending.empty() ? sim::kCycleNever : std::max(now, pending.front().ready_at);
  if (config_.request_rate <= 0.0) return reply_at;
  if (next_fire_ == sim::kCycleNever) roll_until(now + kLookaheadCycles, now);
  const sim::Cycle fire_at =
      next_fire_ != sim::kCycleNever ? std::max(now, next_fire_) : rolled_until_;
  return std::min(fire_at, reply_at);
}

namespace {
/// Wrapper that owns the shared ReplyBoard in the first source.
class OwningRequestReplySource final : public noc::ITrafficSource {
 public:
  OwningRequestReplySource(std::shared_ptr<ReplyBoard> board, noc::NodeId node, int mesh_nodes,
                           RequestReplyConfig config, std::uint64_t seed)
      : board_(std::move(board)),
        owns_board_state_(node == 0),
        source_(node, mesh_nodes, config, board_.get(), seed) {}
  std::optional<noc::PacketRequest> maybe_generate(sim::Cycle now) override {
    return source_.maybe_generate(now);
  }
  sim::Cycle next_event_cycle(sim::Cycle now) override { return source_.next_event_cycle(now); }

  // The board is shared by every node's source; exactly one wrapper (node
  // 0, always present) round-trips its contents so the snapshot holds a
  // single copy.
  void save(sim::SnapshotWriter& w) const override {
    if (owns_board_state_) board_->save(w);
    source_.save(w);
  }
  void load(sim::SnapshotReader& r) override {
    if (owns_board_state_) board_->load(r);
    source_.load(r);
  }

 private:
  std::shared_ptr<ReplyBoard> board_;
  bool owns_board_state_;
  RequestReplySource source_;
};
}  // namespace

void install_request_reply_traffic(noc::Network& network, RequestReplyConfig config,
                                   std::uint64_t base_seed) {
  if (network.config().num_vnets < 2)
    throw std::invalid_argument("install_request_reply_traffic: needs >= 2 virtual networks");
  auto board = std::make_shared<ReplyBoard>(network.nodes());
  // Under the active-set scheduler a parked server cannot discover a reply
  // posted by a remote requester on its own; the board pokes the network so
  // the server's NI is re-activated at the reply's ready_at. Harmless (and
  // ignored) in stepped mode.
  board->set_wake_sink([&network](noc::NodeId server, sim::Cycle ready_at) {
    network.wake_terminal_at(server, ready_at);
  });
  util::SplitMix64 seeder(base_seed);
  for (noc::NodeId id = 0; id < network.nodes(); ++id) {
    network.set_traffic_source(id, std::make_unique<OwningRequestReplySource>(
                                       board, id, network.nodes(), config, seeder.next()));
  }
}

}  // namespace nbtinoc::traffic
