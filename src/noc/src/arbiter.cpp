#include "nbtinoc/noc/arbiter.hpp"

namespace nbtinoc::noc {

int RoundRobinArbiter::peek(const std::vector<bool>& requests) const {
  const std::size_t n = size_ < requests.size() ? size_ : requests.size();
  if (n == 0) return -1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (pointer_ + i) % n;
    if (requests[idx]) return static_cast<int>(idx);
  }
  return -1;
}

int RoundRobinArbiter::peek(const RequestSet& requests) const {
  const std::size_t n = size_ < requests.size() ? size_ : requests.size();
  if (n == 0) return -1;
  // The rotated order [start, n) then [0, start), one word at a time.
  const std::size_t start = pointer_ % n;
  const int upper = requests.find_first(start, n);
  return upper >= 0 ? upper : requests.find_first(0, start);
}

int RoundRobinArbiter::arbitrate(const std::vector<bool>& requests) {
  const int winner = peek(requests);
  if (winner >= 0 && size_ > 0) pointer_ = (static_cast<std::size_t>(winner) + 1) % size_;
  return winner;
}

int RoundRobinArbiter::arbitrate(const RequestSet& requests) {
  const int winner = peek(requests);
  if (winner >= 0 && size_ > 0) pointer_ = (static_cast<std::size_t>(winner) + 1) % size_;
  return winner;
}

}  // namespace nbtinoc::noc
