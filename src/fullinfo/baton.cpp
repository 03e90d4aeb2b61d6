#include "fullinfo/baton.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace fle {

BatonGame::BatonGame(int n) : n_(n) {
  if (n < 2) throw std::invalid_argument("need at least 2 players");
}

std::unique_ptr<TurnPosition> BatonGame::new_position() const {
  return std::make_unique<BatonPosition>(n_);
}

BatonPosition::BatonPosition(int n)
    : TurnPosition(n, static_cast<std::size_t>(n - 1)) {
  unvisited_.reserve(static_cast<std::size_t>(n - 1));
  restart();
}

void BatonPosition::restart() {
  holder_ = 0;
  unvisited_.clear();
  for (ProcessorId p = 1; p < players(); ++p) unvisited_.push_back(p);
}

void BatonPosition::advance(Value action) {
  assert(action < unvisited_.size());
  const auto it = unvisited_.begin() + static_cast<std::ptrdiff_t>(action);
  holder_ = *it;
  unvisited_.erase(it);
}

Value BatonGreedyAdversary::choose(const TurnPosition& position,
                                   ProcessorId /*mover*/) const {
  const auto u = static_cast<const BatonPosition&>(position).unvisited();
  auto is_member = [&](ProcessorId p) {
    return std::binary_search(coalition_.begin(), coalition_.end(), p);
  };
  if (u.size() == 1) return 0;  // forced
  // 1) burn an unvisited honest competitor (not the target).
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (u[i] != target_ && !is_member(u[i])) return static_cast<Value>(i);
  }
  // 2) keep the baton inside the coalition.
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (u[i] != target_ && is_member(u[i])) return static_cast<Value>(i);
  }
  // 3) forced: only the target remains reachable.
  return 0;
}

}  // namespace fle
