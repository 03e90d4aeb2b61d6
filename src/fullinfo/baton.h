#pragma once
// Saks' pass-the-baton leader election (paper Related Work [26]).
//
// Player 0 holds the baton; each holder passes it to a uniformly random
// player who has not yet held it; the *last* player to receive the baton is
// the leader.  Honest play elects uniformly among the n-1 non-starters.
// Saks proved resilience to coalitions of size O(n / log n) — much larger
// than the ring protocols' sqrt(n), at the price of the (strong)
// full-information broadcast model.  We reproduce the bias curve with a
// greedy coalition that burns honest non-targets early and keeps control
// inside the coalition.

#include "fullinfo/turn_game.h"

namespace fle {

/// The game: move i = index of the chosen recipient within the sorted
/// not-yet-held set at step i.
class BatonGame final : public TurnGame {
 public:
  explicit BatonGame(int n);

  int players() const override { return n_; }
  std::unique_ptr<TurnPosition> new_position() const override;

 private:
  int n_;
};

/// A baton execution in progress: the holder (the mover, and the outcome
/// once everyone has held the baton) and the unvisited set (n-1 reserved
/// slots, so no move allocates).
class BatonPosition final : public TurnPosition {
 public:
  explicit BatonPosition(int n);

  bool finished() const override { return unvisited_.empty(); }
  ProcessorId mover() const override { return holder_; }
  Value action_count() const override { return static_cast<Value>(unvisited_.size()); }
  Value outcome() const override { return static_cast<Value>(holder_); }

  /// The sorted players who have not yet held the baton.
  [[nodiscard]] std::span<const ProcessorId> unvisited() const { return unvisited_; }

 private:
  void restart() override;
  void advance(Value action) override;

  ProcessorId holder_ = 0;
  std::vector<ProcessorId> unvisited_;
};

/// Greedy coalition: when a member holds the baton it (1) passes to an
/// unvisited honest non-target — burning competitors while the target's
/// survival chances stay intact, (2) else to another coalition member to
/// keep control, (3) else is forced to the target (which then wins unless
/// an honest pick beats it).  Targets the election of `target`.  Plays
/// BatonGame positions only (the registry gates the pairing).
class BatonGreedyAdversary final : public TurnAdversary {
 public:
  BatonGreedyAdversary(std::vector<ProcessorId> coalition, ProcessorId target)
      : coalition_(std::move(coalition)), target_(target) {}

  Value choose(const TurnPosition& position, ProcessorId mover) const override;

 private:
  std::vector<ProcessorId> coalition_;
  ProcessorId target_;
};

}  // namespace fle
