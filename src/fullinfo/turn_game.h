#pragma once
// The full-information model (paper Related Work: Ben-Or & Linial, Saks,
// Alon & Naor, Boppana & Narayanan).
//
// Players broadcast in turns; everyone sees the whole transcript; players
// are computationally unbounded.  Honest players draw their action uniformly
// from the legal set; a coalition substitutes arbitrary (full-information)
// choices for its members.  This is the model against which the paper
// positions its message-passing results, and the substrate for the
// related-work comparators: pass-the-baton leader election (Saks [26],
// resilient to O(n / log n)) and the majority one-round coin (Ben-Or &
// Linial [10], biasable by Theta(k / sqrt(n))).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/types.h"
#include "sim/transcript.h"

namespace fle {

/// One execution of a turn game in progress.  A position is built once by
/// its game (TurnGame::new_position), reset() at the start of every
/// execution and advanced by play() once per move; each game keeps the
/// incremental state its queries need, so no query replays the history.
/// After the first execution has grown the history to its high-water mark
/// a whole execution allocates nothing.  A position reads its game's data:
/// the game must outlive it.
class TurnPosition {
 public:
  virtual ~TurnPosition() = default;
  TurnPosition(const TurnPosition&) = delete;
  TurnPosition& operator=(const TurnPosition&) = delete;

  /// Rewinds to the start of a fresh execution (capacity is kept).
  void reset() {
    history_.clear();
    restart();
  }
  /// Plays `action` for the mover; requires !finished() and
  /// action < action_count().
  void play(Value action) {
    history_.push_back(action);
    advance(action);
  }
  /// The actions played so far, in order (the broadcast transcript).
  [[nodiscard]] std::span<const Value> history() const { return history_; }
  /// The game's player count.
  [[nodiscard]] int players() const { return players_; }

  [[nodiscard]] virtual bool finished() const = 0;
  /// Whose turn (only when !finished).
  [[nodiscard]] virtual ProcessorId mover() const = 0;
  /// Number of legal actions for the mover (actions are 0..count-1).
  [[nodiscard]] virtual Value action_count() const = 0;
  /// Final outcome (only when finished).
  [[nodiscard]] virtual Value outcome() const = 0;

 protected:
  /// `max_moves` bounds an execution's length; the history reserves it.
  TurnPosition(int players, std::size_t max_moves) : players_(players) {
    history_.reserve(max_moves);
  }

  /// The game's state at the start of an execution.
  virtual void restart() = 0;
  /// The game's state after the mover plays `action`.
  virtual void advance(Value action) = 0;

 private:
  std::vector<Value> history_;
  int players_;
};

/// A sequential broadcast game with perfect information.
class TurnGame {
 public:
  virtual ~TurnGame() = default;

  [[nodiscard]] virtual int players() const = 0;
  /// A fresh position at the start of an execution.
  [[nodiscard]] virtual std::unique_ptr<TurnPosition> new_position() const = 0;
};

/// Coalition behaviour: picks the action whenever a member moves.  choose
/// is const — adversaries keep no per-execution state — so one adversary
/// serves every worker of a job.
class TurnAdversary {
 public:
  virtual ~TurnAdversary() = default;
  [[nodiscard]] virtual Value choose(const TurnPosition& position, ProcessorId mover) const = 0;
};

/// Plays one execution on `position` (reset first): honest movers draw
/// uniformly; coalition members (a sorted id list) defer to `adversary`,
/// whose action is reduced mod the legal bound.  Returns the outcome.
///
/// `transcript` (optional) records the execution into the unified event
/// stream (sim/transcript.h): one kTurn event per move — (turn index,
/// mover, action) — and a closing kDecision event (actor = players(), i.e.
/// "the game", aborted = 0, output = outcome).
/// This is the turn-game runtime's whole observability surface;
/// replay_turn_game re-drives a recording through the same game.
Value play_turn_game(TurnPosition& position, std::span<const ProcessorId> coalition,
                     const TurnAdversary* adversary, Xoshiro256& rng,
                     ExecutionTranscript* transcript = nullptr);

/// Re-drives a recorded transcript on `position` (reset first): replays the
/// recorded actions in order, asserting at every step that the game agrees
/// with the recording (not finished early, same mover, action within the
/// legal bound) and that the final outcome matches the recorded decision
/// event.  Returns the outcome; throws std::runtime_error describing the
/// first divergence.  Catches turn-order and game-shape regressions for the
/// runtimes that have no second implementation to diff against.
Value replay_turn_game(TurnPosition& position, std::span<const TranscriptEvent> events);

}  // namespace fle
