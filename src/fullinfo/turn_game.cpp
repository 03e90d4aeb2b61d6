#include "fullinfo/turn_game.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace fle {

Value play_turn_game(TurnPosition& position, std::span<const ProcessorId> coalition,
                     const TurnAdversary* adversary, Xoshiro256& rng,
                     ExecutionTranscript* transcript) {
  position.reset();
  while (!position.finished()) {
    const ProcessorId p = position.mover();
    const Value bound = position.action_count();
    assert(bound >= 1);
    Value action;
    const bool adversarial =
        adversary != nullptr &&
        std::binary_search(coalition.begin(), coalition.end(), p);
    if (adversarial) {
      action = adversary->choose(position, p) % bound;
    } else {
      action = rng.below(bound);
    }
    if (transcript) {
      transcript->turn(position.history().size(), static_cast<std::uint64_t>(p), action);
    }
    position.play(action);
  }
  const Value outcome = position.outcome();
  if (transcript) {
    // The decision belongs to the game as a whole (every player sees the
    // broadcast transcript); actor = players() keeps it distinct from any
    // real mover id.
    transcript->decision(static_cast<std::uint64_t>(position.players()), /*aborted=*/false,
                         outcome);
  }
  return outcome;
}

Value replay_turn_game(TurnPosition& position, std::span<const TranscriptEvent> events) {
  const auto diverged = [](const std::string& what) {
    return std::runtime_error("turn-game replay diverged: " + what);
  };
  position.reset();
  const auto moves = [&position] { return position.history().size(); };
  std::optional<Value> recorded_outcome;
  for (const TranscriptEvent& e : events) {
    switch (e.kind) {
      case TranscriptEventKind::kTurn: {
        if (recorded_outcome.has_value()) {
          throw diverged("turn event after the recorded decision");
        }
        if (position.finished()) {
          throw diverged("game finished after " + std::to_string(moves()) +
                         " moves but the recording has another turn");
        }
        if (e.a != moves()) {
          throw diverged("recorded turn index " + std::to_string(e.a) +
                         " at position " + std::to_string(moves()));
        }
        const ProcessorId mover = position.mover();
        if (static_cast<std::uint64_t>(mover) != e.b) {
          throw diverged("turn " + std::to_string(moves()) + ": game says mover " +
                         std::to_string(mover) + ", recording says " + std::to_string(e.b));
        }
        const Value bound = position.action_count();
        if (e.c >= bound) {
          throw diverged("turn " + std::to_string(moves()) + ": recorded action " +
                         std::to_string(e.c) + " outside the legal bound " +
                         std::to_string(bound));
        }
        position.play(e.c);
        break;
      }
      case TranscriptEventKind::kDecision:
        if (recorded_outcome.has_value()) throw diverged("two decision events");
        recorded_outcome = e.c;
        break;
      default:
        throw diverged(std::string("unexpected ") + to_string(e.kind) +
                       " event in a turn-game recording");
    }
  }
  if (!position.finished()) {
    throw diverged("recording ends after " + std::to_string(moves()) +
                   " moves but the game is not finished");
  }
  const Value outcome = position.outcome();
  if (!recorded_outcome.has_value()) {
    throw diverged("recording carries no decision event");
  }
  if (outcome != *recorded_outcome) {
    throw diverged("replayed outcome " + std::to_string(outcome) +
                   " != recorded outcome " + std::to_string(*recorded_outcome));
  }
  return outcome;
}

}  // namespace fle
