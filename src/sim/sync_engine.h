#pragma once
// Synchronous lockstep executor (paper Section 1.1: the synchronous
// fully-connected and synchronous ring scenarios, where Abraham et al.'s
// protocols achieve optimal k = n-1 resilience).
//
// Time advances in global rounds: every message sent in round r is
// delivered at the start of round r+1, simultaneously.  Synchrony is the
// resilience mechanism — a processor cannot wait for information before
// committing (its round-r messages are chosen before any round-r delivery),
// and silence is detectable (a missing message in a round is a deviation).
//
// Memory model (DESIGN.md §4): payloads never own heap memory.  A send
// copies its words into the engine's next-round payload slab and queues a
// (sender, offset, length) envelope for its destination; at the round
// barrier the slabs swap, and each processor's inbox is rebuilt in place as
// (sender, span-into-the-slab) pairs.  Every buffer keeps its capacity
// across rounds and reset(), so a reused engine runs steady-state trials
// without touching the allocator.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/types.h"
#include "sim/arena.h"
#include "sim/transcript.h"

namespace fle {

/// One delivered message's payload, viewed in place in the engine's round
/// slab.  Valid until the receiving on_round call returns.
using SyncPayload = std::span<const Value>;

/// One round's deliveries: (sender, payload), sorted by sender.
using SyncInbox = std::vector<std::pair<ProcessorId, SyncPayload>>;

class SyncContext {
 public:
  virtual ~SyncContext() = default;
  /// Queue a message for delivery at the start of the next round.  The
  /// payload is copied, so it may view a delivered message.
  virtual void send(ProcessorId to, SyncPayload payload) = 0;
  /// Send to everyone else.
  virtual void broadcast(SyncPayload payload) = 0;
  /// Brace-list payloads: ctx.send(to, {v}), ctx.broadcast({v}).
  void send(ProcessorId to, std::initializer_list<Value> payload) {
    send(to, SyncPayload(payload.begin(), payload.size()));
  }
  void broadcast(std::initializer_list<Value> payload) {
    broadcast(SyncPayload(payload.begin(), payload.size()));
  }
  virtual void terminate(Value output) = 0;
  virtual void abort() = 0;
  [[nodiscard]] virtual ProcessorId id() const = 0;
  [[nodiscard]] virtual int network_size() const = 0;
  /// Current round, starting at 1.
  [[nodiscard]] virtual int round() const = 0;
  virtual RandomTape& tape() = 0;
};

class SyncStrategy {
 public:
  virtual ~SyncStrategy() = default;
  /// Called once per round with everything delivered this round (messages
  /// sent in the previous round), sorted by sender.
  virtual void on_round(SyncContext& ctx, const SyncInbox& inbox) = 0;
};

class SyncProtocol {
 public:
  virtual ~SyncProtocol() = default;
  /// The one strategy factory; see RingProtocol::emplace_strategy.
  [[nodiscard]] virtual SyncStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                       int n) const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual int round_bound(int n) const { return 4 * n + 8; }
};

struct SyncEngineOptions {
  int round_limit = 0;  ///< 0 = 4n + 8
};

struct SyncExecutionStats {
  std::uint64_t total_sent = 0;
  int rounds = 0;
  bool round_limit_hit = false;
};

class SyncEngine {
 public:
  SyncEngine(int n, std::uint64_t trial_seed, SyncEngineOptions options = {});
  ~SyncEngine();

  SyncEngine(const SyncEngine&) = delete;
  SyncEngine& operator=(const SyncEngine&) = delete;

  /// Rearms for a fresh execution (DESIGN.md §4): clears the round slabs
  /// and envelope lists in place and reseeds the tapes.
  void reset(std::uint64_t trial_seed);

  /// Non-owning profile run; see RingEngine::run.
  Outcome run(std::span<SyncStrategy* const> strategies);

  [[nodiscard]] const SyncExecutionStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::optional<LocalOutput>>& outputs() const {
    return outputs_;
  }
  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int round_limit() const { return options_.round_limit; }

  /// Optional execution transcript (see RingEngine::set_transcript).  Each
  /// round opens with a kPhase marker (round, deliveries this round), then
  /// one kDelivery per delivered message (round, receiver, fold of
  /// sender + payload) in the sorted-by-sender order strategies observe.
  void set_transcript(ExecutionTranscript* transcript) { transcript_ = transcript; }
  [[nodiscard]] ExecutionTranscript* transcript() const { return transcript_; }

 private:
  class Context;
  friend class Context;

  /// Where a queued message's payload sits in its round's slab.
  struct Envelope {
    ProcessorId from;
    std::size_t offset;
    std::size_t length;
  };
  /// Copies `payload` into the next-round slab; returns its offset.
  std::size_t stage(SyncPayload payload);
  /// Counts one send and queues its envelope unless `to` has terminated.
  void post(ProcessorId from, ProcessorId to, std::size_t offset, std::size_t length);

  int n_;
  std::uint64_t trial_seed_;
  SyncEngineOptions options_;
  bool armed_ = false;
  ExecutionTranscript* transcript_ = nullptr;

  std::vector<Context> contexts_;
  std::vector<std::optional<LocalOutput>> outputs_;
  std::vector<bool> terminated_;

  // Double-buffered by round: next_* collect this round's sends, round_*
  // hold this round's deliveries.  Envelope lists are per destination.
  std::vector<Value> next_slab_;
  std::vector<Value> round_slab_;
  std::vector<std::vector<Envelope>> next_mail_;
  std::vector<std::vector<Envelope>> round_mail_;
  SyncInbox inbox_;  ///< the running processor's delivery view
  int quiet_rounds_ = 0;
  SyncExecutionStats stats_;
};

/// Convenience: run `protocol` honestly.
Outcome run_honest_sync(const SyncProtocol& protocol, int n, std::uint64_t trial_seed,
                        SyncEngineOptions options = {});

}  // namespace fle
