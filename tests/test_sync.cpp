// Synchronous scenarios (Section 1.1): lockstep engine semantics and the
// k = n-1 resilience of the synchronous broadcast/ring elections.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "api/scenario.h"
#include "protocols/sync_lead.h"
#include "sim/sync_engine.h"
#include "sim/transcript.h"
#include "verify/fuzzer.h"

namespace fle {
namespace {

TEST(SyncEngine, RoundsDeliverSimultaneously) {
  // Sender emits in round 1; receiver must see it in round 2, not round 1.
  class Probe final : public SyncStrategy {
   public:
    explicit Probe(std::vector<int>* log) : log_(log) {}
    void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
      if (ctx.id() == 0 && ctx.round() == 1) ctx.send(1, {42});
      if (ctx.id() == 1 && !inbox.empty()) {
        log_->push_back(ctx.round());
        ctx.terminate(0);
      }
      if (ctx.id() == 0 && ctx.round() == 2) ctx.terminate(0);
    }

   private:
    std::vector<int>* log_;
  };
  std::vector<int> log;
  SyncEngine engine(2, 1);
  StrategyArena arena;
  std::vector<SyncStrategy*> s;
  s.push_back(arena.emplace<Probe>(&log));
  s.push_back(arena.emplace<Probe>(&log));
  ASSERT_TRUE(engine.run(s).valid());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 2);
}

TEST(SyncEngine, RoundLimitStopsSpinners) {
  class Spinner final : public SyncStrategy {
   public:
    void on_round(SyncContext& ctx, const SyncInbox&) override {
      ctx.send(ring_succ(ctx.id(), ctx.network_size()), {0});
    }
  };
  SyncEngineOptions options;
  options.round_limit = 10;
  SyncEngine engine(3, 1, options);
  StrategyArena arena;
  std::vector<SyncStrategy*> s;
  for (int i = 0; i < 3; ++i) s.push_back(arena.emplace<Spinner>());
  EXPECT_TRUE(engine.run(s).failed());
  EXPECT_TRUE(engine.stats().round_limit_hit);
}

TEST(SyncEngine, PayloadsAreCopiedIntoTheRoundSlab) {
  // Multi-word payloads arrive intact; a
  // delivered payload (a view into this round's slab) can be forwarded
  // as-is, and the caller's own buffer may change right after a send.
  class Relay final : public SyncStrategy {
   public:
    explicit Relay(std::vector<std::vector<Value>>* seen) : seen_(seen) {}
    void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
      if (ctx.id() == 0 && ctx.round() == 1) {
        std::vector<Value> words = {7, 8, 9};
        ctx.send(1, words);
        words.assign({1, 2});
        ctx.send(1, words);
        ctx.broadcast({5});
      }
      if (ctx.id() == 1 && ctx.round() == 2) {
        for (const auto& [from, payload] : inbox) {
          if (from == 0 && payload.size() > 1) ctx.send(2, payload);
        }
      }
      if (ctx.id() == 2) {
        for (const auto& [from, payload] : inbox) {
          seen_->push_back({static_cast<Value>(ctx.round()), static_cast<Value>(from)});
          seen_->back().insert(seen_->back().end(), payload.begin(), payload.end());
        }
      }
      if (ctx.round() == 3) ctx.terminate(0);
    }

   private:
    std::vector<std::vector<Value>>* seen_;
  };
  std::vector<std::vector<Value>> seen;
  SyncEngine engine(3, 1);
  StrategyArena arena;
  std::vector<SyncStrategy*> s;
  for (int p = 0; p < 3; ++p) s.push_back(arena.emplace<Relay>(&seen));
  ASSERT_TRUE(engine.run(s).valid());
  const std::vector<std::vector<Value>> expected = {
      {2, 0, 5}, {3, 1, 7, 8, 9}, {3, 1, 1, 2}};  // (round, sender, words...)
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(engine.stats().total_sent, 6u);
}

// Golden executions of the registered sync shapes (plus a starving round
// limit) through run_scenario: outcome counts, message totals, the round
// maximum and a fold of every trial's transcript digest.  Any change to
// delivery order, message accounting, the round structure or the
// transcript stream of the sync round loop fails here.
TEST(SyncEngine, RegisteredShapesMatchPinnedExecutions) {
  struct Pinned {
    const char* line;
    std::size_t fails;
    std::vector<std::size_t> counts;
    std::uint64_t total_messages;
    int max_rounds;
    std::uint64_t digest_fold;
  };
  const Pinned pinned[] = {
      {"topology=sync protocol=sync-broadcast-lead n=16 trials=200 seed=111", 0,
       {15, 11, 11, 11, 10, 15, 10, 13, 14, 8, 13, 14, 12, 18, 14, 11}, 48000, 3,
       0x54499ca72d25c2c2ull},
      {"topology=sync protocol=sync-ring-lead n=12 trials=200 seed=112", 0,
       {14, 17, 17, 18, 16, 14, 26, 15, 14, 17, 15, 17}, 26400, 13, 0x19356d54da42748full},
      {"topology=sync protocol=sync-broadcast-lead deviation=sync-late-broadcast "
       "placement=consecutive k=1 first=1 n=16 trials=100 seed=113",
       100, std::vector<std::size_t>(16, 0), 24000, 4, 0x144ae238b4f62980ull},
      {"topology=sync protocol=sync-broadcast-lead deviation=sync-blind-collusion "
       "placement=custom members=0,1,2,3,4,5,6,7,9,10,11,12,13,14,15 n=16 trials=200 seed=114",
       0, {16, 13, 6, 9, 8, 18, 11, 13, 14, 15, 8, 14, 15, 10, 20, 10}, 48000, 3,
       0xa53be61ac39a25e5ull},
      {"topology=sync protocol=sync-ring-lead n=10 trials=24 seed=99 step_limit=4", 24,
       std::vector<std::size_t>(10, 0), 960, 4, 0x550bb4bb9acd456bull},
  };
  for (const Pinned& p : pinned) {
    ScenarioSpec spec = verify::parse_spec(p.line);
    spec.record_transcripts = true;
    spec.threads = 2;
    const ScenarioResult r = run_scenario(spec);
    EXPECT_EQ(r.outcomes.fails(), p.fails) << p.line;
    std::vector<std::size_t> counts;
    for (int v = 0; v < r.outcomes.domain(); ++v) counts.push_back(r.outcomes.count(v));
    EXPECT_EQ(counts, p.counts) << p.line;
    EXPECT_EQ(r.total_messages, p.total_messages) << p.line;
    EXPECT_EQ(r.max_rounds, p.max_rounds) << p.line;
    std::vector<std::uint64_t> digests;
    for (const ExecutionTranscript& t : r.per_trial_transcript) digests.push_back(t.digest());
    EXPECT_EQ(transcript_fold(digests), p.digest_fold) << p.line;
  }
}

TEST(SyncBroadcastLead, HonestElectsValidLeader) {
  SyncBroadcastLeadProtocol protocol;
  for (int n : {2, 3, 8, 20}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      const Outcome o = run_honest_sync(protocol, n, seed * 11 + 1);
      ASSERT_TRUE(o.valid()) << "n=" << n << " seed=" << seed;
      ASSERT_LT(o.leader(), static_cast<Value>(n));
    }
  }
}

TEST(SyncBroadcastLead, OutcomeIsSumOfSecrets) {
  const int n = 7;
  SyncBroadcastLeadProtocol protocol;
  for (std::uint64_t seed : {3ull, 33ull}) {
    Value expected = 0;
    for (ProcessorId p = 0; p < n; ++p) {
      RandomTape tape(seed, p);
      expected = (expected + tape.uniform(static_cast<Value>(n))) % n;
    }
    const Outcome o = run_honest_sync(protocol, n, seed);
    ASSERT_TRUE(o.valid());
    EXPECT_EQ(o.leader(), expected);
  }
}

TEST(SyncRingLead, HonestElectsValidLeader) {
  SyncRingLeadProtocol protocol;
  for (int n : {2, 3, 9, 16}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      const Outcome o = run_honest_sync(protocol, n, seed * 13 + 5);
      ASSERT_TRUE(o.valid()) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(SyncRingLead, MatchesBroadcastOutcome) {
  // Same secrets (same tapes), same sum: the two synchronous protocols
  // agree trial for trial.
  const int n = 9;
  SyncBroadcastLeadProtocol bc;
  SyncRingLeadProtocol ring;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    EXPECT_EQ(run_honest_sync(bc, n, seed), run_honest_sync(ring, n, seed));
  }
}

// --- deviations --------------------------------------------------------------

/// Broadcasts one round late — the rushing move that wins in asynchrony.
class LateBroadcaster final : public SyncStrategy {
 public:
  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    const auto n = static_cast<Value>(ctx.network_size());
    if (ctx.round() == 1) return;  // wait: see everyone's secrets first
    if (ctx.round() == 2) {
      Value others = 0;
      for (const auto& [from, m] : inbox) others = (others + m[0]) % n;
      ctx.broadcast({(0 + n - others) % n});  // aim for leader 0
      return;
    }
    ctx.terminate(0);
  }
};

TEST(SyncBroadcastLead, LateBroadcasterIsDetected) {
  // In the synchronous model the round-2 validation sees a missing round-1
  // value: the would-be rushing attack cannot exist.
  const int n = 8;
  SyncBroadcastLeadProtocol protocol;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SyncEngine engine(n, seed);
    StrategyArena arena;
    std::vector<SyncStrategy*> s;
    for (ProcessorId p = 0; p < n; ++p) {
      if (p == 3) {
        s.push_back(arena.emplace<LateBroadcaster>());
      } else {
        s.push_back(protocol.emplace_strategy(arena, p, n));
      }
    }
    EXPECT_TRUE(engine.run(s).failed()) << seed;
  }
}

/// Sends legal but adversarially fixed values in round 1 (the strongest
/// undetectable deviation under synchrony).
class BlindFixedValue final : public SyncStrategy {
 public:
  explicit BlindFixedValue(Value v) : v_(v) {}
  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    const auto n = static_cast<Value>(ctx.network_size());
    if (ctx.round() == 1) {
      ctx.broadcast({v_ % n});
      return;
    }
    if (static_cast<int>(inbox.size()) != ctx.network_size() - 1) return ctx.abort();
    Value sum = v_ % n;
    for (const auto& [from, m] : inbox) sum = (sum + m[0]) % n;
    ctx.terminate(sum);
  }

 private:
  Value v_;
};

TEST(SyncBroadcastLead, NMinusOneColludersGainNothing) {
  // The paper's k = n-1 resilience: all but one processor collude on fixed
  // values; the single honest uniform secret keeps the outcome uniform.
  const int n = 6;
  SyncBroadcastLeadProtocol protocol;
  std::vector<int> counts(static_cast<std::size_t>(n), 0);
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    SyncEngine engine(n, static_cast<std::uint64_t>(t) * 17 + 3);
    StrategyArena arena;
    std::vector<SyncStrategy*> s;
    for (ProcessorId p = 0; p < n; ++p) {
      if (p == 2) {
        s.push_back(protocol.emplace_strategy(arena, p, n));  // the lone honest one
      } else {
        s.push_back(arena.emplace<BlindFixedValue>(static_cast<Value>(p)));
      }
    }
    const Outcome o = engine.run(s);
    ASSERT_TRUE(o.valid());
    ++counts[static_cast<std::size_t>(o.leader())];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, trials / n, 5 * std::sqrt(trials / static_cast<double>(n)));
  }
}

TEST(SyncRingLead, SilentProcessorDetected) {
  const int n = 7;
  SyncRingLeadProtocol protocol;
  class Silent final : public SyncStrategy {
   public:
    void on_round(SyncContext& ctx, const SyncInbox&) override {
      if (ctx.round() > ctx.network_size()) ctx.terminate(0);
    }
  };
  SyncEngine engine(n, 9);
  StrategyArena arena;
  std::vector<SyncStrategy*> s;
  for (ProcessorId p = 0; p < n; ++p) {
    if (p == 4) {
      s.push_back(arena.emplace<Silent>());
    } else {
      s.push_back(protocol.emplace_strategy(arena, p, n));
    }
  }
  EXPECT_TRUE(engine.run(s).failed());
}

TEST(SyncRingLead, DoubleSenderDetected) {
  const int n = 6;
  SyncRingLeadProtocol protocol;
  class DoubleSender final : public SyncStrategy {
   public:
    void on_round(SyncContext& ctx, const SyncInbox&) override {
      const ProcessorId succ = ring_succ(ctx.id(), ctx.network_size());
      if (ctx.round() == 1) {
        ctx.send(succ, {1});
        ctx.send(succ, {2});  // off-schedule extra message
        return;
      }
      if (ctx.round() >= ctx.network_size()) ctx.terminate(0);
    }
  };
  SyncEngine engine(n, 4);
  StrategyArena arena;
  std::vector<SyncStrategy*> s;
  for (ProcessorId p = 0; p < n; ++p) {
    if (p == 1) {
      s.push_back(arena.emplace<DoubleSender>());
    } else {
      s.push_back(protocol.emplace_strategy(arena, p, n));
    }
  }
  EXPECT_TRUE(engine.run(s).failed());
}

}  // namespace
}  // namespace fle
