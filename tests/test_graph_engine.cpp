// General-topology asynchronous engine: link FIFO order, adjacency
// enforcement, quiescence, scheduler variants.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "api/scenario.h"
#include "sim/graph_engine.h"
#include "sim/transcript.h"
#include "verify/fuzzer.h"

namespace fle {
namespace {

/// Sends `count` numbered messages to a fixed destination at wake-up.
class GraphBurst final : public GraphStrategy {
 public:
  GraphBurst(ProcessorId to, int count) : to_(to), count_(count) {}
  void on_init(GraphContext& ctx) override {
    for (int i = 0; i < count_; ++i) ctx.send(to_, {static_cast<Value>(i)});
  }
  void on_receive(GraphContext& ctx, ProcessorId, GraphPayload) override {
    ctx.terminate(0);
  }

 private:
  ProcessorId to_;
  int count_;
};

/// Records (from, first value) pairs; terminates after `expect` receives.
class GraphRecorder final : public GraphStrategy {
 public:
  GraphRecorder(std::vector<std::pair<ProcessorId, Value>>* sink, int expect)
      : sink_(sink), expect_(expect) {}
  void on_receive(GraphContext& ctx, ProcessorId from, GraphPayload m) override {
    sink_->push_back({from, m.empty() ? ~0ull : m[0]});
    if (static_cast<int>(sink_->size()) >= expect_) {
      for (ProcessorId p = 0; p < ctx.network_size(); ++p) {
        if (p != ctx.id()) ctx.send(p, {0});
      }
      ctx.terminate(0);
    }
  }

 private:
  std::vector<std::pair<ProcessorId, Value>>* sink_;
  int expect_;
};

TEST(GraphEngine, PerLinkFifoOrder) {
  std::vector<std::pair<ProcessorId, Value>> received;
  GraphEngine engine(3, 1);
  StrategyArena arena;
  std::vector<GraphStrategy*> s;
  s.push_back(arena.emplace<GraphBurst>(2, 4));
  s.push_back(arena.emplace<GraphBurst>(2, 4));
  s.push_back(arena.emplace<GraphRecorder>(&received, 8));
  const Outcome o = engine.run(s);
  EXPECT_TRUE(o.valid());
  // Per-sender subsequences must be 0,1,2,3 in order.
  for (ProcessorId sender : {0, 1}) {
    Value expect = 0;
    for (const auto& [from, v] : received) {
      if (from != sender) continue;
      EXPECT_EQ(v, expect);
      ++expect;
    }
    EXPECT_EQ(expect, 4u);
  }
}

TEST(GraphEngine, AdjacencyRestrictionEnforced) {
  GraphEngineOptions options;
  options.adjacency.assign(3, std::vector<char>(3, 0));
  options.adjacency[0][1] = 1;  // only 0 -> 1 allowed
  GraphEngine engine(3, 1, std::move(options));
  class SendToForbidden final : public GraphStrategy {
   public:
    void on_init(GraphContext& ctx) override { ctx.send(2, {1}); }
    void on_receive(GraphContext&, ProcessorId, GraphPayload) override {}
  };
  StrategyArena arena;
  std::vector<GraphStrategy*> s;
  s.push_back(arena.emplace<SendToForbidden>());
  s.push_back(arena.emplace<SendToForbidden>());
  s.push_back(arena.emplace<SendToForbidden>());
  EXPECT_THROW(engine.run(s), std::invalid_argument);
}

TEST(GraphEngine, SelfSendRejected) {
  GraphEngine engine(2, 1);
  class SelfSend final : public GraphStrategy {
   public:
    void on_init(GraphContext& ctx) override { ctx.send(ctx.id(), {1}); }
    void on_receive(GraphContext&, ProcessorId, GraphPayload) override {}
  };
  StrategyArena arena;
  std::vector<GraphStrategy*> s;
  s.push_back(arena.emplace<SelfSend>());
  s.push_back(arena.emplace<SelfSend>());
  EXPECT_THROW(engine.run(s), std::invalid_argument);
}

TEST(GraphEngine, QuiescenceWithoutTerminationFails) {
  class Silent final : public GraphStrategy {
   public:
    void on_receive(GraphContext&, ProcessorId, GraphPayload) override {}
  };
  GraphEngine engine(3, 1);
  StrategyArena arena;
  std::vector<GraphStrategy*> s;
  for (int i = 0; i < 3; ++i) s.push_back(arena.emplace<Silent>());
  const Outcome o = engine.run(s);
  EXPECT_TRUE(o.failed());
  EXPECT_EQ(engine.stats().deliveries, 0u);
}

TEST(GraphEngine, StepLimitStopsPingPong) {
  class PingPong final : public GraphStrategy {
   public:
    void on_init(GraphContext& ctx) override {
      if (ctx.id() == 0) ctx.send(1, {0});
    }
    void on_receive(GraphContext& ctx, ProcessorId from, GraphPayload m) override {
      ctx.send(from, m);
    }
  };
  GraphEngineOptions options;
  options.step_limit = 64;
  GraphEngine engine(2, 1, std::move(options));
  StrategyArena arena;
  std::vector<GraphStrategy*> s;
  s.push_back(arena.emplace<PingPong>());
  s.push_back(arena.emplace<PingPong>());
  EXPECT_TRUE(engine.run(s).failed());
  EXPECT_TRUE(engine.stats().step_limit_hit);
}

TEST(GraphEngine, MessagesToTerminatedVanish) {
  class StopImmediately final : public GraphStrategy {
   public:
    void on_init(GraphContext& ctx) override { ctx.terminate(0); }
    void on_receive(GraphContext&, ProcessorId, GraphPayload) override {}
  };
  class Sender final : public GraphStrategy {
   public:
    void on_init(GraphContext& ctx) override {
      ctx.send(1, {7});
      ctx.terminate(0);
    }
    void on_receive(GraphContext&, ProcessorId, GraphPayload) override {}
  };
  GraphEngine engine(2, 1);
  StrategyArena arena;
  std::vector<GraphStrategy*> s;
  s.push_back(arena.emplace<Sender>());
  s.push_back(arena.emplace<StopImmediately>());
  const Outcome o = engine.run(s);
  EXPECT_TRUE(o.valid());
  EXPECT_EQ(engine.stats().received[1], 0u);
}

TEST(GraphEngine, CountsSentAndReceived) {
  std::vector<std::pair<ProcessorId, Value>> received;
  GraphEngine engine(2, 1);
  StrategyArena arena;
  std::vector<GraphStrategy*> s;
  s.push_back(arena.emplace<GraphBurst>(1, 5));
  s.push_back(arena.emplace<GraphRecorder>(&received, 5));
  ASSERT_TRUE(engine.run(s).valid());
  EXPECT_EQ(engine.stats().sent[0], 5u);
  EXPECT_EQ(engine.stats().received[1], 5u);
}

TEST(GraphEngine, ResentPayloadSurvivesSlabGrowth) {
  // Sends land in the same payload slab deliveries come from.  The relay
  // re-sends the span it was handed, floods the slab with filler (forcing
  // it to reallocate several times) and re-sends the span again: both
  // echoes must carry the original words.  Under ASan a span into the
  // moved slab would be a use-after-free.
  constexpr int kWords = 33;
  constexpr int kFiller = 512;
  std::vector<Value> original;
  for (int i = 0; i < kWords; ++i) original.push_back(static_cast<Value>(i) * 0x9e3779b9u + 5);

  class Source final : public GraphStrategy {
   public:
    explicit Source(const std::vector<Value>* payload) : payload_(payload) {}
    void on_init(GraphContext& ctx) override {
      ctx.send(1, *payload_);
      ctx.terminate(0);
    }
    void on_receive(GraphContext&, ProcessorId, GraphPayload) override {}

   private:
    const std::vector<Value>* payload_;
  };
  class Relay final : public GraphStrategy {
   public:
    void on_receive(GraphContext& ctx, ProcessorId, GraphPayload m) override {
      ctx.send(2, m);
      const std::vector<Value> filler(16, 7);
      for (int i = 0; i < kFiller; ++i) ctx.send(2, filler);
      ctx.send(2, m);
      ctx.terminate(0);
    }
  };
  class Sink final : public GraphStrategy {
   public:
    explicit Sink(std::vector<std::vector<Value>>* echoes) : echoes_(echoes) {}
    void on_receive(GraphContext& ctx, ProcessorId, GraphPayload m) override {
      if (m.size() == kWords) echoes_->emplace_back(m.begin(), m.end());
      if (++received_ == kFiller + 2) ctx.terminate(0);
    }

   private:
    std::vector<std::vector<Value>>* echoes_;
    int received_ = 0;
  };

  std::vector<std::vector<Value>> echoes;
  GraphEngine engine(3, 1);
  StrategyArena arena;
  std::vector<GraphStrategy*> s;
  s.push_back(arena.emplace<Source>(&original));
  s.push_back(arena.emplace<Relay>());
  s.push_back(arena.emplace<Sink>(&echoes));
  ASSERT_TRUE(engine.run(s).valid());
  ASSERT_EQ(echoes.size(), 2u);
  EXPECT_EQ(echoes[0], original);
  EXPECT_EQ(echoes[1], original);
}

TEST(GraphEngine, RegisteredGraphShapesMatchPinnedExecutions) {
  // The network-sync Shamir-LEAD shapes (honest n=8 and n=12, rushing k=5,
  // forging k=5) under both link schedules, pinned by outcome counts,
  // message totals and a fold of every trial's transcript digest.  In the
  // step-limited rows every trial hits the limit and fails, so they pin
  // where the limit cuts an execution.  Any change to the graph runtime or
  // the Shamir strategies that alters an execution moves these values.
  struct Pinned {
    const char* line;
    std::size_t fails;
    std::vector<std::size_t> counts;
    std::uint64_t total_messages;
    std::uint64_t max_messages;
    std::uint64_t digest_fold;
  };
  const Pinned pinned[] = {
      {"topology=graph protocol=shamir-lead n=8 trials=200 seed=161",
       0, {25, 24, 27, 24, 18, 29, 27, 26}, 33600, 168, 0x01c5d06a4f005b08ull},
      {"topology=graph protocol=shamir-lead n=12 trials=100 seed=162",
       0, {8, 8, 10, 8, 8, 9, 7, 5, 9, 9, 13, 6}, 39600, 396, 0x408a7d796f758a5aull},
      {"topology=graph protocol=shamir-lead deviation=shamir-rushing "
       "placement=consecutive k=5 first=1 target=7 n=8 trials=200 seed=163",
       0, {0, 0, 0, 0, 0, 0, 0, 200}, 36800, 184, 0xb3f785cf07e85e1bull},
      {"topology=graph protocol=shamir-lead deviation=shamir-forge "
       "placement=consecutive k=5 first=0 target=11 n=12 trials=100 seed=164",
       92, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8}, 40400, 404, 0xd0c97c718ee1d290ull},
      {"topology=graph protocol=shamir-lead n=8 trials=200 seed=161 scheduler=random",
       0, {25, 24, 27, 24, 18, 29, 27, 26}, 33600, 168, 0x0e66340ecbcdafb8ull},
      {"topology=graph protocol=shamir-lead n=12 trials=100 seed=162 scheduler=random",
       0, {8, 8, 10, 8, 8, 9, 7, 5, 9, 9, 13, 6}, 39600, 396, 0x9060fae0464daf56ull},
      {"topology=graph protocol=shamir-lead deviation=shamir-rushing "
       "placement=consecutive k=5 first=1 target=7 n=8 trials=200 seed=163 scheduler=random",
       0, {0, 0, 0, 0, 0, 0, 0, 200}, 36800, 184, 0x8248683f17bdd71full},
      {"topology=graph protocol=shamir-lead deviation=shamir-forge "
       "placement=consecutive k=5 first=0 target=11 n=12 trials=100 seed=164 scheduler=random",
       92, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8}, 40400, 404, 0x2e6220aa1711a7ccull},
      {"topology=graph protocol=shamir-lead n=8 trials=40 seed=165 step_limit=100",
       40, {0, 0, 0, 0, 0, 0, 0, 0}, 4760, 119, 0x693d91b8233165cfull},
      {"topology=graph protocol=shamir-lead n=8 trials=40 seed=165 step_limit=100 scheduler=random",
       40, {0, 0, 0, 0, 0, 0, 0, 0}, 4557, 126, 0x131987218f6ff25cull},
  };
  for (const Pinned& p : pinned) {
    ScenarioSpec spec = verify::parse_spec(p.line);
    spec.record_transcripts = true;
    spec.threads = 2;
    const ScenarioResult r = run_scenario(spec);
    std::vector<std::size_t> counts;
    for (int v = 0; v < r.outcomes.domain(); ++v) counts.push_back(r.outcomes.count(v));
    std::vector<std::uint64_t> digests;
    for (const ExecutionTranscript& t : r.per_trial_transcript) digests.push_back(t.digest());
    EXPECT_EQ(r.outcomes.fails(), p.fails) << p.line;
    EXPECT_EQ(counts, p.counts) << p.line;
    EXPECT_EQ(r.total_messages, p.total_messages) << p.line;
    EXPECT_EQ(r.max_messages, p.max_messages) << p.line;
    EXPECT_EQ(transcript_fold(digests), p.digest_fold) << p.line;
  }
}

}  // namespace
}  // namespace fle
