// Threaded runtime: real threads + blocking queues must reproduce the
// deterministic engine's outcomes on the ring (paper §2: all oblivious
// schedules agree), detect quiescence, and survive attacks.

#include <gtest/gtest.h>

#include "api/scenario.h"
#include "attacks/basic_single.h"
#include "attacks/coalition.h"
#include "attacks/cubic.h"
#include "attacks/deviation.h"
#include "protocols/alead_uni.h"
#include "protocols/basic_lead.h"
#include "protocols/phase_async_lead.h"
#include "sim/engine.h"
#include "sim/threaded_runtime.h"
#include "verify/fuzzer.h"

namespace fle {
namespace {

TEST(Threaded, BasicLeadMatchesDeterministicEngine) {
  const int n = 8;
  BasicLeadProtocol protocol;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Outcome expected = run_honest(protocol, n, seed);
    const Outcome actual = run_honest_threaded(protocol, n, seed);
    EXPECT_EQ(actual, expected) << "seed=" << seed;
  }
}

TEST(Threaded, ALeadMatchesDeterministicEngine) {
  const int n = 10;
  ALeadUniProtocol protocol;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    EXPECT_EQ(run_honest_threaded(protocol, n, seed), run_honest(protocol, n, seed));
  }
}

TEST(Threaded, PhaseAsyncLeadMatchesDeterministicEngine) {
  const int n = 9;
  PhaseAsyncLeadProtocol protocol(n, 0x71ull);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    EXPECT_EQ(run_honest_threaded(protocol, n, seed), run_honest(protocol, n, seed));
  }
}

TEST(Threaded, LargeRingStress) {
  const int n = 128;
  PhaseAsyncLeadProtocol protocol(n, 0x99ull);
  const Outcome o = run_honest_threaded(protocol, n, 4242);
  ASSERT_TRUE(o.valid());
  EXPECT_EQ(o, run_honest(protocol, n, 4242));
}

TEST(Threaded, IndexingMatchesTheRingPerTrial) {
  // IndexingStrategy builds its inner strategy mid-run in the arena it was
  // emplaced in, so on real threads every processor has an arena of its
  // own; the per-trial outcomes still match the deterministic ring's.
  const ScenarioSpec threaded =
      verify::parse_spec("topology=threaded protocol=indexing+alead-uni n=8 trials=40 record=1");
  ScenarioSpec ring = threaded;
  ring.topology = TopologyKind::kRing;
  const ScenarioResult a = run_scenario(threaded);
  const ScenarioResult b = run_scenario(ring);
  ASSERT_EQ(a.per_trial.size(), 40u);
  EXPECT_EQ(a.per_trial, b.per_trial);
  EXPECT_EQ(a.outcomes.fails(), 0u);
}

TEST(Threaded, MessageCountsMatch) {
  const int n = 12;
  ALeadUniProtocol protocol;
  ThreadedRuntime runtime(n, 7);
  std::vector<StrategyArena> arenas(n);  // one per processor thread
  std::vector<RingStrategy*> s;
  for (ProcessorId p = 0; p < n; ++p) s.push_back(protocol.emplace_strategy(arenas[p], p, n));
  ASSERT_TRUE(runtime.run(s).valid());
  EXPECT_EQ(runtime.stats().total_sent, static_cast<std::uint64_t>(n) * n);
}

TEST(Threaded, QuiescenceDetectedOnSilentRing) {
  class Silent final : public RingStrategy {
    void on_receive(RingContext&, Value) override {}
  };
  ThreadedRuntime runtime(4, 1);
  StrategyArena arena;
  std::vector<RingStrategy*> s;
  for (int i = 0; i < 4; ++i) s.push_back(arena.emplace<Silent>());
  const Outcome o = runtime.run(s);
  EXPECT_TRUE(o.failed());
  EXPECT_TRUE(runtime.stats().quiesced);
  EXPECT_FALSE(runtime.stats().wall_timeout_hit);
}

TEST(Threaded, QuiescenceDetectedMidProtocol) {
  // One processor swallows everything: the ring stalls and must be stopped.
  const int n = 6;
  ALeadUniProtocol protocol;
  class BlackHole final : public RingStrategy {
    void on_receive(RingContext&, Value) override {}
  };
  ThreadedRuntime runtime(n, 3);
  std::vector<StrategyArena> arenas(n);
  std::vector<RingStrategy*> s;
  for (ProcessorId p = 0; p < n; ++p) {
    if (p == 2) {
      s.push_back(arenas[p].emplace<BlackHole>());
    } else {
      s.push_back(protocol.emplace_strategy(arenas[p], p, n));
    }
  }
  const Outcome o = runtime.run(s);
  EXPECT_TRUE(o.failed());
  EXPECT_TRUE(runtime.stats().quiesced);
}

TEST(Threaded, SendLimitStopsRunaways) {
  class PingPong final : public RingStrategy {
   public:
    void on_init(RingContext& ctx) override { ctx.send(0); }
    void on_receive(RingContext& ctx, Value v) override { ctx.send(v + 1); }
  };
  ThreadedRuntimeOptions options;
  options.send_limit = 200;
  ThreadedRuntime runtime(2, 1, options);
  StrategyArena arena;
  std::vector<RingStrategy*> s;
  s.push_back(arena.emplace<PingPong>());
  s.push_back(arena.emplace<PingPong>());
  const Outcome o = runtime.run(s);
  EXPECT_TRUE(o.failed());
  EXPECT_TRUE(runtime.stats().send_limit_hit);
}

TEST(Threaded, AttacksWorkOnRealThreads) {
  {
    const int n = 9;
    BasicLeadProtocol protocol;
    BasicSingleDeviation deviation(n, 4, 2);
    ThreadedRuntime runtime(n, 11);
    std::vector<StrategyArena> arenas(n);
    std::vector<RingStrategy*> profile;
    compose_profile_into(protocol, &deviation, n, arenas, profile);
    const Outcome o = runtime.run(profile);
    ASSERT_TRUE(o.valid());
    EXPECT_EQ(o.leader(), 2u);
  }
  {
    const int n = 60;
    ALeadUniProtocol protocol;
    const int k = Coalition::cubic_min_k(n);
    CubicDeviation deviation(Coalition::cubic_staircase(n, k), 7);
    ThreadedRuntime runtime(n, 12);
    std::vector<StrategyArena> arenas(n);
    std::vector<RingStrategy*> profile;
    compose_profile_into(protocol, &deviation, n, arenas, profile);
    const Outcome o = runtime.run(profile);
    ASSERT_TRUE(o.valid());
    EXPECT_EQ(o.leader(), 7u);
  }
}

}  // namespace
}  // namespace fle
