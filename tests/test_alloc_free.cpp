// Acceptance check for the zero-allocation execution model (DESIGN.md §4):
// once a reusable workspace is warm, a steady-state trial on the ring path
// — engine reset, arena rewind, strategy emplacement, full execution —
// performs zero heap allocations.  Verified with a counting global
// operator new installed for this test binary only.

#include <gtest/gtest.h>

#include "core/counting_new.inc"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/scenario.h"
#include "attacks/basic_single.h"
#include "attacks/coalition.h"
#include "attacks/deviation.h"
#include "attacks/graph_deviation.h"
#include "fullinfo/turn_game.h"
#include "protocols/alead_uni.h"
#include "protocols/basic_lead.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "sim/graph_engine.h"
#include "sim/lane_engine.h"
#include "sim/sync_engine.h"

namespace fle {
namespace {

std::uint64_t allocations() {
  return counting_new::allocations.load(std::memory_order_relaxed);
}

TEST(ZeroAllocation, ReusedRingTrialWithArenaIsAllocationFree) {
  const int n = 64;
  BasicLeadProtocol protocol;
  RingEngine engine(n, 1);
  StrategyArena arena;
  std::vector<RingStrategy*> profile;

  const auto trial = [&](std::uint64_t seed) {
    engine.reset(seed);
    arena.rewind();
    profile.clear();
    for (ProcessorId p = 0; p < n; ++p) {
      profile.push_back(protocol.emplace_strategy(arena, p, n));
    }
    return engine.run(std::span<RingStrategy* const>(profile));
  };

  // Warm-up: first trials size the arena chunks, queues and stat vectors.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) ASSERT_TRUE(trial(seed).valid());

  const std::uint64_t before = allocations();
  const Outcome outcome = trial(1234);
  const std::uint64_t after = allocations();
  EXPECT_TRUE(outcome.valid());
  EXPECT_EQ(after - before, 0u) << "steady-state honest ring trial allocated";
}

TEST(ZeroAllocation, AdversarialRingTrialSubstrateIsAllocationFree) {
  // The adversary's strategy buffers the honest stream in a private vector,
  // so a deviated trial is not literally allocation-free — but the
  // substrate (engine, inboxes, contexts, scheduler, arena, composition)
  // contributes nothing: the per-trial allocation count is exactly the
  // adversary's deterministic scratch growth, identical every trial, and
  // an honest trial on the same reused engine is back to zero.
  const int n = 32;
  BasicLeadProtocol protocol;
  BasicSingleDeviation deviation(n, /*adversary=*/3, /*target=*/7);
  RingEngine engine(n, 1);
  StrategyArena arena;
  std::vector<RingStrategy*> profile;

  const auto trial = [&](std::uint64_t seed, const Deviation* dev) {
    engine.reset(seed);
    arena.rewind();
    compose_profile_into(protocol, dev, n, arena, profile);
    return engine.run(std::span<RingStrategy* const>(profile));
  };

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(trial(seed, &deviation).valid());
  }

  const std::uint64_t before_a = allocations();
  ASSERT_TRUE(trial(99, &deviation).valid());
  const std::uint64_t scratch_a = allocations() - before_a;

  const std::uint64_t before_b = allocations();
  ASSERT_TRUE(trial(100, &deviation).valid());
  const std::uint64_t scratch_b = allocations() - before_b;

  EXPECT_EQ(scratch_a, scratch_b) << "substrate leaked allocations between trials";
  // buffered_ grows 1 -> n-1 by doubling: a handful of vector growths.
  EXPECT_LE(scratch_a, 8u);

  ASSERT_TRUE(trial(101, nullptr).valid());  // honest warm-up on same engine
  const std::uint64_t before_honest = allocations();
  ASSERT_TRUE(trial(102, nullptr).valid());
  EXPECT_EQ(allocations() - before_honest, 0u);
}

TEST(ZeroAllocation, RegisteredTamperProfilesAreAllocationFree) {
  // A tamper deviation wraps the protocol's honest strategy; the wrapped
  // strategy is emplaced into the same arena as its wrapper, so a tampered
  // trial on a reused engine with a warm arena allocates nothing.
  register_builtin_scenarios();
  const int n = 16;
  RingEngine engine(n, 1);
  StrategyArena arena;
  std::vector<RingStrategy*> profile;
  for (const char* name :
       {"tamper-flip", "tamper-drop", "tamper-duplicate", "tamper-extra-zero"}) {
    ScenarioSpec spec;
    spec.protocol = "basic-lead";
    spec.deviation = name;
    spec.coalition = CoalitionSpec::consecutive(1, 3);
    spec.n = n;
    const std::unique_ptr<RingProtocol> protocol =
        ProtocolRegistry::instance().at(spec.protocol).make_ring(spec, spec.seed);
    const std::unique_ptr<Deviation> deviation =
        DeviationRegistry::instance().at(spec.deviation).make_ring(*protocol, spec);
    const auto trial = [&](std::uint64_t seed) {
      engine.reset(seed);
      arena.rewind();
      compose_profile_into(*protocol, deviation.get(), n, arena, profile);
      return engine.run(std::span<RingStrategy* const>(profile));
    };
    for (std::uint64_t seed = 1; seed <= 3; ++seed) (void)trial(seed);

    const std::uint64_t before = allocations();
    const Outcome outcome = trial(1234);
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u) << "steady-state tampered trial allocated (" << name << ")";
    EXPECT_TRUE(outcome.failed()) << name;
  }
}

TEST(ZeroAllocation, RunHonestFastPathIsAllocationFree) {
  const int n = 48;
  BasicLeadProtocol protocol;
  // Warm the thread-local workspace run_honest maintains.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(run_honest(protocol, n, seed).valid());
  }
  const std::uint64_t before = allocations();
  const Outcome outcome = run_honest(protocol, n, 4321);
  const std::uint64_t after = allocations();
  EXPECT_TRUE(outcome.valid());
  EXPECT_EQ(after - before, 0u) << "run_honest steady state allocated";
}

TEST(ZeroAllocation, RegisteredGraphProfilesAreAllocationFree) {
  // The registered Shamir-LEAD profiles, not a toy: payloads are copied
  // into the engine's per-trial slab and delivered as span views, the
  // strategies' share/ready/reveal state and the attackers' pools live in
  // arena arrays, and reconstruction is a dot product against the
  // protocol's precomputed Lagrange table.  Once the slab, link queues and
  // arena chunks reach their high-water marks a whole trial allocates
  // nothing.  One engine and one arena serve all three profiles, as a
  // cached run_scenario workspace would.
  register_builtin_scenarios();
  const int n = 8;
  struct Profile {
    const char* deviation;
    CoalitionSpec coalition;
    Value target;
  };
  const Profile profiles[] = {
      {"", {}, 0},
      {"shamir-rushing", CoalitionSpec::consecutive(n / 2 + 1, 1), 7},  // k = t
      {"shamir-forge", CoalitionSpec::consecutive(n / 2, 0), 3},        // k = ceil(n/2)
  };
  GraphEngine engine(n, 1);
  StrategyArena arena;
  std::vector<GraphStrategy*> profile;
  for (const Profile& p : profiles) {
    ScenarioSpec spec;
    spec.topology = TopologyKind::kGraph;
    spec.protocol = "shamir-lead";
    spec.deviation = p.deviation;
    spec.coalition = p.coalition;
    spec.target = p.target;
    spec.n = n;
    const std::unique_ptr<GraphProtocol> protocol =
        ProtocolRegistry::instance().at(spec.protocol).make_graph(spec, spec.seed);
    std::unique_ptr<GraphDeviation> deviation;
    if (!spec.deviation.empty()) {
      deviation = DeviationRegistry::instance().at(spec.deviation).make_graph(*protocol, spec);
    }
    const auto trial = [&](std::uint64_t seed) {
      engine.reset(seed, /*schedule_seed=*/seed);
      arena.rewind();
      compose_profile_into(*protocol, deviation.get(), n, arena, profile);
      return engine.run(std::span<GraphStrategy* const>(profile));
    };
    for (std::uint64_t seed = 1; seed <= 3; ++seed) ASSERT_TRUE(trial(seed).valid());

    const std::uint64_t before = allocations();
    const Outcome outcome = trial(1234);
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u) << "steady-state graph trial allocated (shamir-lead "
                                  << p.deviation << ")";
    ASSERT_TRUE(outcome.valid()) << p.deviation;
    // Both attacks control the outcome at these coalition sizes.
    if (deviation) {
      EXPECT_EQ(outcome.leader(), p.target) << p.deviation;
    }
  }
}

// Sync counterpart: round 1 everyone broadcasts an empty message, round 2
// everyone has heard from everyone and terminates with 0.
class SyncEchoStrategy final : public SyncStrategy {
 public:
  void on_round(SyncContext& ctx, const SyncInbox& inbox) override {
    if (ctx.round() == 1) {
      ctx.broadcast({});
      return;
    }
    if (static_cast<int>(inbox.size()) == ctx.network_size() - 1) ctx.terminate(0);
  }
};

class SyncEchoProtocol final : public SyncProtocol {
 public:
  SyncStrategy* emplace_strategy(StrategyArena& arena, ProcessorId, int) const override {
    return arena.emplace<SyncEchoStrategy>();
  }
  const char* name() const override { return "sync-echo"; }
};

TEST(ZeroAllocation, ReusedSyncTrialSubstrateIsAllocationFree) {
  const int n = 16;
  SyncEchoProtocol protocol;
  SyncEngine engine(n, 1);
  StrategyArena arena;
  std::vector<SyncStrategy*> profile;

  const auto trial = [&](std::uint64_t seed) {
    engine.reset(seed);
    arena.rewind();
    profile.clear();
    for (ProcessorId p = 0; p < n; ++p) {
      profile.push_back(protocol.emplace_strategy(arena, p, n));
    }
    return engine.run(std::span<SyncStrategy* const>(profile));
  };

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Outcome o = trial(seed);
    ASSERT_TRUE(o.valid());
    ASSERT_EQ(o.leader(), 0u);
  }

  const std::uint64_t before = allocations();
  const Outcome outcome = trial(1234);
  const std::uint64_t after = allocations();
  EXPECT_TRUE(outcome.valid());
  EXPECT_EQ(after - before, 0u) << "steady-state sync trial allocated";
}

TEST(ZeroAllocation, LaneEngineWindowIsAllocationFree) {
  // The batched lane path (DESIGN.md §10) shares the zero-allocation
  // contract: once the SoA columns and the trial control block are warm, a
  // whole trial window — column resets, retirements and all — allocates
  // nothing.
  const int n = 32;
  LaneEngineOptions options;
  for (const LaneKernelId kernel :
       {LaneKernelId::kBasicLead, LaneKernelId::kChangRoberts, LaneKernelId::kALeadUni}) {
    LaneEngine engine(n, kernel, options);
    std::vector<std::uint64_t> seeds(24);
    std::vector<LaneTrialResult> results(24);
    for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 1000 + i;
    engine.run_window(seeds, results);  // warm-up sizes every vector

    const std::uint64_t before = allocations();
    engine.run_window(seeds, results);
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "steady-state lane window allocated (" << to_string(kernel) << ")";
    for (const LaneTrialResult& r : results) EXPECT_TRUE(r.outcome.valid());
  }
}

TEST(ZeroAllocation, LaneEngineGeneralPathWindowIsAllocationFree) {
  // With the analytic fast paths off, every trial runs the general burst
  // loop over the ring-buffer inbox column; after the first window
  // establishes the column's high-water capacity, pushes and pops never
  // touch the allocator.
  const int n = 32;
  LaneEngineOptions options;
  options.fast_paths = false;
  for (const LaneKernelId kernel :
       {LaneKernelId::kBasicLead, LaneKernelId::kChangRoberts, LaneKernelId::kALeadUni}) {
    LaneEngine engine(n, kernel, options);
    std::vector<std::uint64_t> seeds(24);
    std::vector<LaneTrialResult> results(24);
    for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 2000 + i;
    engine.run_window(seeds, results);  // warm-up sizes column + vectors

    const std::uint64_t before = allocations();
    engine.run_window(seeds, results);
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "steady-state general-path lane window allocated (" << to_string(kernel) << ")";
    for (const LaneTrialResult& r : results) EXPECT_TRUE(r.outcome.valid());
  }
}

TEST(ZeroAllocation, DeviatedLaneWindowIsAllocationFree) {
  // The deviated kernels' member bursts (replay buffers in the aux column,
  // padding sends) reuse the same flat storage.
  const int n = 12;
  LaneEngineOptions options;
  options.fast_paths = false;
  options.deviation.id = LaneDeviationId::kRushing;
  options.deviation.members = {1, 4, 7, 10};
  options.deviation.segment_lengths = {2, 2, 2, 2};
  options.deviation.target = 5;
  LaneEngine engine(n, LaneKernelId::kALeadUni, options);
  std::vector<std::uint64_t> seeds(16);
  std::vector<LaneTrialResult> results(16);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 3000 + i;
  engine.run_window(seeds, results);  // warm-up

  const std::uint64_t before = allocations();
  engine.run_window(seeds, results);
  EXPECT_EQ(allocations() - before, 0u) << "steady-state deviated lane window allocated";
  for (const LaneTrialResult& r : results) {
    EXPECT_TRUE(r.outcome.valid());
    EXPECT_EQ(r.outcome.leader(), 5u);  // rushing forces the target
  }
}

TEST(ZeroAllocation, RegisteredSyncProfilesAreAllocationFree) {
  // The registered sync protocols and E15 deviations, not a toy: their
  // one-word payloads are copied into the engine's round slab and
  // delivered as span views, so once the slabs, envelope lists and inbox
  // view reach their high-water marks a whole trial allocates nothing.
  // One engine and one arena serve all four profiles, as a cached
  // run_scenario workspace would.
  register_builtin_scenarios();
  const int n = 16;
  struct Profile {
    const char* protocol;
    const char* deviation;
    CoalitionSpec coalition;
  };
  const Profile profiles[] = {
      {"sync-broadcast-lead", "", {}},
      {"sync-ring-lead", "", {}},
      {"sync-broadcast-lead", "sync-late-broadcast", CoalitionSpec::consecutive(1, 1)},
      {"sync-broadcast-lead", "sync-blind-collusion", CoalitionSpec::consecutive(n - 1, 1)},
  };
  SyncEngine engine(n, 1);
  StrategyArena arena;
  std::vector<SyncStrategy*> profile;
  for (const Profile& p : profiles) {
    ScenarioSpec spec;
    spec.topology = TopologyKind::kSync;
    spec.protocol = p.protocol;
    spec.deviation = p.deviation;
    spec.coalition = p.coalition;
    spec.n = n;
    const std::unique_ptr<SyncProtocol> protocol =
        ProtocolRegistry::instance().at(spec.protocol).make_sync(spec, spec.seed);
    std::unique_ptr<SyncDeviation> deviation;
    if (!spec.deviation.empty()) {
      deviation = DeviationRegistry::instance().at(spec.deviation).make_sync(*protocol, spec);
    }
    const auto trial = [&](std::uint64_t seed) {
      engine.reset(seed);
      arena.rewind();
      compose_profile_into(*protocol, deviation.get(), n, arena, profile);
      return engine.run(std::span<SyncStrategy* const>(profile));
    };
    for (std::uint64_t seed = 1; seed <= 3; ++seed) (void)trial(seed);

    const std::uint64_t before = allocations();
    const Outcome outcome = trial(1234);
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u) << "steady-state sync trial allocated (" << p.protocol << " "
                                  << p.deviation << ")";
    EXPECT_GT(engine.stats().total_sent, 0u);
    // Only the late broadcaster is detected (E15).
    EXPECT_EQ(outcome.failed(), spec.deviation == "sync-late-broadcast") << p.deviation;
  }
}

TEST(ZeroAllocation, RegisteredTurnGameProfilesAreAllocationFree) {
  // Every registered turn game, honest and under every registered turn
  // deviation whose factories accept it, on one position per game and one
  // adversary per profile, as a cached run_scenario workspace runs them.
  // Positions keep incremental state in storage reserved at construction
  // (the history, the baton's unvisited set), so once built a whole
  // execution allocates nothing.
  register_builtin_scenarios();
  std::vector<std::string> turn_deviations{""};
  for (const std::string& name : DeviationRegistry::instance().names()) {
    if (DeviationRegistry::instance().at(name).make_turn) turn_deviations.push_back(name);
  }
  std::vector<std::string> profiles;
  for (const std::string& protocol : ProtocolRegistry::instance().names()) {
    const ProtocolEntry& entry = ProtocolRegistry::instance().at(protocol);
    if (!entry.make_game) continue;
    ScenarioSpec spec;
    spec.topology = TopologyKind::kFullInfo;
    spec.protocol = protocol;
    spec.n = 16;
    spec.rounds = 5;
    spec.coalition = CoalitionSpec::custom({1, 2, 3});
    spec.target = 1;
    const std::shared_ptr<const TurnGame> game = entry.make_game(spec);
    const std::unique_ptr<TurnPosition> position = game->new_position();
    for (const std::string& deviation : turn_deviations) {
      std::vector<ProcessorId> coalition;
      std::unique_ptr<TurnAdversary> adversary;
      if (!deviation.empty()) {
        const DeviationEntry& d = DeviationRegistry::instance().at(deviation);
        try {
          coalition = d.turn_coalition(*game, spec);
          adversary = d.make_turn(*game, spec);
        } catch (const std::invalid_argument&) {
          continue;  // the deviation does not apply to this game
        }
      }
      const auto trial = [&](std::uint64_t seed) {
        Xoshiro256 rng(seed);
        return play_turn_game(*position, coalition, adversary.get(), rng);
      };
      for (std::uint64_t seed = 1; seed <= 3; ++seed) (void)trial(seed);

      const std::uint64_t before = allocations();
      const Value outcome = trial(1234);
      const std::uint64_t after = allocations();
      EXPECT_EQ(after - before, 0u)
          << "steady-state turn-game trial allocated (" << protocol << " " << deviation << ")";
      EXPECT_LT(outcome, static_cast<Value>(game->players()));
      profiles.push_back(protocol + "+" + deviation);
    }
  }
  for (const char* expected : {"baton+", "baton+baton-greedy", "majority-coin+",
                               "majority-coin+majority-target", "alternating-xor+",
                               "alternating-xor+xor-last-mover", "xor-leaf-edge+"}) {
    EXPECT_NE(std::find(profiles.begin(), profiles.end(), expected), profiles.end())
        << expected;
  }
}

TEST(ZeroAllocation, ALeadUniSteadyStateStaysBounded) {
  // A-LEADuni strategies are scalar-state too, so the whole trial is also
  // allocation-free once warm — documenting that the property is not
  // special to Basic-LEAD.
  const int n = 32;
  ALeadUniProtocol protocol;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_TRUE(run_honest(protocol, n, seed).valid());
  }
  const std::uint64_t before = allocations();
  ASSERT_TRUE(run_honest(protocol, n, 777).valid());
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(ZeroAllocation, RunScenarioAllocationsDoNotGrowWithTrials) {
  // The scenario layer end to end at threads=1: once the executor thread's
  // workspace is warm, a run allocates only per-run structures (result,
  // slots, the batch body), never per trial — so T=1000 and T=2000 runs
  // allocate the same count, on the per-trial scalar bodies (ring, sync,
  // graph and turn game) and on the window-staging lane body alike.
  ScenarioSpec scalar;
  scalar.protocol = "alead-uni";
  scalar.n = 16;
  scalar.scheduler = SchedulerKind::kRandom;
  scalar.seed = 5;
  scalar.engine = EngineKind::kScalar;
  ScenarioSpec lanes = scalar;
  lanes.engine = EngineKind::kLanes;
  ScenarioSpec sync;
  sync.topology = TopologyKind::kSync;
  sync.protocol = "sync-ring-lead";
  sync.n = 16;
  sync.seed = 5;
  sync.engine = EngineKind::kAuto;
  ScenarioSpec graph;
  graph.topology = TopologyKind::kGraph;
  graph.protocol = "shamir-lead";
  graph.n = 8;
  graph.seed = 5;
  ScenarioSpec turn;
  turn.topology = TopologyKind::kFullInfo;
  turn.protocol = "baton";
  turn.deviation = "baton-greedy";
  turn.coalition = CoalitionSpec::custom({1, 2, 3, 4});
  turn.target = 15;
  turn.n = 16;
  turn.seed = 5;

  for (ScenarioSpec spec : {scalar, lanes, sync, graph, turn}) {
    spec.threads = 1;
    const auto run_counting = [&spec](std::size_t trials) {
      spec.trials = trials;
      const std::uint64_t before = allocations();
      const ScenarioResult result = run_scenario(spec);
      const std::uint64_t count = allocations() - before;
      EXPECT_EQ(result.outcomes.fails(), 0u);
      return count;
    };
    // Warm-up at the larger size: builds the cached engine workspace and
    // grows the lane staging vectors to the largest window either run uses.
    run_counting(2000);
    const std::uint64_t small = run_counting(1000);
    const std::uint64_t large = run_counting(2000);
    EXPECT_EQ(small, large) << spec.protocol << " engine=" << to_string(spec.engine);
  }
}

}  // namespace
}  // namespace fle
