// Full-information model: the turn-game substrate, Saks' pass-the-baton,
// and the one-round majority coin (paper Related Work comparators).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "api/scenario.h"
#include "fullinfo/baton.h"
#include "fullinfo/majority.h"
#include "fullinfo/turn_game.h"
#include "sim/transcript.h"
#include "verify/fuzzer.h"

namespace fle {
namespace {

TEST(BatonGame, PositionTracksHolderAndUnvisited) {
  BatonGame g(5);
  const auto position = g.new_position();
  const auto& baton = static_cast<const BatonPosition&>(*position);
  const auto unvisited = [&] {
    return std::vector<ProcessorId>(baton.unvisited().begin(), baton.unvisited().end());
  };
  EXPECT_EQ(position->mover(), 0);
  EXPECT_EQ(unvisited(), (std::vector<ProcessorId>{1, 2, 3, 4}));
  position->play(2);  // pass to the 3rd unvisited: player 3
  EXPECT_EQ(position->mover(), 3);
  EXPECT_EQ(unvisited(), (std::vector<ProcessorId>{1, 2, 4}));
  EXPECT_FALSE(position->finished());
  EXPECT_EQ(position->action_count(), 3u);
  EXPECT_EQ(std::vector<Value>(position->history().begin(), position->history().end()),
            (std::vector<Value>{2}));
  for (const Value action : {2, 0, 0}) position->play(action);  // 4, then 1, then 2
  EXPECT_TRUE(position->finished());
  EXPECT_EQ(position->outcome(), 2u);
  // reset() starts a fresh execution on the same position.
  position->reset();
  EXPECT_EQ(position->mover(), 0);
  EXPECT_EQ(unvisited(), (std::vector<ProcessorId>{1, 2, 3, 4}));
  EXPECT_TRUE(position->history().empty());
}

TEST(BatonGame, HonestElectsUniformlyAmongNonStarters) {
  const int n = 8;
  BatonGame g(n);
  const auto position = g.new_position();
  Xoshiro256 rng(42);
  std::vector<int> wins(static_cast<std::size_t>(n), 0);
  const int trials = 14000;
  for (int i = 0; i < trials; ++i) {
    ++wins[static_cast<std::size_t>(play_turn_game(*position, {}, nullptr, rng))];
  }
  EXPECT_EQ(wins[0], 0);  // the starter never receives the baton
  for (int p = 1; p < n; ++p) {
    EXPECT_NEAR(wins[static_cast<std::size_t>(p)], trials / (n - 1),
                5 * std::sqrt(trials / (n - 1.0)))
        << p;
  }
}

TEST(BatonGame, GreedyCoalitionBoostsTarget) {
  const int n = 16;
  BatonGame g(n);
  const auto position = g.new_position();
  const ProcessorId target = 9;
  Xoshiro256 rng(7);
  const int trials = 4000;
  double honest_rate = 0, small_rate = 0, large_rate = 0;
  {
    int hits = 0;
    for (int i = 0; i < trials; ++i) {
      hits += play_turn_game(*position, {}, nullptr, rng) == static_cast<Value>(target);
    }
    honest_rate = static_cast<double>(hits) / trials;
  }
  {
    std::vector<ProcessorId> coalition{1, 2};
    BatonGreedyAdversary adv(coalition, target);
    int hits = 0;
    for (int i = 0; i < trials; ++i) {
      hits += play_turn_game(*position, coalition, &adv, rng) == static_cast<Value>(target);
    }
    small_rate = static_cast<double>(hits) / trials;
  }
  {
    std::vector<ProcessorId> coalition{1, 2, 3, 4, 5, 6, 7, 8};
    BatonGreedyAdversary adv(coalition, target);
    int hits = 0;
    for (int i = 0; i < trials; ++i) {
      hits += play_turn_game(*position, coalition, &adv, rng) == static_cast<Value>(target);
    }
    large_rate = static_cast<double>(hits) / trials;
  }
  EXPECT_NEAR(honest_rate, 1.0 / (n - 1), 0.02);
  EXPECT_GT(small_rate, honest_rate);        // some influence
  EXPECT_GT(large_rate, 3 * honest_rate);    // large coalitions dominate
  EXPECT_GT(large_rate, small_rate);
}

TEST(BatonGame, CoalitionCannotElectTheStarter) {
  const int n = 6;
  BatonGame g(n);
  const auto position = g.new_position();
  std::vector<ProcessorId> coalition{1, 2, 3};
  BatonGreedyAdversary adv(coalition, 0);
  Xoshiro256 rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(play_turn_game(*position, coalition, &adv, rng), 0u);
  }
}

TEST(MajorityCoin, HonestIsFair) {
  const int n = 15;
  MajorityCoinGame g(n);
  const auto position = g.new_position();
  Xoshiro256 rng(11);
  int ones = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) ones += play_turn_game(*position, {}, nullptr, rng) == 1;
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.02);
}

TEST(MajorityCoin, TieBreaksToZeroOnEvenN) {
  MajorityCoinGame g(4);
  const auto position = g.new_position();
  const auto outcome = [&](std::initializer_list<Value> votes) {
    position->reset();
    for (const Value v : votes) position->play(v);
    EXPECT_TRUE(position->finished());
    return position->outcome();
  };
  EXPECT_EQ(outcome({1, 1, 0, 0}), 0u);
  EXPECT_EQ(outcome({1, 1, 1, 0}), 1u);
}

TEST(MajorityCoin, CoalitionBiasMatchesBinomialEstimate) {
  const int n = 25;
  MajorityCoinGame g(n);
  const auto position = g.new_position();
  Xoshiro256 rng(5);
  for (const int k : {1, 3, 5, 9}) {
    std::vector<ProcessorId> coalition;
    for (int i = 0; i < k; ++i) coalition.push_back(i);
    MajorityTargetAdversary adv(1);
    int ones = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
      ones += play_turn_game(*position, coalition, &adv, rng) == 1;
    }
    const double measured = static_cast<double>(ones) / trials - 0.5;
    const double predicted = majority_bias_estimate(n, k);
    EXPECT_NEAR(measured, predicted, 0.02) << "k=" << k;
  }
}

TEST(MajorityCoin, BiasGrowsLikeKOverSqrtN) {
  // Theta(k / sqrt(n)) scaling: doubling k roughly doubles the bias while
  // the bias is small.
  const int n = 101;
  const double b2 = majority_bias_estimate(n, 2);
  const double b4 = majority_bias_estimate(n, 4);
  const double b8 = majority_bias_estimate(n, 8);
  EXPECT_NEAR(b4 / b2, 2.0, 0.5);
  EXPECT_NEAR(b8 / b4, 2.0, 0.6);
  // And the absolute scale tracks the Gaussian slope: k / sqrt(2*pi*n).
  EXPECT_NEAR(b4, 4 / std::sqrt(2.0 * M_PI * n), 0.03);
}

TEST(TurnGame, AdversaryActionsAreClamped) {
  // An adversary returning an out-of-range action is reduced mod the bound,
  // never crashing the runner.
  class Wild final : public TurnAdversary {
   public:
    Value choose(const TurnPosition&, ProcessorId) const override {
      return 0xffff'ffffull;
    }
  };
  BatonGame g(5);
  const auto position = g.new_position();
  std::vector<ProcessorId> coalition{1, 2, 3, 4};
  Wild adv;
  Xoshiro256 rng(1);
  for (int i = 0; i < 50; ++i) {
    const Value leader = play_turn_game(*position, coalition, &adv, rng);
    EXPECT_LT(leader, 5u);
  }
}

TEST(TurnGame, RegisteredShapesMatchPinnedExecutions) {
  // Whole registered turn-game scenarios, pinned: the network-sync rows
  // (alternating XOR with the last mover, honest and greedy baton at
  // n = 64, the majority coin with a voting coalition), the Corollary F.4
  // leaf-edge game, and the E14 baton row with k = 32.  The outcome counts
  // and a fold of every trial's transcript digest (every mover and action)
  // must not move when the turn-game runtime changes.
  struct Pinned {
    const char* line;
    std::vector<std::size_t> counts;
    std::uint64_t digest_fold;
  };
  const Pinned pinned[] = {
      {"topology=tree protocol=alternating-xor deviation=xor-last-mover rounds=7 target=1 n=2 "
       "trials=2000 seed=201",
       {0, 2000}, 0x485acd0cbfff1403ull},
      {"topology=tree protocol=xor-leaf-edge n=2 trials=2000 seed=202", {993, 1007},
       0x887c4ecf21318ecaull},
      {"topology=fullinfo protocol=baton target=63 n=64 trials=2000 seed=203",
       {0, 25, 30, 38, 45, 41, 21, 33, 32, 32, 32, 21, 34, 23, 30, 37, 39, 34, 42, 27, 28,
        25, 27, 39, 33, 31, 27, 25, 30, 27, 32, 40, 29, 33, 35, 33, 34, 32, 35, 30, 38, 31,
        33, 28, 30, 32, 31, 29, 29, 26, 30, 30, 29, 24, 36, 31, 39, 36, 35, 37, 29, 32, 40,
        24},
       0xa0cf1b7868ba07dcull},
      {"topology=fullinfo protocol=baton deviation=baton-greedy placement=custom "
       "members=1,2,3,4,5,6,7,8 target=63 n=64 trials=2000 seed=204",
       {0, 51, 47, 73, 51, 52, 54, 48, 58, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 6, 6, 8, 7, 10,
        16, 14, 19, 18, 25, 23, 23, 22, 16, 41, 29, 29, 34, 26, 23, 43, 41, 43, 42, 39, 47,
        39, 40, 46, 57, 46, 53, 47, 54, 49, 43, 60, 51, 61, 49, 54, 41, 52, 72},
       0x9b713a564241e555ull},
      {"topology=fullinfo protocol=baton deviation=baton-greedy placement=custom "
       "members=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,"
       "29,30,31,32 target=63 n=64 trials=4000 seed=2056",
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 3, 2, 12, 9, 18, 35,
        58, 117, 132, 218, 375, 577, 935, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1507},
       0x4653ec2a415c9558ull},
      {"topology=fullinfo protocol=majority-coin deviation=majority-target placement=custom "
       "members=0,1,2,3 target=1 n=49 trials=5000 seed=205",
       {1349, 3651, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       0x35a8ec8f351aad57ull},
  };
  for (const Pinned& p : pinned) {
    ScenarioSpec spec = verify::parse_spec(p.line);
    spec.record_transcripts = true;
    spec.threads = 2;
    const ScenarioResult r = run_scenario(spec);
    EXPECT_EQ(r.outcomes.fails(), 0u) << p.line;
    std::vector<std::size_t> counts;
    for (int v = 0; v < r.outcomes.domain(); ++v) counts.push_back(r.outcomes.count(v));
    std::vector<std::uint64_t> digests;
    for (const ExecutionTranscript& t : r.per_trial_transcript) digests.push_back(t.digest());
    EXPECT_EQ(counts, p.counts) << p.line;
    EXPECT_EQ(transcript_fold(digests), p.digest_fold) << p.line;
  }
}

}  // namespace
}  // namespace fle
