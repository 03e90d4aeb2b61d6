// Lemma F.2 (two-party dictatorship), the coalition solver, compound
// players (Lemma F.3's absorb step) and the Theorem 7.2 witness search.

#include <gtest/gtest.h>

#include "core/rng.h"
#include "sim/transcript.h"
#include "trees/tree_protocols.h"
#include "trees/two_party.h"

namespace fle {
namespace {

TEST(GameTree, LeafAndChoiceConstruction) {
  std::vector<std::unique_ptr<GameNode>> kids;
  kids.push_back(GameTree::leaf(0));
  kids.push_back(GameTree::leaf(1));
  GameTree g(GameTree::choice(0, std::move(kids)), 2);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.depth(), 1);
  EXPECT_DOUBLE_EQ(g.uniform_value(), 0.5);
}

TEST(GameTree, OwnerOfLastMoveDictates) {
  // A single binary choice by player 0 with both outcomes available.
  std::vector<std::unique_ptr<GameNode>> kids;
  kids.push_back(GameTree::leaf(0));
  kids.push_back(GameTree::leaf(1));
  GameTree g(GameTree::choice(0, std::move(kids)), 2);
  EXPECT_TRUE(g.assures(0b01, 0));
  EXPECT_TRUE(g.assures(0b01, 1));
  EXPECT_FALSE(g.assures(0b10, 0));
  EXPECT_FALSE(g.assures(0b10, 1));
  const auto r = solve_two_party(g);
  EXPECT_TRUE(r.has_dictator());
}

class LemmaF2Property : public ::testing::TestWithParam<int> {};

TEST_P(LemmaF2Property, DisjunctionsHoldOnRandomProtocols) {
  const int depth = GetParam();
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto g = GameTree::random(2, depth, 3, seed);
    const auto r = solve_two_party(g);
    EXPECT_TRUE(r.disjunction_one()) << "seed=" << seed;  // A assures 0 or B assures 1
    EXPECT_TRUE(r.disjunction_two()) << "seed=" << seed;  // A assures 1 or B assures 0
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, LemmaF2Property, ::testing::Values(1, 2, 3, 5, 7));

TEST(LemmaF2, FairProtocolsStillHaveAssuringPlayer) {
  // Restricting attention to near-fair trees (uniform value ~ 1/2) — honest
  // executions toss a near-fair coin — some player still assures some
  // outcome: resilient fair coin toss between two parties is impossible.
  int fair_trees = 0;
  for (std::uint64_t seed = 0; seed < 2000 && fair_trees < 40; ++seed) {
    const auto g = GameTree::random(2, 4, 3, seed);
    if (std::abs(g.uniform_value() - 0.5) > 0.1) continue;
    ++fair_trees;
    const auto r = solve_two_party(g);
    EXPECT_TRUE(r.a_assures_0 || r.a_assures_1 || r.b_assures_0 || r.b_assures_1)
        << "seed=" << seed;
  }
  ASSERT_GE(fair_trees, 20);
}

TEST(GameTree, ExtractedStrategyForcesOutcome) {
  Xoshiro256 rng(13);
  int verified = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const auto g = GameTree::random(2, 5, 3, seed);
    for (int bit = 0; bit <= 1; ++bit) {
      for (std::uint32_t mask : {0b01u, 0b10u}) {
        if (!g.assures(mask, bit)) continue;
        const auto strategy = g.assuring_strategy(mask, bit);
        ASSERT_FALSE(strategy.empty());
        // Replay against 20 random opposing behaviours.
        for (int trial = 0; trial < 20; ++trial) {
          std::vector<int> opp;
          for (int i = 0; i < 32; ++i) opp.push_back(static_cast<int>(rng.below(3)));
          EXPECT_EQ(g.play(mask, strategy, opp), bit)
              << "seed=" << seed << " mask=" << mask << " bit=" << bit;
        }
        ++verified;
      }
    }
  }
  EXPECT_GT(verified, 50);
}

TEST(GameTree, AssuringStrategiesMatchPinnedFold) {
  // Every extracted strategy — each pre-order slot, -1 where the coalition
  // never moves — on random 2..4-player trees, for every coalition mask and
  // both bits, folded into one pinned word.
  std::vector<std::uint64_t> words;
  std::size_t assuring = 0;
  for (int players = 2; players <= 4; ++players) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      const auto g = GameTree::random(players, 6, 3, seed);
      for (std::uint32_t mask = 0; mask < (1u << players); ++mask) {
        for (int bit = 0; bit <= 1; ++bit) {
          const std::vector<int> strategy = g.assuring_strategy(mask, bit);
          assuring += strategy.empty() ? 0 : 1;
          words.push_back(strategy.size());
          for (const int choice : strategy) {
            words.push_back(static_cast<std::uint64_t>(choice + 1));
          }
        }
      }
    }
  }
  EXPECT_EQ(assuring, 1120u);
  EXPECT_EQ(words.size(), 309568u);
  EXPECT_EQ(transcript_fold(words), 0x8afb043068d03731ull);
}

TEST(GameTree, DeterminacyForCoalitions) {
  // Zermelo determinacy, coalition form: S assures b or V\S assures 1-b.
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const auto g = GameTree::random(4, 4, 3, seed);
    for (std::uint32_t mask = 1; mask < 15; ++mask) {
      const std::uint32_t comp = (~mask) & 0b1111u;
      for (int bit = 0; bit <= 1; ++bit) {
        EXPECT_TRUE(g.assures(mask, bit) || g.assures(comp, 1 - bit))
            << "seed=" << seed << " mask=" << mask << " bit=" << bit;
      }
    }
  }
}

TEST(GameTree, AbsorbCreatesCompoundPlayer) {
  // Lemma F.3's induction step: absorbing a player into another can only
  // help the compound.
  for (std::uint64_t seed = 0; seed < 80; ++seed) {
    const auto g = GameTree::random(3, 4, 3, seed);
    const auto absorbed = g.absorb(/*from=*/2, /*to=*/1);
    for (int bit = 0; bit <= 1; ++bit) {
      if (g.assures(0b010, bit)) {
        EXPECT_TRUE(absorbed.assures(0b010, bit));  // monotone in power
      }
      // The compound {1,2} in g equals player 1 in absorbed.
      EXPECT_EQ(g.assures(0b110, bit), absorbed.assures(0b010, bit)) << seed;
    }
  }
}

TEST(TreeProtocols, AlternatingXorLastMoverDictates) {
  for (int rounds : {1, 2, 3, 4, 5, 6}) {
    const auto g = alternating_xor_game(rounds);
    EXPECT_DOUBLE_EQ(g.uniform_value(), 0.5);  // honest protocol is fair
    const int last = (rounds - 1) % 2;
    const std::uint32_t last_mask = last == 0 ? 0b01u : 0b10u;
    const std::uint32_t first_mask = last == 0 ? 0b10u : 0b01u;
    EXPECT_TRUE(g.assures(last_mask, 0)) << rounds;
    EXPECT_TRUE(g.assures(last_mask, 1)) << rounds;
    EXPECT_FALSE(g.assures(first_mask, 0)) << rounds;
    EXPECT_FALSE(g.assures(first_mask, 1)) << rounds;
  }
}

TEST(TreeProtocols, XorLeafEdgeCompoundDictates) {
  {
    const auto g = xor_leaf_edge_game(/*leaf_last=*/false);
    // The rest-of-tree compound announces last: it dictates.
    EXPECT_TRUE(g.assures(0b10, 0));
    EXPECT_TRUE(g.assures(0b10, 1));
  }
  {
    const auto g = xor_leaf_edge_game(/*leaf_last=*/true);
    EXPECT_TRUE(g.assures(0b01, 0));
    EXPECT_TRUE(g.assures(0b01, 1));
  }
}

TEST(TreeProtocols, FindAssuringPartOnSimulatedRing) {
  // An 8-processor ring simulated by two arcs of 4; a game where processor 7
  // decides the final bit after a coin-style exchange.  The part containing
  // 7 (size 4 = k) assures both outcomes — the Theorem 7.2 witness.
  const auto sim = ring_as_two_arc_simulation(8);
  auto final_say = [] {
    std::vector<std::unique_ptr<GameNode>> kids;
    kids.push_back(GameTree::leaf(0));
    kids.push_back(GameTree::leaf(1));
    return GameTree::choice(7, std::move(kids));
  };
  std::vector<std::unique_ptr<GameNode>> outer;
  outer.push_back(final_say());
  outer.push_back(final_say());
  GameTree g(GameTree::choice(2, std::move(outer)), 8);
  const auto part = find_assuring_part(g, sim);
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->part_index, sim.part_of[7]);
  const auto masks = part_masks(sim);
  EXPECT_TRUE(g.assures(masks[static_cast<std::size_t>(sim.part_of[7])], 0));
  EXPECT_TRUE(g.assures(masks[static_cast<std::size_t>(sim.part_of[7])], 1));
}

TEST(TreeProtocols, PartMasksPartitionProcessors) {
  const auto sim = ring_as_two_arc_simulation(10);
  const auto masks = part_masks(sim);
  std::uint32_t all = 0;
  for (const auto m : masks) {
    EXPECT_EQ(all & m, 0u);  // disjoint
    all |= m;
  }
  EXPECT_EQ(all, (1u << 10) - 1);
}

}  // namespace
}  // namespace fle
