// Basic-LEAD (Appendix B): honest correctness, uniformity, message counts,
// and Claim B.1's single-adversary takeover.

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "analysis/stats.h"
#include "attacks/basic_single.h"
#include "protocols/basic_lead.h"
#include "sim/engine.h"

namespace fle {
namespace {

TEST(BasicLead, HonestElectsValidLeaderSmallRings) {
  BasicLeadProtocol protocol;
  for (int n = 2; n <= 24; ++n) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const Outcome o = run_honest(protocol, n, seed * 977 + 13);
      ASSERT_TRUE(o.valid()) << "n=" << n << " seed=" << seed;
      ASSERT_LT(o.leader(), static_cast<Value>(n));
    }
  }
}

TEST(BasicLead, HonestMessageCountIsNSquared) {
  BasicLeadProtocol protocol;
  for (int n : {2, 3, 5, 8, 16, 33}) {
    EngineOptions options;
    RingEngine engine(n, 42, std::move(options));
    StrategyArena arena;
    std::vector<RingStrategy*> s;
    for (ProcessorId p = 0; p < n; ++p) s.push_back(protocol.emplace_strategy(arena, p, n));
    const Outcome o = engine.run(s);
    ASSERT_TRUE(o.valid());
    EXPECT_EQ(engine.stats().total_sent,
              static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n));
    for (ProcessorId p = 0; p < n; ++p) {
      EXPECT_EQ(engine.stats().sent[static_cast<std::size_t>(p)],
                static_cast<std::uint64_t>(n));
      EXPECT_EQ(engine.stats().received[static_cast<std::size_t>(p)],
                static_cast<std::uint64_t>(n));
    }
  }
}

TEST(BasicLead, HonestElectionIsUniform) {
  BasicLeadProtocol protocol;
  const int n = 8;
  ExperimentConfig config;
  config.n = n;
  config.trials = 4000;
  config.seed = 7;
  const auto result = run_trials(protocol, nullptr, config);
  EXPECT_EQ(result.outcomes.fails(), 0u);
  EXPECT_LT(result.outcomes.chi_square_uniform(), chi_square_critical_999(n - 1));
}

TEST(BasicLead, HonestSyncGapIsModest) {
  BasicLeadProtocol protocol;
  ExperimentConfig config;
  config.n = 32;
  config.trials = 5;
  const auto result = run_trials(protocol, nullptr, config);
  // Basic-LEAD has no synchronization mechanism: the gap can drift with the
  // schedule (unlike A-LEADuni's buffered lock-step, which stays at 1), but
  // honest 1:1 responses keep it well below a full round.
  EXPECT_LE(result.max_sync_gap, 16u);
  EXPECT_GT(result.max_sync_gap, 0u);
}

class BasicSingleAdversary : public ::testing::TestWithParam<int> {};

TEST_P(BasicSingleAdversary, ForcesEveryTarget) {
  const int n = GetParam();
  BasicLeadProtocol protocol;
  for (Value w = 0; w < static_cast<Value>(n); ++w) {
    BasicSingleDeviation deviation(n, /*adversary=*/n / 2, w);
    ExperimentConfig config;
    config.n = n;
    config.trials = 8;
    config.seed = 1000 + w;
    const auto result = run_trials(protocol, &deviation, config);
    EXPECT_EQ(result.outcomes.count(w), result.outcomes.trials())
        << "n=" << n << " w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Rings, BasicSingleAdversary, ::testing::Values(4, 7, 16, 33));

TEST(BasicSingleAdversaryEdge, AdversaryNextToOriginWorks) {
  const int n = 12;
  BasicLeadProtocol protocol;
  for (ProcessorId adv : {1, n - 1}) {
    BasicSingleDeviation deviation(n, adv, 5);
    ExperimentConfig config;
    config.n = n;
    config.trials = 10;
    const auto result = run_trials(protocol, &deviation, config);
    EXPECT_EQ(result.outcomes.count(5), result.outcomes.trials()) << "adv=" << adv;
  }
}

TEST(BasicSingleAdversaryEdge, OriginAdversaryAlsoControls) {
  // Claim B.1 holds for any single adversary; processor 0 included (it still
  // receives all other values before having to commit, because it can stay
  // silent at wake-up while the others fire).
  const int n = 9;
  BasicLeadProtocol protocol;
  BasicSingleDeviation deviation(n, 0, 3);
  ExperimentConfig config;
  config.n = n;
  config.trials = 10;
  const auto result = run_trials(protocol, &deviation, config);
  EXPECT_EQ(result.outcomes.count(3), result.outcomes.trials());
}

TEST(BasicLead, UtilityGainMatchesLemma24) {
  // The adversary's indicator utility jumps from 1/n (honest) to 1 (attack):
  // the protocol is not eps-1-resilient for eps < 1 - 1/n.
  const int n = 10;
  BasicLeadProtocol protocol;
  ExperimentConfig config;
  config.n = n;
  config.trials = 3000;
  const auto honest = run_trials(protocol, nullptr, config);
  const RationalUtility u = RationalUtility::indicator(n, 4);
  const double honest_u = expected_utility(u, honest.outcomes.distribution());
  EXPECT_NEAR(honest_u, 1.0 / n, 0.03);

  BasicSingleDeviation deviation(n, 2, 4);
  config.trials = 50;
  const auto attacked = run_trials(protocol, &deviation, config);
  const double attacked_u = expected_utility(u, attacked.outcomes.distribution());
  EXPECT_DOUBLE_EQ(attacked_u, 1.0);
}

}  // namespace
}  // namespace fle
