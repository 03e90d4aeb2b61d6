// GF(2^61-1) field arithmetic, Shamir secret sharing, the fully-connected
// Shamir-LEAD protocol, and the two attacks that pin its n/2 boundary.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "attacks/shamir_attacks.h"
#include "core/field.h"
#include "core/shamir.h"
#include "protocols/shamir_lead.h"
#include "sim/arena.h"

namespace fle {
namespace {

std::vector<Fp> ys_of(const std::vector<Share>& shares) {
  std::vector<Fp> ys;
  for (const Share& s : shares) ys.push_back(s.y);
  return ys;
}

/// The generic check the table replaces: the first t shares fix the
/// polynomial (interpolate_at, one inversion per basis point), every later
/// share must lie on it, and the secret is its value at 0.
std::optional<Fp> reference_reconstruct_checked(std::span<const Share> shares, int t) {
  const auto basis = shares.first(static_cast<std::size_t>(t));
  for (std::size_t i = static_cast<std::size_t>(t); i < shares.size(); ++i) {
    if (interpolate_at(basis, shares[i].x) != shares[i].y) return std::nullopt;
  }
  return interpolate_at(basis, Fp(0));
}

TEST(Field, BasicAlgebra) {
  const Fp a(5), b(7);
  EXPECT_EQ((a + b).value(), 12u);
  EXPECT_EQ((b - a).value(), 2u);
  EXPECT_EQ((a - b).value(), Fp::kP - 2);
  EXPECT_EQ((a * b).value(), 35u);
  EXPECT_EQ(Fp(Fp::kP).value(), 0u);  // reduction at construction
}

TEST(Field, MulReductionNearModulus) {
  const Fp big(Fp::kP - 1);
  EXPECT_EQ((big * big).value(), 1u);  // (-1)^2 = 1
  const Fp x(0x1234'5678'9abcull);
  EXPECT_EQ((x * Fp(1)).value(), x.value());
}

TEST(Field, InverseAndPow) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 200; ++i) {
    const Fp x = Fp::random(rng);
    if (x.value() == 0) continue;
    EXPECT_EQ((x * x.inverse()).value(), 1u);
  }
  EXPECT_EQ(Fp(3).pow(4).value(), 81u);
  EXPECT_EQ(Fp(2).pow(0).value(), 1u);
}

TEST(Shamir, ReconstructFromAnyTShares) {
  Xoshiro256 rng(7);
  const Fp secret(424242);
  const int t = 4, n = 9;
  const auto shares = shamir_share(secret, t, n, rng);
  ASSERT_EQ(shares.size(), 9u);
  // every contiguous window of t shares reconstructs
  for (int start = 0; start + t <= n; ++start) {
    std::vector<Share> subset(shares.begin() + start, shares.begin() + start + t);
    EXPECT_EQ(shamir_reconstruct(subset).value(), secret.value()) << start;
  }
}

TEST(Shamir, FewerThanTSharesAreIndependent) {
  // Statistical privacy: with t-1 shares fixed, the secret is undetermined —
  // two different secrets can produce the same t-1 shares.  We verify the
  // weaker, testable consequence: reconstructing from t-1 points (padded
  // with a guessed point) can land anywhere.
  Xoshiro256 rng(9);
  const int t = 3, n = 5;
  const auto sh0 = shamir_share(Fp(0), t, n, rng);
  const auto sh1 = shamir_share(Fp(1), t, n, rng);
  // Distributions of individual shares should overlap: single shares of
  // different secrets are both uniform; sanity-check value ranges only.
  EXPECT_LT(sh0[0].y.value(), Fp::kP);
  EXPECT_LT(sh1[0].y.value(), Fp::kP);
}

TEST(Shamir, SharePolynomialMatchesShares) {
  // The allocation-free pair the protocol uses draws the same coefficients
  // in the same order as shamir_share, so the shares agree word for word.
  const int t = 5, n = 11;
  Xoshiro256 a(21), b(21);
  const auto shares = shamir_share(Fp(77), t, n, a);
  std::vector<Fp> coeffs(static_cast<std::size_t>(t));
  shamir_polynomial(Fp(77), coeffs, b);
  for (int j = 0; j < n; ++j) {
    EXPECT_EQ(shamir_evaluate(coeffs, shares[static_cast<std::size_t>(j)].x),
              shares[static_cast<std::size_t>(j)].y)
        << j;
  }
  EXPECT_EQ(a(), b());  // same number of draws
}

TEST(LagrangeTable, MatchesInterpolationOnRandomAndTamperedShares) {
  // Property: for every (t, n) with 2 <= n <= 16 and 1 <= t <= n the table
  // agrees with generic interpolation, on honest share vectors and on
  // vectors with one word tampered (anywhere, including the basis).  With
  // t = n there are no check rows, so tampering only moves the secret.
  Xoshiro256 rng(2024);
  for (int n = 2; n <= 16; ++n) {
    for (int t = 1; t <= n; ++t) {
      const LagrangeTable table(t, n);
      ASSERT_EQ(table.t(), t);
      ASSERT_EQ(table.n(), n);
      for (int rep = 0; rep < 8; ++rep) {
        auto shares = shamir_share(Fp::random(rng), t, n, rng);
        if (rep % 2 == 1) {
          const auto j = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)));
          shares[j].y = shares[j].y + Fp(1 + rng.below(Fp::kP - 1));
        }
        const std::vector<Fp> ys = ys_of(shares);
        const std::optional<Fp> expected = reference_reconstruct_checked(shares, t);
        const std::optional<Fp> got = table.reconstruct_checked(ys);
        ASSERT_EQ(got.has_value(), expected.has_value()) << "n=" << n << " t=" << t;
        if (expected) {
          EXPECT_EQ(*got, *expected) << "n=" << n << " t=" << t;
        } else {
          EXPECT_EQ(rep % 2, 1) << "honest shares rejected, n=" << n << " t=" << t;
        }
        EXPECT_EQ(table.reconstruct(ys),
                  shamir_reconstruct(std::span<const Share>(shares).first(
                      static_cast<std::size_t>(t))))
            << "n=" << n << " t=" << t;
      }
    }
  }
}

TEST(LagrangeTable, RejectsBadThreshold) {
  EXPECT_THROW(LagrangeTable(0, 4), std::invalid_argument);
  EXPECT_THROW(LagrangeTable(5, 4), std::invalid_argument);
}

TEST(LagrangeTable, ConsistencyDetectsTampering) {
  Xoshiro256 rng(11);
  const int t = 4, n = 10;
  const LagrangeTable table(t, n);
  auto shares = shamir_share(Fp(99), t, n, rng);
  EXPECT_TRUE(table.reconstruct_checked(ys_of(shares)).has_value());
  EXPECT_EQ(table.reconstruct_checked(ys_of(shares))->value(), 99u);
  shares[7].y = shares[7].y + Fp(1);
  EXPECT_FALSE(table.reconstruct_checked(ys_of(shares)).has_value());
}

TEST(LagrangeTable, ConsistencyDetectsTamperingInBasis) {
  // Corrupting one of the first t points must also be caught (the basis
  // polynomial then disagrees with the honest tail).
  Xoshiro256 rng(13);
  const int t = 3, n = 8;
  const LagrangeTable table(t, n);
  auto shares = shamir_share(Fp(5), t, n, rng);
  shares[1].y = shares[1].y + Fp(123);
  EXPECT_FALSE(table.reconstruct_checked(ys_of(shares)).has_value());
}

TEST(LagrangeTable, PencilShiftIsUndetectableWhenHonestBelowT) {
  // The forging attack's algebra: with h < t honest points, adding c*Z
  // (Z vanishing on them) keeps all points consistent but shifts P(0).
  Xoshiro256 rng(17);
  const int t = 4, n = 6, honest = 3;  // honest < t
  auto shares = shamir_share(Fp(10), t, n, rng);
  auto z_at = [&](Fp x) {
    Fp z(1);
    for (int h = 0; h < honest; ++h) z = z * (x - shares[static_cast<std::size_t>(h)].x);
    return z;
  };
  const Fp c(777);
  for (int j = honest; j < n; ++j) {
    shares[static_cast<std::size_t>(j)].y =
        shares[static_cast<std::size_t>(j)].y + c * z_at(shares[static_cast<std::size_t>(j)].x);
  }
  EXPECT_TRUE(LagrangeTable(t, n).reconstruct_checked(ys_of(shares)).has_value());  // undetectable
  EXPECT_EQ(shamir_reconstruct(std::span<const Share>(shares).first(4)).value(),
            (Fp(10) + c * z_at(Fp(0))).value());  // shifted
}

// --- protocol ---------------------------------------------------------------

TEST(ShamirLead, HonestElectsValidLeader) {
  for (int n : {3, 4, 5, 8, 13, 20}) {
    ShamirLeadProtocol protocol(n);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const Outcome o = run_honest_graph(protocol, n, seed * 53 + 1);
      ASSERT_TRUE(o.valid()) << "n=" << n << " seed=" << seed;
      ASSERT_LT(o.leader(), static_cast<Value>(n));
    }
  }
}

TEST(ShamirLead, HonestUniform) {
  const int n = 6;
  ShamirLeadProtocol protocol(n);
  std::vector<int> counts(static_cast<std::size_t>(n), 0);
  const int trials = 1200;
  for (int t = 0; t < trials; ++t) {
    const Outcome o = run_honest_graph(protocol, n, static_cast<std::uint64_t>(t) * 7 + 3);
    ASSERT_TRUE(o.valid());
    ++counts[static_cast<std::size_t>(o.leader())];
  }
  for (const int c : counts) EXPECT_NEAR(c, trials / n, 5 * std::sqrt(trials / 6.0));
}

TEST(ShamirLead, ScheduleIndependentOutcome) {
  const int n = 7;
  ShamirLeadProtocol protocol(n);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    GraphEngineOptions rr;
    const Outcome a = run_honest_graph(protocol, n, seed, std::move(rr));
    GraphEngineOptions rnd;
    rnd.schedule = LinkScheduleKind::kRandom;
    rnd.schedule_seed = seed + 99;
    const Outcome b = run_honest_graph(protocol, n, seed, std::move(rnd));
    EXPECT_EQ(a, b) << seed;
  }
}

TEST(ShamirLead, MessageComplexityIsThreeNSquared) {
  const int n = 8;
  ShamirLeadProtocol protocol(n);
  GraphEngine engine(n, 3);
  StrategyArena arena;
  std::vector<GraphStrategy*> s;
  for (ProcessorId p = 0; p < n; ++p) s.push_back(protocol.emplace_strategy(arena, p, n));
  ASSERT_TRUE(engine.run(s).valid());
  EXPECT_EQ(engine.stats().total_sent, 3ull * n * (n - 1));
}

TEST(ShamirLead, LyingRevealerCausesAbort) {
  // An adversary that corrupts one reveal entry must be detected: honest
  // points pin the polynomial.
  const int n = 7;
  ShamirLeadProtocol protocol(n);
  class LyingStrategy final : public ShamirLeadStrategy {
   public:
    using ShamirLeadStrategy::ShamirLeadStrategy;

   protected:
    void send_reveal(GraphContext& ctx) override {
      const std::span<Fp> values = own_reveal();
      for (std::size_t o = 0; o < values.size(); ++o) values[o] = *held_[o];
      values[2] = values[2] + Fp(1);  // lie about processor 2's share
      broadcast_reveal(ctx);
    }
    void finalize(GraphContext& ctx) override {
      if (dead_) return;
      dead_ = true;
      ctx.terminate(0);  // the liar claims an outcome
    }
  };
  GraphEngine engine(n, 5);
  StrategyArena arena;
  std::vector<GraphStrategy*> profile;
  for (ProcessorId p = 0; p < n; ++p) {
    if (p == 4) {
      profile.push_back(arena.emplace<LyingStrategy>(p, protocol.lagrange(), arena));
    } else {
      profile.push_back(protocol.emplace_strategy(arena, p, n));
    }
  }
  EXPECT_TRUE(engine.run(std::span<GraphStrategy* const>(profile)).failed());
}

/// Forwards to the engine's context, adding `shift` to one field word of
/// every outgoing message with tag `tag` (word 1: the share, or the reveal
/// of owner 0).  A shift of Fp::kP names the same field element with a
/// non-canonical word.
class ShiftingContext final : public GraphContext {
 public:
  ShiftingContext(GraphContext& inner, ShamirTag tag, Value shift)
      : inner_(&inner), tag_(tag), shift_(shift) {}

  void send(ProcessorId to, GraphPayload payload) override {
    if (payload.size() < 2 || payload[0] != static_cast<Value>(tag_)) {
      inner_->send(to, payload);
      return;
    }
    words_.assign(payload.begin(), payload.end());
    words_[1] += shift_;
    inner_->send(to, words_);
  }
  void terminate(Value output) override { inner_->terminate(output); }
  void abort() override { inner_->abort(); }
  ProcessorId id() const override { return inner_->id(); }
  int network_size() const override { return inner_->network_size(); }
  RandomTape& tape() override { return inner_->tape(); }

 private:
  GraphContext* inner_;
  ShamirTag tag_;
  Value shift_;
  std::vector<Value> words_;
};

/// An otherwise honest processor whose outgoing messages pass through a
/// ShiftingContext.
class ShiftingStrategy final : public GraphStrategy {
 public:
  ShiftingStrategy(GraphStrategy* honest, ShamirTag tag, Value shift)
      : honest_(honest), tag_(tag), shift_(shift) {}

  void on_init(GraphContext& ctx) override {
    ShiftingContext shifted(ctx, tag_, shift_);
    honest_->on_init(shifted);
  }
  void on_receive(GraphContext& ctx, ProcessorId from, GraphPayload m) override {
    ShiftingContext shifted(ctx, tag_, shift_);
    honest_->on_receive(shifted, from, m);
  }

 private:
  GraphStrategy* honest_;  ///< the honest strategy, in the same arena
  ShamirTag tag_;
  Value shift_;
};

TEST(ShamirLead, NonCanonicalFieldWordsAbort) {
  // y + kP reduces to the same field element, so a receiver that reduced
  // it would accept the election; the protocol never sends such a word,
  // so receivers must treat it as a deviation.  A zero shift is the
  // control: the wrapper itself changes nothing.
  const int n = 6;
  ShamirLeadProtocol protocol(n);
  for (const ShamirTag tag : {ShamirTag::kShare, ShamirTag::kReveal}) {
    for (const Value shift : {Value{0}, Fp::kP}) {
      GraphEngine engine(n, 41);
      StrategyArena arena;
      std::vector<GraphStrategy*> s;
      for (ProcessorId p = 0; p < n; ++p) {
        GraphStrategy* honest = protocol.emplace_strategy(arena, p, n);
        s.push_back(p == 2 ? arena.emplace<ShiftingStrategy>(honest, tag, shift) : honest);
      }
      const Outcome o = engine.run(s);
      EXPECT_EQ(o.failed(), shift != 0) << "tag " << static_cast<Value>(tag);
    }
  }
}

// --- attacks ----------------------------------------------------------------

class ShamirAttackBoundary : public ::testing::TestWithParam<int> {};

TEST_P(ShamirAttackBoundary, RushingControlsAboveT) {
  const int n = GetParam();
  ShamirLeadProtocol protocol(n);
  const int t = protocol.params().t;  // floor(n/2)+1
  const Value w = static_cast<Value>(n - 1);
  ShamirRushingDeviation deviation(Coalition::consecutive(n, t, 1), w, protocol);
  ASSERT_TRUE(deviation.reconstruction_possible());
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    GraphEngine engine(n, seed);
    StrategyArena arena;
    std::vector<GraphStrategy*> profile;
    compose_profile_into(protocol, &deviation, n, arena, profile);
    const Outcome o = engine.run(profile);
    ASSERT_TRUE(o.valid()) << seed;
    EXPECT_EQ(o.leader(), w) << seed;
  }
}

TEST_P(ShamirAttackBoundary, RushingHarmlessBelowT) {
  const int n = GetParam();
  ShamirLeadProtocol protocol(n);
  const int k = protocol.params().t - 2;  // below reconstruction threshold
  if (k < 1) GTEST_SKIP();
  const Value w = 0;
  ShamirRushingDeviation deviation(Coalition::consecutive(n, k, 1), w, protocol);
  ASSERT_FALSE(deviation.reconstruction_possible());
  int hits = 0;
  const int trials = 30;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    GraphEngine engine(n, seed * 13 + 5);
    StrategyArena arena;
    std::vector<GraphStrategy*> profile;
    compose_profile_into(protocol, &deviation, n, arena, profile);
    const Outcome o = engine.run(profile);
    ASSERT_TRUE(o.valid()) << seed;  // attack stays undetected, just useless
    hits += (o.leader() == w) ? 1 : 0;
  }
  EXPECT_LE(hits, trials / 3);  // ~ trials/n expected
}

TEST_P(ShamirAttackBoundary, ForgingControlsAtCeilHalf) {
  const int n = GetParam();
  ShamirLeadProtocol protocol(n);
  const int k = (n + 1) / 2;  // ceil(n/2): one below the rushing threshold
  const Value w = static_cast<Value>(n / 2);
  ShamirForgeDeviation deviation(Coalition::consecutive(n, k, 0), w, protocol);
  ASSERT_TRUE(deviation.forging_possible());
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    GraphEngine engine(n, seed + 17);
    StrategyArena arena;
    std::vector<GraphStrategy*> profile;
    compose_profile_into(protocol, &deviation, n, arena, profile);
    const Outcome o = engine.run(profile);
    ASSERT_TRUE(o.valid()) << seed;
    EXPECT_EQ(o.leader(), w) << seed;
  }
}

TEST_P(ShamirAttackBoundary, ForgingDetectedBelowCeilHalf) {
  const int n = GetParam();
  ShamirLeadProtocol protocol(n);
  const int k = (n + 1) / 2 - 1;  // paper's resilient regime: k <= n/2 - 1
  if (k < 1) GTEST_SKIP();
  const Value w = 0;
  ShamirForgeDeviation deviation(Coalition::consecutive(n, k, 0), w, protocol);
  ASSERT_FALSE(deviation.forging_possible());
  // Below the threshold the pencil shift has degree n-k > t-1, so any
  // actual forgery (c != 0) is detected and the execution FAILs.  The only
  // valid outcomes are the lucky ~1/n of trials where the honest sum already
  // equals the target (c = 0, nothing forged): exactly "no gain".
  std::size_t fails = 0;
  std::size_t target_hits = 0;
  const std::size_t trials = 24;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    GraphEngine engine(n, seed * 97 + 31);
    StrategyArena arena;
    std::vector<GraphStrategy*> profile;
    compose_profile_into(protocol, &deviation, n, arena, profile);
    const Outcome o = engine.run(profile);
    if (o.failed()) {
      ++fails;
    } else {
      EXPECT_EQ(o.leader(), w) << seed;  // valid <=> untouched honest target
      ++target_hits;
    }
  }
  EXPECT_GE(fails, trials / 2) << "forgeries must be detected";
  EXPECT_LE(target_hits, trials / 2) << "hit rate must stay near 1/n";
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShamirAttackBoundary, ::testing::Values(4, 5, 6, 9, 12));

TEST(ShamirAttacks, BoundaryMatchesPaper) {
  // Resilient for k <= ceil(n/2)-1, broken at k = ceil(n/2): the paper's
  // "optimal resilience k = n/2 - 1".
  for (int n : {6, 10, 14}) {
    ShamirLeadProtocol protocol(n);
    ShamirForgeDeviation at_half(Coalition::consecutive(n, (n + 1) / 2, 0), 0, protocol);
    EXPECT_TRUE(at_half.forging_possible());
    ShamirForgeDeviation below(Coalition::consecutive(n, (n + 1) / 2 - 1, 0), 0, protocol);
    EXPECT_FALSE(below.forging_possible());
  }
}

}  // namespace
}  // namespace fle
