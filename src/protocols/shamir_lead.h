#pragma once
// Fair leader election on an asynchronous fully-connected network via
// Shamir secret sharing (paper Section 1.1, related work: Abraham et al.'s
// "straightforward" application with optimal resilience k = n/2 - 1).
//
// Protocol (threshold t = floor(n/2) + 1):
//  1. SHARE:  each processor draws d_i in [n], splits it with a (t, n)
//     Shamir scheme, and sends share j to processor j.
//  2. READY:  after holding one share of every secret, broadcast READY —
//     the commitment barrier: secrets are now information-theoretically
//     fixed (honest processors hold them) before anyone reveals.
//  3. REVEAL: after n READYs, broadcast the vector of held shares.
//  4. Each processor reconstructs every secret with a consistency check
//     (all n points must lie on one degree-(t-1) polynomial; the >= t
//     honest points pin it, so lies are detected), verifies its own secret
//     survived, and outputs sum(d_i) mod n.  The protocol precomputes the
//     scheme's LagrangeTable once, so each check is a few dot products.
//
// A share or reveal word outside the field (>= Fp::kP) is never sent by
// the protocol, so receiving one is a detected deviation: the receiver
// aborts rather than reduce it.
//
// Resilience boundary (reproduced in attacks/shamir_attacks.h):
//  * k <= ceil(n/2) - 1: coalitions hold < t shares (learn nothing early)
//    and honest points >= t (lies detected)  ->  unbiased.
//  * k = ceil(n/2):      honest points < t:  the coalition can shift an
//    adversary-owned secret along the pencil P + c*Z (Z vanishing on the
//    honest evaluation points) after rushing the honest reveals — full
//    control, matching the paper's k >= n/2 impossibility.
//  * k >= floor(n/2)+1:  the coalition reconstructs every honest secret
//    before committing its own — full control (rushing).

#include "core/shamir.h"
#include "sim/graph_engine.h"

namespace fle {

/// Message tags (first word of every message).
enum class ShamirTag : Value {
  kShare = 1,   ///< {tag, y}: your share of my secret
  kReady = 2,   ///< {tag}
  kReveal = 3,  ///< {tag, y_0, ..., y_{n-1}}: all shares I hold, by owner
};

struct ShamirParams {
  int n = 0;
  int t = 0;  ///< reconstruction threshold (degree t-1 polynomials)

  static ShamirParams defaults(int n) { return ShamirParams{n, n / 2 + 1}; }
};

class ShamirLeadProtocol final : public GraphProtocol {
 public:
  explicit ShamirLeadProtocol(int n) : ShamirLeadProtocol(ShamirParams::defaults(n)) {}
  explicit ShamirLeadProtocol(ShamirParams params)
      : params_(params), lagrange_(params.t, params.n) {}

  GraphStrategy* emplace_strategy(StrategyArena& arena, ProcessorId id, int n) const override;
  const char* name() const override { return "Shamir-LEAD (fully connected)"; }
  std::uint64_t honest_message_bound(int n) const override {
    return 3ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
  }

  [[nodiscard]] const ShamirParams& params() const { return params_; }
  [[nodiscard]] const LagrangeTable& lagrange() const { return lagrange_; }

 private:
  ShamirParams params_;
  LagrangeTable lagrange_;
};

/// The honest state machine, exposed so the attacks can reuse its phases.
/// Its per-trial state is carved from the arena it is built in, and
/// `lagrange` (the scheme's table, which fixes n and t) must outlive it.
class ShamirLeadStrategy : public GraphStrategy {
 public:
  ShamirLeadStrategy(ProcessorId id, const LagrangeTable& lagrange, StrategyArena& arena);

  void on_init(GraphContext& ctx) override;
  void on_receive(GraphContext& ctx, ProcessorId from, GraphPayload m) override;

 protected:
  /// Phase 1 for a specific secret (honest code calls this at wake-up with
  /// a fresh uniform draw; the rushing adversary defers it).
  void distribute(GraphContext& ctx, Value secret);
  /// Phase 3 broadcast (virtual so the forging adversary can rewrite it).
  virtual void send_reveal(GraphContext& ctx);
  /// This processor's reveal, by owner: send_reveal (or an adversary's
  /// rewrite) fills it, then calls broadcast_reveal.
  [[nodiscard]] std::span<Fp> own_reveal() { return reveal_row(id_); }
  /// Broadcasts own_reveal() and counts it as this processor's reveal.
  void broadcast_reveal(GraphContext& ctx);
  /// Called once all reveals are in; default reconstructs + terminates.
  virtual void finalize(GraphContext& ctx);

  /// Reconstructs secret of `owner` from the reveal matrix; nullopt on
  /// inconsistency.  Valid only after all reveals arrived.
  [[nodiscard]] std::optional<Fp> reconstruct(ProcessorId owner);

  /// Revealer `holder`'s values, by owner; filled once revealed_from_[holder].
  [[nodiscard]] std::span<Fp> reveal_row(ProcessorId holder) {
    return reveals_.subspan(static_cast<std::size_t>(holder) * static_cast<std::size_t>(params_.n),
                            static_cast<std::size_t>(params_.n));
  }

  void fail(GraphContext& ctx);

  ProcessorId id_;
  ShamirParams params_;
  const LagrangeTable& lagrange_;
  bool distributed_ = false;
  bool dead_ = false;
  Value secret_ = 0;
  std::span<std::optional<Fp>> held_;  ///< my share, by owner
  std::span<bool> ready_from_;
  int ready_count_ = 0;
  bool revealed_ = false;
  std::span<Fp> reveals_;         ///< n x n, row = revealer, column = owner
  std::span<bool> revealed_from_;  ///< by revealer
  int reveal_count_ = 0;
  int shares_count_ = 0;
  std::span<Fp> points_;   ///< scratch: one owner's points, x_j = j+1 order
  std::span<Value> wire_;  ///< scratch: an outgoing n+1-word message

 private:
  void maybe_advance(GraphContext& ctx);

  std::span<Fp> coeffs_;  ///< scratch: my sharing polynomial
};

}  // namespace fle
