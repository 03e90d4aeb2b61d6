#pragma once
// The one-round majority coin in the full-information model (paper Related
// Work: Ben-Or & Linial [10] study boolean-function coin-toss games; the
// majority function is the canonical example).
//
// Players broadcast one bit each in id order; the outcome is the majority
// bit (ties break to 0).  Honest bits are fair; a coalition that sees the
// running count (full information) simply votes its target — the optimal
// single-round deviation — achieving bias Theta(k / sqrt(n)).  Contrast
// with the message-passing ring world, where PhaseAsyncLead keeps the bias
// negligible up to k ~ sqrt(n) without any broadcast channel.

#include "fullinfo/turn_game.h"

namespace fle {

class MajorityCoinGame final : public TurnGame {
 public:
  explicit MajorityCoinGame(int n);

  int players() const override { return n_; }
  std::unique_ptr<TurnPosition> new_position() const override;

 private:
  int n_;
};

/// Votes the target bit unconditionally (optimal one-round deviation).
class MajorityTargetAdversary final : public TurnAdversary {
 public:
  explicit MajorityTargetAdversary(Value target_bit) : bit_(target_bit & 1) {}
  Value choose(const TurnPosition&, ProcessorId) const override { return bit_; }

 private:
  Value bit_;
};

/// Closed-form honest-binomial estimate of the coalition bias for the
/// majority coin: Pr[majority = b] when k players vote b and n-k are fair.
double majority_bias_estimate(int n, int k);

}  // namespace fle
