#include "fullinfo/majority.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace fle {

namespace {

/// A majority-coin execution in progress: player i moves at turn i, and the
/// running count of ones decides the outcome.
class MajorityCoinPosition final : public TurnPosition {
 public:
  explicit MajorityCoinPosition(int n) : TurnPosition(n, static_cast<std::size_t>(n)) {}

  bool finished() const override { return static_cast<int>(history().size()) == players(); }
  ProcessorId mover() const override { return static_cast<ProcessorId>(history().size()); }
  Value action_count() const override { return 2; }
  /// Majority bit; ties -> 0.
  Value outcome() const override { return ones_ * 2 > players() ? 1 : 0; }

 private:
  void restart() override { ones_ = 0; }
  void advance(Value action) override { ones_ += static_cast<int>(action & 1); }

  int ones_ = 0;
};

}  // namespace

MajorityCoinGame::MajorityCoinGame(int n) : n_(n) {
  if (n < 1) throw std::invalid_argument("need at least one player");
}

std::unique_ptr<TurnPosition> MajorityCoinGame::new_position() const {
  return std::make_unique<MajorityCoinPosition>(n_);
}

double majority_bias_estimate(int n, int k) {
  // k fixed votes for 1; need ones > n/2, i.e. at least max(0, floor(n/2)+1-k)
  // fair ones among n-k. Sum the binomial tail exactly (n small enough).
  const int honest = n - k;
  const int need = n / 2 + 1 - k;
  // binomial CDF complement via direct summation with doubles
  std::vector<double> row(static_cast<std::size_t>(honest) + 1, 0.0);
  row[0] = 1.0;
  for (int i = 1; i <= honest; ++i) {
    for (int j = i; j >= 1; --j) row[static_cast<std::size_t>(j)] += row[static_cast<std::size_t>(j - 1)];
  }
  const double total = std::pow(2.0, honest);
  double tail = 0.0;
  for (int ones = std::max(0, need); ones <= honest; ++ones) {
    tail += row[static_cast<std::size_t>(ones)];
  }
  return tail / total - 0.5;
}

}  // namespace fle
