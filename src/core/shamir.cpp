#include "core/shamir.h"

#include <cassert>
#include <stdexcept>

namespace fle {

namespace {

Fp point(int j) { return Fp(static_cast<std::uint64_t>(j) + 1); }

}  // namespace

void shamir_polynomial(Fp secret, std::span<Fp> coeffs, Xoshiro256& rng) {
  assert(!coeffs.empty());
  // P(x) = secret + c1 x + ... + c_{t-1} x^{t-1}, coefficients uniform.
  coeffs[0] = secret;
  for (std::size_t i = 1; i < coeffs.size(); ++i) coeffs[i] = Fp::random(rng);
}

Fp shamir_evaluate(std::span<const Fp> coeffs, Fp x) {
  Fp y(0);
  for (std::size_t i = coeffs.size(); i-- > 0;) y = y * x + coeffs[i];
  return y;
}

std::vector<Share> shamir_share(Fp secret, int t, int n, Xoshiro256& rng) {
  if (t < 1 || t > n) throw std::invalid_argument("need 1 <= t <= n");
  std::vector<Fp> coeffs(static_cast<std::size_t>(t));
  shamir_polynomial(secret, coeffs, rng);
  std::vector<Share> shares;
  shares.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) shares.push_back(Share{point(j), shamir_evaluate(coeffs, point(j))});
  return shares;
}

Fp interpolate_at(std::span<const Share> shares, Fp x) {
  // Lagrange: sum_i y_i * prod_{j != i} (x - x_j) / (x_i - x_j).
  Fp acc(0);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    Fp num(1);
    Fp den(1);
    for (std::size_t j = 0; j < shares.size(); ++j) {
      if (j == i) continue;
      num = num * (x - shares[j].x);
      den = den * (shares[i].x - shares[j].x);
    }
    acc = acc + shares[i].y * num * den.inverse();
  }
  return acc;
}

Fp shamir_reconstruct(std::span<const Share> shares) {
  return interpolate_at(shares, Fp(0));
}

LagrangeTable::LagrangeTable(int t, int n) : t_(t), n_(n) {
  if (t < 1 || t > n) throw std::invalid_argument("need 1 <= t <= n");
  // The denominators prod_{j != i} (x_i - x_j) depend on the basis alone:
  // invert each once, then every row only multiplies numerators.
  std::vector<Fp> inv_den(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    Fp den(1);
    for (int j = 0; j < t; ++j) {
      if (j != i) den = den * (point(i) - point(j));
    }
    inv_den[static_cast<std::size_t>(i)] = den.inverse();
  }
  rows_.reserve(static_cast<std::size_t>(n - t + 1) * static_cast<std::size_t>(t));
  for (int row = 0; row <= n - t; ++row) {
    const Fp x = row == 0 ? Fp(0) : point(t - 1 + row);
    for (int i = 0; i < t; ++i) {
      Fp num(1);
      for (int j = 0; j < t; ++j) {
        if (j != i) num = num * (x - point(j));
      }
      rows_.push_back(num * inv_den[static_cast<std::size_t>(i)]);
    }
  }
}

Fp LagrangeTable::dot(int row, std::span<const Fp> ys) const {
  const Fp* coeffs = rows_.data() + static_cast<std::size_t>(row) * static_cast<std::size_t>(t_);
  Fp acc(0);
  for (int i = 0; i < t_; ++i) acc = acc + coeffs[i] * ys[static_cast<std::size_t>(i)];
  return acc;
}

Fp LagrangeTable::reconstruct(std::span<const Fp> ys) const {
  assert(ys.size() >= static_cast<std::size_t>(t_));
  return dot(0, ys);
}

std::optional<Fp> LagrangeTable::reconstruct_checked(std::span<const Fp> ys) const {
  assert(ys.size() == static_cast<std::size_t>(n_));
  for (int row = 1; row <= n_ - t_; ++row) {
    if (dot(row, ys) != ys[static_cast<std::size_t>(t_ - 1 + row)]) return std::nullopt;
  }
  return dot(0, ys);
}

}  // namespace fle
