#pragma once
// Shamir secret sharing over GF(2^61 - 1).
//
// (t, n) threshold scheme: a secret s is embedded as P(0) of a uniformly
// random polynomial P of degree t-1; share j is P(x_j) with x_j = j+1.
// Any t shares determine s (Lagrange interpolation at 0); any t-1 reveal
// nothing.
//
// The fully-connected election always evaluates at the same points
// x_j = j+1, so its interpolations reduce to dot products with fixed
// Lagrange coefficients.  LagrangeTable precomputes them once per (t, n):
// reconstruction and the consistency check (all n points lie on one
// degree-(t-1) polynomial — the error-detection step that catches lying
// revealers, since >= t honest points pin the polynomial and a corrupted
// point falls off it) then run without a single field inversion.

#include <optional>
#include <span>
#include <vector>

#include "core/field.h"

namespace fle {

struct Share {
  Fp x;  ///< evaluation point (j+1 for holder j)
  Fp y;  ///< P(x)
};

/// Draws a sharing polynomial of degree coeffs.size()-1 into `coeffs`:
/// coeffs[0] = secret, then coeffs[1], coeffs[2], ... uniform, drawn in
/// that order.
void shamir_polynomial(Fp secret, std::span<Fp> coeffs, Xoshiro256& rng);

/// P(x) for the coefficients drawn by shamir_polynomial (Horner).
Fp shamir_evaluate(std::span<const Fp> coeffs, Fp x);

/// Split `secret` into n shares with threshold t (1 <= t <= n): any t
/// reconstruct, any t-1 are independent of the secret.
std::vector<Share> shamir_share(Fp secret, int t, int n, Xoshiro256& rng);

/// Lagrange interpolation of P(0) from exactly t shares with distinct x.
Fp shamir_reconstruct(std::span<const Share> shares);

/// Evaluate the unique degree-(|shares|-1) interpolating polynomial at x.
Fp interpolate_at(std::span<const Share> shares, Fp x);

/// The Lagrange coefficients of a (t, n) scheme at the points x_j = j+1,
/// as an (n-t+1) x t table over the basis points x_0..x_{t-1}.  Row 0
/// evaluates the basis polynomial at 0 (the secret); row r >= 1 evaluates
/// it at the check point x_{t-1+r} = t+r.  Built once with t inversions;
/// every lookup after that is inversion-free.
class LagrangeTable {
 public:
  /// Requires 1 <= t <= n.
  LagrangeTable(int t, int n);

  [[nodiscard]] int t() const { return t_; }
  [[nodiscard]] int n() const { return n_; }

  /// P(0) from the first t values, ys[j] = P(j+1).  Requires |ys| >= t.
  [[nodiscard]] Fp reconstruct(std::span<const Fp> ys) const;

  /// P(0) if all n values ys[j] = P(j+1) lie on one polynomial of degree
  /// <= t-1 (the first t fix it, each check row verifies one more), else
  /// nullopt.  Requires |ys| == n.
  [[nodiscard]] std::optional<Fp> reconstruct_checked(std::span<const Fp> ys) const;

 private:
  [[nodiscard]] Fp dot(int row, std::span<const Fp> ys) const;

  int t_;
  int n_;
  std::vector<Fp> rows_;  ///< row-major, (n-t+1) rows of t coefficients
};

}  // namespace fle
