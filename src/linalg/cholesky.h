// Cholesky factorization for symmetric positive (semi-)definite systems.
//
// The hot loop of Algorithm 1 solves S y = w with S = A_r A_r^T for hundreds
// of right-hand sides per candidate r; Cholesky is the cheapest stable
// factorization for that.  Gram matrices of rank-deficient A_r can be
// singular, so `chol_factor_regularized` adds the smallest jitter that makes
// the factorization succeed (equivalent to a ridge pseudo-inverse, which is
// what the paper's pseudo-inverse notation permits).
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace repro::linalg {

struct CholFactors {
  Matrix l;        // lower-triangular factor, S = L L^T
  bool ok = false;  // factorization succeeded (matrix numerically SPD)
};

// Plain factorization; ok=false if a non-positive pivot is met.
CholFactors chol_factor(Matrix s);

// Factorize S + jitter*I, growing jitter from `initial_jitter` by 10x until
// success.  Records the jitter used; throws std::runtime_error when no
// jitter up to max_abs(S) makes the factorization succeed (e.g. NaN/Inf
// entries or a matrix far from PSD).
struct RegularizedChol {
  CholFactors factors;
  double jitter = 0.0;
};
RegularizedChol chol_factor_regularized(const Matrix& s,
                                        double initial_jitter = 0.0);

// The Matrix forms solve every column of B and give each column the same
// bits as the Vector form applied to it alone.
Vector chol_solve(const CholFactors& f, Vector b);
Matrix chol_solve(const CholFactors& f, const Matrix& b);

// Solve L y = b (forward) and L^T x = y (backward) separately; used by the
// streaming calibrator, which needs L^{-1} B as well as S^{-1} B.  chol_backward(f, chol_forward(f, b)) has
// the bits of chol_solve(f, b).
Vector chol_forward(const CholFactors& f, Vector b);
Vector chol_backward(const CholFactors& f, Vector b);
Matrix chol_forward(const CholFactors& f, const Matrix& b);
Matrix chol_backward(const CholFactors& f, const Matrix& b);

// The pivoted-Cholesky engine: P^T S P = L L^T for a PSD S, built one
// column at a time with the caller choosing each pivot.  It borrows S (which
// must outlive it) and never forms a Schur complement: pivot(p) makes
// column k of L left-looking against S,
//
//   l(i,k) = (S(i,p) - sum_j<k l(i,j) l(p,j)) / l(p,p),
//
// and downdates the residual diagonal, residual()[i] -= l(i,k)^2.  Each
// row's sum is one serial chain in j order whatever the thread count (rows
// run eight at a time and split over the pool once rest * (k+1) >= 65 536),
// so every pivot rule driven on it gets the same bits at any thread count.
// Rows keep their original indices; L is n x k storage that doubles as k
// grows, so it stays O(n * rank) when rank << n.  pivoted_cholesky drives
// it with the largest-residual rule, select_segments (core/group_sparse.h)
// with Eqn (10)'s coverage rule.
class CholeskyPivots {
 public:
  explicit CholeskyPivots(const Matrix& s);
  explicit CholeskyPivots(Matrix&&) = delete;  // it would borrow a temporary

  // Schur-complement diagonal of S on the pivots taken so far, by row
  // index; zero at a taken pivot.
  const Vector& residual() const { return residual_; }

  // Takes row p (not yet taken, residual()[p] > 0) as the next pivot and
  // returns that column of L by row index: sqrt(residual()[p]) at p, zero at
  // the earlier pivots.  The column is valid until the next pivot.
  const Vector& pivot(std::size_t p);

 private:
  const Matrix& s_;
  Vector residual_;
  Matrix l_;                       // row i: l(i, 0..k) in pivot order
  std::vector<std::size_t> rest_;  // rows not yet taken, ascending
  Vector col_;
};

// Pivoted (rank-revealing) Cholesky for PSD matrices with diagonal pivoting:
// the engine above driven by the largest residual (first in the swapped
// pivot order on a tie).  Stops when the largest remaining diagonal falls
// below tol (relative to the largest initial diagonal), revealing the
// numerical rank in O(n * rank^2) — the cheap way to get rank(A) from the
// Gram matrix A A^T without any O(n^3) eigendecomposition.  The pivot order
// greedily maximizes residual variance, i.e. it equals the column-pivot
// order of a QR factorization of A^T.  Only the pivot order and L's
// diagonal leave the factorization; the n x rank factor is working storage.
struct PivotedChol {
  std::size_t rank = 0;
  std::vector<int> perm;  // perm[k] = original index chosen at step k
  Vector sigma;           // sigma[k] = L(k,k), pivot k's residual std. dev.
};
PivotedChol pivoted_cholesky(const Matrix& s, double rel_tol = -1.0);

}  // namespace repro::linalg
