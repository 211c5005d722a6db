// Algorithm 2: selection of r representative rows of A.
//
//   1. U_r: the leading r left singular vectors of A, which are the leading
//      eigenvectors of the Gram matrix W = A A^T.
//   2. QR with column pivoting on U_r^T; the permutation ranks the rows of A
//      by how much independent direction each contributes within the
//      dominant r-dimensional row space.
//   3. The first r pivots are the representative rows.
//
// This Gram route is the only source of rank(A), A's singular values and
// U_r; A itself is never factored, whatever the pool's shape or size.
// rank(A) comes from a pivoted Cholesky of W in O(n rank^2), and the
// leading eigenpairs of W are captured lazily by a randomized eigensolver
// sized to the largest r actually requested — never an O(n^3) dense
// eigendecomposition.  The factors are shared across all r (Algorithm 1
// calls select() for many candidate r values).  Because capture is lazy,
// select(r) reads U_r from the largest capture made so far, so the rows it
// picks can depend on which r (or singular_values()) was asked for first.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "linalg/matrix.h"

namespace repro::core {

class SubsetSelector {
 public:
  // Takes ownership of `gram` = W = A A^T (move it in to avoid a copy).
  // Only A's shape is read.
  SubsetSelector(const linalg::Matrix& a, linalg::Matrix gram);

  // Numerical rank of A.
  std::size_t rank() const { return rank_; }

  // The retained W = A A^T, read-only.
  const linalg::Matrix& gram() const { return gram_; }

  // Singular values, non-increasing.  Triggers capture of the full
  // numerically-nonzero spectrum: rank() values plus the sketch's
  // oversampling, whose values are numerically zero.
  const linalg::Vector& singular_values() const;

  // Representative row indices for a given r (1 <= r <= rank()).  The
  // returned order is the pivot order (most informative row first).
  // Results are memoized per r: Algorithm 1's bisection probes the same
  // candidate sizes repeatedly, and the QRCP on U_r^T is not nested across
  // r, so each distinct r pays for exactly one factorization.
  std::vector<int> select(std::size_t r) const;

  // Greedy residual-variance selection: the pivot order of a rank-revealing
  // Cholesky of W (equivalently, QR with column pivoting on A^T, without the
  // SVD truncation of Algorithm 2).  Every prefix is a selection, so one
  // factorization serves every r.  Computed by the constructor.  Only the
  // first greedy_sigma().size() entries are pivots; the tail lists the
  // never-chosen indices.  `gram` must be this selector's W (usually
  // gram()); only its order is checked.
  const std::vector<int>& greedy_order(const linalg::Matrix& gram) const;

  // Residual standard deviation of each greedy pivot when it was chosen
  // (the factor's diagonal).  Pivoting takes the largest residual, so
  // entry k is max_i sqrt(Var(Delta_i)) over the paths outside the first
  // k pivots: the worst-case error of that prefix is kappa * sigma[k].  The
  // entries are non-increasing; the size is the pivoted rank.
  const linalg::Vector& greedy_sigma() const { return greedy_sigma_; }

 private:
  void ensure_captured(std::size_t k) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t rank_ = 0;
  linalg::Matrix gram_;
  std::vector<int> greedy_order_;  // pivoted-Cholesky order of W
  linalg::Vector greedy_sigma_;    // its diagonal; size = rank_
  // Captured leading singular values of A and their left singular vectors
  // (columns of u_), grown on demand.
  mutable linalg::Vector s_;
  mutable linalg::Matrix u_;
  // Memoized select(r) results (selector is logically const; probes repeat).
  mutable std::map<std::size_t, std::vector<int>> select_memo_;
};

// Checks that `gram` is W for `a` and builds the selector (every shape takes
// the Gram route).
SubsetSelector make_subset_selector(const linalg::Matrix& a,
                                    linalg::Matrix gram);

}  // namespace repro::core
