// Algorithm 2: selection of r representative rows of A.
//
//   1. SVD:  A = U diag(s) V^T.
//   2. QR with column pivoting on U_r^T (U_r = first r columns of U); the
//      permutation ranks the rows of A by how much independent direction
//      each contributes within the dominant r-dimensional row space.
//   3. The first r pivots are the representative rows.
//
// The factorization is computed once and shared across all r (Algorithm 1
// calls this for many candidate r values).  For large instances the Gram
// route is used: rank(A) comes from a pivoted Cholesky of W = A A^T in
// O(n rank^2), and the leading eigenpairs of W (= left singular vectors)
// are captured lazily by a randomized eigensolver sized to the largest r
// actually requested — never an O(n^3) dense eigendecomposition.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/svd.h"

namespace repro::core {

class SubsetSelector {
 public:
  // Precomputes the SVD of `a`.  Throws if the SVD does not converge.
  explicit SubsetSelector(const linalg::Matrix& a);

  // Constructs from an existing SVD of A (avoids recomputation when the
  // caller already has one, e.g. for effective-rank reporting).
  SubsetSelector(linalg::SvdResult svd, std::size_t rows, std::size_t cols);

  // Gram route: rank and singular vectors derived from W = A A^T
  // (sigma_i = sqrt(lambda_i), U = eigenvectors).  For n > 512 the
  // eigenpairs are captured lazily (see file comment); below that the dense
  // symmetric eigensolver is used directly.
  SubsetSelector(const linalg::Matrix& a, const linalg::Matrix& gram);

  // Numerical rank of A.
  std::size_t rank() const { return rank_; }

  // Singular values; on the lazy Gram route this triggers capture of the
  // full numerically-nonzero spectrum (values beyond rank() are zero).
  const linalg::Vector& singular_values() const;

  // Representative row indices for a given r (1 <= r <= rank()).  The
  // returned order is the pivot order (most informative row first).
  // Results are memoized per r: Algorithm 1's bisection probes the same
  // candidate sizes repeatedly, and the QRCP on U_r^T is not nested across
  // r, so each distinct r pays for exactly one factorization.
  std::vector<int> select(std::size_t r) const;

  // Greedy residual-variance selection: the pivot order of a rank-revealing
  // Cholesky of W = A A^T (equivalently, QR with column pivoting on A^T,
  // without the SVD truncation of Algorithm 2).  Every prefix is a
  // selection, so one factorization serves every r.  Computed once and
  // cached; on the Gram route the retained Gram is used, otherwise the
  // caller-supplied `gram` backs the factorization.  Only the first
  // greedy_sigma(gram).size() entries are pivots; the tail lists the
  // never-chosen indices.
  const std::vector<int>& greedy_order(const linalg::Matrix& gram) const;

  // Residual standard deviation of each greedy pivot when it was chosen
  // (the factor's diagonal).  Pivoting takes the largest residual, so
  // entry k is max_i sqrt(Var(Delta_i)) over the paths outside the first
  // k pivots: the worst-case error of that prefix is kappa * sigma[k].  The
  // entries are non-increasing; the size is the pivoted rank.
  const linalg::Vector& greedy_sigma(const linalg::Matrix& gram) const;

 private:
  void ensure_captured(std::size_t k) const;

  mutable linalg::SvdResult svd_;  // captured leading part on the lazy route
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t rank_ = 0;
  linalg::Matrix gram_;  // retained only on the Gram route
  bool lazy_ = false;
  bool have_gram_ = false;
  mutable std::vector<int> greedy_order_;  // pivoted-Cholesky order, lazy
  mutable linalg::Vector greedy_sigma_;    // its diagonal, same lifetime
  // Memoized select(r) results (selector is logically const; probes repeat).
  mutable std::map<std::size_t, std::vector<int>> select_memo_;
};

// Picks the cheaper factorization automatically: the Gram route for wide A
// (cols >= rows), the direct SVD otherwise.
SubsetSelector make_subset_selector(const linalg::Matrix& a,
                                    const linalg::Matrix& gram);

}  // namespace repro::core
