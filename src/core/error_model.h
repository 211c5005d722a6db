// Analytic prediction-error model (paper Eqns (6)-(7)).
//
// With representatives P_r, the prediction error of remaining path i is
// Delta_i = omega_i . x, a zero-mean Gaussian, so its worst case is
// WC(Delta_i) = kappa * ||omega_i||, and the paper's selection error is
//
//   eps_r = max_i WC(Delta_i) / Tcons.
//
// The key computational identity used here: with the full path Gram matrix
// W = A A^T precomputed once,
//
//   Var(Delta_i) = W_ii - w_i^T S^+ w_i,   S = A_r A_r^T = W[r, r],
//
// so evaluating eps_r for a candidate r costs one Cholesky of S plus one
// blocked multi-RHS triangular solve over the gathered panel W[rep, :] — no
// matrix the size of A is touched, no per-path allocation, and the per-path
// variance reduction is a chunked deterministic parallel_for (bit-identical
// for any thread count).  Algorithm 1 evaluates dozens of candidate r
// values; this identity is what makes that loop fast at the paper's scale.
// (The greedy route needs none of it to choose r: its pivoted Cholesky
// already holds every prefix's worst residual, see
// SubsetSelector::greedy_sigma.)
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace repro::core {

struct SelectionErrors {
  std::vector<int> remaining;         // path indices not in the selection
  linalg::Vector sigma;               // per-remaining-path error sigma (ps)
  double max_wc = 0.0;                // max_i kappa * sigma_i (ps)
  double eps_r = 0.0;                 // max_wc / Tcons
  linalg::Vector per_path_eps;        // kappa * sigma_i / Tcons
};

// `gram` is A A^T for the full target-path set.  `kappa` is the worst-case
// multiplier (WC(y) = kappa * std(y) for the zero-mean errors here).
SelectionErrors selection_errors_from_gram(const linalg::Matrix& gram,
                                           const std::vector<int>& rep,
                                           double t_cons, double kappa);

// Convenience for tests / small cases: computes the Gram internally.
SelectionErrors selection_errors(const linalg::Matrix& a,
                                 const std::vector<int>& rep, double t_cons,
                                 double kappa);

}  // namespace repro::core
