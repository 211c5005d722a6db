// Algorithm 1: representative path selection under an error tolerance.
//
//   1. r = rank(A); select r paths exactly (eps_r = 0).
//   2. While eps_r <= eps: r -= 1; select r paths (Algorithm 2); recompute
//      eps_r.  The answer is the smallest r whose error stays within eps.
//
// Three drivers are provided: the paper-verbatim linear decrement, a
// bisection driver exploiting that eps_r is (numerically) non-increasing in
// r (O(log rank) candidates instead of O(rank) — the default for large
// instances), and a greedy driver that swaps Algorithm 2's QRCP selection
// for the greedy pivoted-Cholesky order.  Greedy pivoting always adds the
// worst-predicted path, so the factor's diagonal already prices every
// prefix and the driver reads the answer off it (see
// SubsetSelector::greedy_sigma).  All share one selector and the Gram
// matrix it owns.
#pragma once

#include <cstddef>
#include <vector>

#include "core/error_model.h"
#include "core/subset_select.h"
#include "linalg/matrix.h"

namespace repro::core {

enum class SelectionStrategy {
  kLinearDecrement,  // paper Algorithm 1, verbatim
  kBisection,        // same result up to error-monotonicity noise, much faster
  kGreedySweep,      // first greedy pivot prefix that meets epsilon;
                     // representatives may differ from the QRCP route
};

struct PathSelectionOptions {
  double epsilon = 0.05;  // tolerance, fraction of Tcons
  double kappa = 3.0;     // worst-case multiplier: WC(y) = kappa * std(y)
  SelectionStrategy strategy = SelectionStrategy::kBisection;
  std::size_t min_r = 1;
};

struct PathSelectionResult {
  std::vector<int> representatives;  // row indices into A (pivot order)
  std::size_t exact_rank = 0;        // rank(A) = exact-selection size
  double eps_r = 0.0;                // achieved worst-case error fraction
  SelectionErrors errors;            // per-remaining-path analytic errors
  std::size_t candidates_evaluated = 0;
};

// Selects representative paths from A (rows = target paths), forming the
// Gram matrix A A^T internally.  A caller that already holds it builds a
// SubsetSelector and uses the overload below.
PathSelectionResult select_representative_paths(
    const linalg::Matrix& a, double t_cons,
    const PathSelectionOptions& options);

// Same, reusing an existing SubsetSelector (shared factors); `gram` is W,
// usually selector.gram().
PathSelectionResult select_representative_paths(
    const SubsetSelector& selector, const linalg::Matrix& gram, double t_cons,
    const PathSelectionOptions& options);

}  // namespace repro::core
