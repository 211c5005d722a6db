// Algorithm 3: hybrid path/segment selection.
//
//   1. Select P_r1: exact representative paths (r1 = rank(A), zero error).
//      Any rank(A) independent rows of A are exact (Theorem 1), so P_r1 is
//      the first rank(A) pivots of the selector's pivoted Cholesky of W.
//   2. Select segments S_r1 modeling d_Pr1 within eps' < eps (Eqn (10),
//      by greedy conditional-variance pivoting; see group_sparse.h).
//   3. Predict all target paths from d_S_r1 (optimal linear predictor);
//      detect P_r2 = paths whose worst-case prediction error exceeds
//      eps * Tcons.
//   4. Final measurement set = P_r2 (paths) + S_r1 (segments); redundant
//      measurements are pruned by exact (rank-preserving) subset selection
//      on the stacked measurement matrix, and one joint optimal predictor
//      covers every remaining path.
//
// eps' is swept (the paper parallelizes this at design stage and keeps the
// eps' minimizing |P_r| + |S_r|).  When the best Algorithm-3 set is larger
// than the caller's Algorithm-1 selection at eps, the result falls back to
// that path-only set.
#pragma once

#include <cstddef>
#include <vector>

#include "core/path_selection.h"
#include "core/predictor.h"
#include "core/subset_select.h"
#include "variation/variation_model.h"

namespace repro::core {

struct HybridOptions {
  double epsilon = 0.08;  // overall tolerance (fraction of Tcons)
  double kappa = 3.0;
};

struct HybridResult {
  std::vector<int> rep_paths;     // P_r (indices into the target-path set)
  std::vector<int> rep_segments;  // S_r (segment ids)
  LinearPredictor predictor;      // joint predictor for the remaining paths
  double eps_prime = 0.0;         // segment-stage tolerance used
  double eps_achieved = 0.0;      // analytic worst-case error fraction
  std::size_t exact_rank = 0;     // |P_r1| = rank(A)
  // Algorithm 3's own choice at eps_prime, before the path-only fallback.
  std::size_t detected_paths = 0;  // |P_r2| from Step 3, before pruning
  std::size_t alg3_total = 0;      // |P_r2| + |S_r| after Step-4 pruning
  double alg3_eps = 0.0;           // its analytic worst-case error fraction
};

// Runs Algorithm 3 for each eps' on the caller's Algorithm-2 state: the
// selector built from W = A A^T of `model`, and `path_only`, the caller's
// Algorithm-1 selection at options.epsilon (the fallback).  Keeps the eps'
// whose Algorithm-3 set minimizes |rep_paths| + |rep_segments| (ties:
// smaller achieved error).  Throws std::invalid_argument on an empty sweep,
// a t_cons that is not positive or an eps' outside (0, eps) (NaN included),
// a path_only whose eps_r exceeds eps, or a selector whose order is not the
// model's path count.  Neither the selector nor path_only is changed.
HybridResult sweep_hybrid_selection(const SubsetSelector& selector,
                                    const PathSelectionResult& path_only,
                                    const variation::VariationModel& model,
                                    double t_cons,
                                    const std::vector<double>& eps_primes,
                                    const HybridOptions& options = {});

}  // namespace repro::core
