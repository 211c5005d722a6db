#include "core/path_selection.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "linalg/gemm.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace repro::core {
namespace {

struct Candidate {
  std::vector<int> rep;
  SelectionErrors errors;
};

Candidate evaluate(const SubsetSelector& selector, const linalg::Matrix& gram,
                   double t_cons, double kappa, std::size_t r) {
  Candidate c;
  c.rep = selector.select(r);
  c.errors = selection_errors_from_gram(gram, c.rep, t_cons, kappa);
  return c;
}

}  // namespace

PathSelectionResult select_representative_paths(
    const SubsetSelector& selector, const linalg::Matrix& gram, double t_cons,
    const PathSelectionOptions& options) {
  REPRO_CHECK_DIM(gram.rows(), gram.cols(),
                  "select_representative_paths: Gram matrix must be square");
  REPRO_CHECK(t_cons > 0.0,
              "select_representative_paths: timing constraint must be > 0");
  const util::telemetry::Span span("core.select");
  const std::size_t rank = selector.rank();
  if (rank == 0) {
    throw std::invalid_argument("select_representative_paths: rank(A) == 0");
  }
  PathSelectionResult out;
  out.exact_rank = rank;
  // min_r above rank is unreachable (the search space is [1, rank]); clamp
  // so both drivers agree on the edge instead of the bisection loop silently
  // never running and falling back to the exact selection.
  const std::size_t min_r =
      std::min(rank, std::max<std::size_t>(options.min_r, 1));

  Candidate best;
  bool have_best = false;
  if (options.strategy == SelectionStrategy::kLinearDecrement) {
    // Paper Algorithm 1: start from the exact selection (r = rank(A),
    // eps_r = 0 by Theorem 1) and decrement while the error stays within
    // epsilon.
    best = evaluate(selector, gram, t_cons, options.kappa, rank);
    have_best = true;
    out.candidates_evaluated = 1;
    std::size_t r = rank;
    while (r > min_r) {
      Candidate next = evaluate(selector, gram, t_cons, options.kappa, r - 1);
      ++out.candidates_evaluated;
      if (next.errors.eps_r > options.epsilon) break;
      best = std::move(next);
      --r;
    }
  } else if (options.strategy == SelectionStrategy::kGreedySweep) {
    // Greedy pivoting adds the path with the largest residual variance, so
    // the prefix of r pivots leaves pivot r's residual as its worst path:
    // eps_r = kappa * sigma[r] / Tcons.  Residuals only shrink as pivots are
    // added, so sigma is non-increasing and the first prefix that meets
    // epsilon is also Algorithm 1's decrement answer.  Prefixes at or past
    // the pivoted rank leave only sub-tolerance residuals: exact selections
    // (Theorem 1), feasible without pricing.
    const std::vector<int>& order = selector.greedy_order(gram);
    const linalg::Vector& sigma = selector.greedy_sigma();
    std::size_t r = min_r;
    while (r < std::min(rank, sigma.size()) &&
           options.kappa * sigma[r] / t_cons > options.epsilon) {
      ++r;
    }
    best.rep.assign(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(r));
    // Re-price the chosen prefix through the panel evaluator so the result
    // carries the full per-path error vectors like the other drivers.
    best.errors =
        selection_errors_from_gram(gram, best.rep, t_cons, options.kappa);
    have_best = true;
    out.candidates_evaluated = r - min_r + 1;
  } else {
    // Bisection on the smallest feasible r in [min_r, rank].  r = rank is
    // feasible by Theorem 1 without evaluation, so the search only ever
    // factors subspaces of the sizes it visits (which keeps the lazy
    // eigenpair capture small).
    std::size_t lo = min_r;  // maybe infeasible
    std::size_t hi = rank;   // known feasible (eps_r = 0)
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      Candidate c = evaluate(selector, gram, t_cons, options.kappa, mid);
      ++out.candidates_evaluated;
      if (c.errors.eps_r <= options.epsilon) {
        best = std::move(c);
        have_best = true;
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
  }
  if (!have_best) {
    // Nothing below rank met the tolerance: fall back to exact selection.
    best = evaluate(selector, gram, t_cons, options.kappa, rank);
    ++out.candidates_evaluated;
  }

  util::telemetry::count("core.select.candidates", out.candidates_evaluated);
  out.representatives = std::move(best.rep);
  out.errors = std::move(best.errors);
  out.eps_r = out.errors.eps_r;
  return out;
}

// The Gram overload validates t_cons and the rank; the selector checks the
// Gram shape.
// repro-lint: allow(contracts)
PathSelectionResult select_representative_paths(
    const linalg::Matrix& a, double t_cons,
    const PathSelectionOptions& options) {
  linalg::Matrix w;
  {
    const util::telemetry::Span span("core.select.gram");
    w = linalg::gram(a);
  }
  const SubsetSelector selector = make_subset_selector(a, std::move(w));
  return select_representative_paths(selector, selector.gram(), t_cons,
                                     options);
}

}  // namespace repro::core
