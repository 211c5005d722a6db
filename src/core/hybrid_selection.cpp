#include "core/hybrid_selection.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/path_selection.h"
#include "core/subset_select.h"
#include "linalg/gemm.h"
#include "linalg/qr_colpivot.h"
#include "util/contracts.h"

namespace repro::core {
namespace {

// Shared (expensive) artifacts hoisted out of the eps' sweep.
struct HybridContext {
  SubsetSelector selector;        // owns W = A A^T
  PathSelectionResult path_only;  // Algorithm-1 fallback at eps
  SegmentQuadratic quad;          // Eqn-10 worst-case form, eps'-independent

  HybridContext(const linalg::Matrix& a, const linalg::Matrix& sigma,
                const linalg::Vector& mu_segments, double t_cons,
                const HybridOptions& options)
      : selector(make_subset_selector(a, linalg::gram(a))),
        quad(build_segment_quadratic(sigma, mu_segments, options.kappa)) {
    PathSelectionOptions popt;
    popt.epsilon = options.epsilon;
    popt.kappa = options.kappa;
    path_only = select_representative_paths(selector, selector.gram(), t_cons,
                                             popt);
  }
};

// Step-4 pruning: exact subset selection on the stacked measurement matrix
// M = [A rows of P_r2 ; Sigma rows of S_r1].  Rows that add no numerical
// rank are redundant measurements and are dropped (zero error tolerance:
// the spanned row space, hence the predictor, is unchanged).
void prune_measurements(const linalg::Matrix& a, const linalg::Matrix& sigma,
                        std::vector<int>& rep_paths,
                        std::vector<int>& rep_segments) {
  const std::size_t n_meas = rep_paths.size() + rep_segments.size();
  if (n_meas == 0) return;
  linalg::Matrix m(n_meas, a.cols());
  std::size_t row = 0;
  for (int i : rep_paths) {
    m.set_row(row++, a.row(static_cast<std::size_t>(i)));
  }
  for (int s : rep_segments) {
    m.set_row(row++, sigma.row(static_cast<std::size_t>(s)));
  }
  // Pivoted QR on M^T (its candidates are the rows of M): pivot candidates =
  // linearly independent measurement rows.
  const linalg::QrcpResult f = linalg::qr_colpivot(std::move(m));
  const std::size_t rank = linalg::qrcp_rank(f);
  std::vector<char> keep(n_meas, 0);
  for (std::size_t k = 0; k < rank; ++k) {
    keep[static_cast<std::size_t>(f.perm[k])] = 1;
  }
  std::vector<int> paths_out, segs_out;
  for (std::size_t k = 0; k < rep_paths.size(); ++k) {
    if (keep[k]) paths_out.push_back(rep_paths[k]);
  }
  for (std::size_t k = 0; k < rep_segments.size(); ++k) {
    if (keep[rep_paths.size() + k]) segs_out.push_back(rep_segments[k]);
  }
  rep_paths = std::move(paths_out);
  rep_segments = std::move(segs_out);
}

HybridResult run_with_context(const HybridContext& ctx,
                              const linalg::Matrix& a,
                              const linalg::Vector& mu_paths,
                              const linalg::Matrix& g,
                              const linalg::Matrix& sigma,
                              const linalg::Vector& mu_segments,
                              double t_cons, double eps_prime,
                              const HybridOptions& options) {
  if (eps_prime <= 0.0 || eps_prime >= options.epsilon) {
    throw std::invalid_argument("run_hybrid_selection: need 0 < eps' < eps");
  }
  const std::size_t n = a.rows();
  HybridResult out;
  out.eps_prime = eps_prime;

  // --- Step 1: exact representative paths P_r1 (zero error). ---
  out.exact_rank = ctx.selector.rank();
  const std::vector<int> p_r1 = ctx.selector.select(out.exact_rank);

  // --- Step 2: representative segments modeling d_Pr1 within eps'. ---
  const linalg::Matrix g_r1 = g.select_rows(p_r1);
  GroupSparseOptions gs = options.group_sparse;
  gs.kappa = options.kappa;
  const GroupSparseResult seg =
      select_segments(g_r1, ctx.quad, eps_prime * t_cons, gs);
  out.rep_segments = seg.selected_segments;
  out.admm_iterations = seg.iterations;

  // --- Step 3: predict every target path from d_S_r1 alone; detect P_r2 =
  // paths with worst-case error above eps * Tcons. ---
  std::vector<int> all_paths(n);
  for (std::size_t i = 0; i < n; ++i) all_paths[i] = static_cast<int>(i);
  const LinearPredictor seg_only =
      make_joint_predictor(a, mu_paths, sigma, mu_segments,
                           /*rep_paths=*/{}, out.rep_segments, all_paths);
  const linalg::Vector seg_err = seg_only.error_sigmas();
  std::vector<int> p_r2;
  for (std::size_t i = 0; i < n; ++i) {
    if (options.kappa * seg_err[i] > options.epsilon * t_cons) {
      p_r2.push_back(static_cast<int>(i));
    }
  }
  out.detected_paths = p_r2.size();

  // --- Step 4: final measurement set, pruned of redundancy. ---
  out.rep_paths = p_r2;
  if (options.prune_redundant) {
    prune_measurements(a, sigma, out.rep_paths, out.rep_segments);
  }
  std::vector<char> measured(n, 0);
  for (int i : out.rep_paths) measured[static_cast<std::size_t>(i)] = 1;
  std::vector<int> remaining;
  for (std::size_t i = 0; i < n; ++i) {
    if (!measured[i]) remaining.push_back(static_cast<int>(i));
  }
  out.predictor = make_joint_predictor(a, mu_paths, sigma, mu_segments,
                                       out.rep_paths, out.rep_segments,
                                       remaining);
  const linalg::Vector final_err = out.predictor.error_sigmas();
  double worst = 0.0;
  for (double s : final_err) worst = std::max(worst, s);
  out.eps_achieved = options.kappa * worst / t_cons;

  // Hybrid selection exists to *reduce* post-silicon measurements; when the
  // segment route ends up costlier than plain Algorithm-1 path selection at
  // the same tolerance (possible when segments outnumber rank(A), e.g. tiny
  // designs), fall back to the cheaper path-only measurement set.
  const PathSelectionResult& path_only = ctx.path_only;
  if (path_only.representatives.size() <
      out.rep_paths.size() + out.rep_segments.size()) {
    out.rep_paths = path_only.representatives;
    out.rep_segments.clear();
    out.detected_paths = out.rep_paths.size();
    std::vector<char> meas(n, 0);
    for (int i : out.rep_paths) meas[static_cast<std::size_t>(i)] = 1;
    std::vector<int> rem2;
    for (std::size_t i = 0; i < n; ++i) {
      if (!meas[i]) rem2.push_back(static_cast<int>(i));
    }
    out.predictor = make_joint_predictor(a, mu_paths, sigma, mu_segments,
                                         out.rep_paths, {}, rem2);
    out.eps_achieved = path_only.eps_r;
  }
  return out;
}

}  // namespace

HybridResult run_hybrid_selection(const linalg::Matrix& a,
                                  const linalg::Vector& mu_paths,
                                  const linalg::Matrix& g,
                                  const linalg::Matrix& sigma,
                                  const linalg::Vector& mu_segments,
                                  double t_cons, double eps_prime,
                                  const HybridOptions& options) {
  REPRO_CHECK_DIM(mu_paths.size(), a.rows(),
                  "run_hybrid_selection: path means vs path count");
  REPRO_CHECK_DIM(a.cols(), sigma.cols(),
                  "run_hybrid_selection: parameter count of A vs Sigma");
  const HybridContext ctx(a, sigma, mu_segments, t_cons, options);
  return run_with_context(ctx, a, mu_paths, g, sigma, mu_segments, t_cons,
                          eps_prime, options);
}

HybridResult sweep_hybrid_selection(const linalg::Matrix& a,
                                    const linalg::Vector& mu_paths,
                                    const linalg::Matrix& g,
                                    const linalg::Matrix& sigma,
                                    const linalg::Vector& mu_segments,
                                    double t_cons,
                                    const std::vector<double>& eps_primes,
                                    const HybridOptions& options) {
  if (eps_primes.empty()) {
    throw std::invalid_argument("sweep_hybrid_selection: empty sweep");
  }
  REPRO_CHECK_DIM(mu_paths.size(), a.rows(),
                  "sweep_hybrid_selection: path means vs path count");
  REPRO_CHECK_DIM(a.cols(), sigma.cols(),
                  "sweep_hybrid_selection: parameter count of A vs Sigma");
  const HybridContext ctx(a, sigma, mu_segments, t_cons, options);
  HybridResult best;
  std::size_t best_cost = std::numeric_limits<std::size_t>::max();
  for (double ep : eps_primes) {
    HybridResult r = run_with_context(ctx, a, mu_paths, g, sigma, mu_segments,
                                      t_cons, ep, options);
    const std::size_t cost = r.rep_paths.size() + r.rep_segments.size();
    if (cost < best_cost ||
        (cost == best_cost && r.eps_achieved < best.eps_achieved)) {
      best_cost = cost;
      best = std::move(r);
    }
  }
  return best;
}

}  // namespace repro::core
