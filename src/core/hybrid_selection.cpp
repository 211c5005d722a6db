#include "core/hybrid_selection.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/group_sparse.h"
#include "linalg/qr_colpivot.h"
#include "util/telemetry.h"

namespace repro::core {
namespace {

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
  const linalg::QrcpResult f = linalg::qr_colpivot(m);
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

// The joint predictor of every path outside `rep_paths`.
LinearPredictor predict_unmeasured(const variation::VariationModel& model,
                                   const std::vector<int>& rep_paths,
                                   const std::vector<int>& rep_segments) {
  std::vector<char> measured(model.num_paths(), 0);
  for (int i : rep_paths) measured[static_cast<std::size_t>(i)] = 1;
  std::vector<int> remaining;
  for (std::size_t i = 0; i < model.num_paths(); ++i) {
    if (!measured[i]) remaining.push_back(static_cast<int>(i));
  }
  return make_joint_predictor(model.a(), model.mu_paths(), model.sigma(),
                              model.mu_segments(), rep_paths, rep_segments,
                              remaining);
}

// Steps 2-4 at one eps', from the exact basis P_r1 of Step 1.
HybridResult run_algorithm3(const variation::VariationModel& model,
                            const linalg::Matrix& g_r1,
                            const linalg::Matrix& q, double t_cons,
                            double eps_prime, const HybridOptions& options) {
  const std::size_t n = model.num_paths();
  HybridResult out;
  out.eps_prime = eps_prime;

  // --- Step 2: representative segments modeling d_Pr1 within eps'. ---
  out.rep_segments =
      select_segments(g_r1, q, eps_prime * t_cons).selected_segments;

  // --- Step 3: predict every target path from d_S_r1 alone; detect P_r2 =
  // paths with worst-case error above eps * Tcons. ---
  {
    const util::telemetry::Span span("core.hybrid.step3");
    std::vector<int> all_paths(n);
    for (std::size_t i = 0; i < n; ++i) all_paths[i] = static_cast<int>(i);
    const LinearPredictor seg_only = make_joint_predictor(
        model.a(), model.mu_paths(), model.sigma(), model.mu_segments(),
        /*rep_paths=*/{}, out.rep_segments, all_paths);
    const linalg::Vector seg_err = seg_only.error_sigmas();
    for (std::size_t i = 0; i < n; ++i) {
      if (options.kappa * seg_err[i] > options.epsilon * t_cons) {
        out.rep_paths.push_back(static_cast<int>(i));
      }
    }
  }
  out.detected_paths = out.rep_paths.size();

  // --- Step 4: final measurement set, pruned of redundancy, and one joint
  // predictor for the remaining paths. ---
  prune_measurements(model.a(), model.sigma(), out.rep_paths,
                     out.rep_segments);
  out.predictor = predict_unmeasured(model, out.rep_paths, out.rep_segments);
  double worst = 0.0;
  for (double s : out.predictor.error_sigmas()) worst = std::max(worst, s);
  out.eps_achieved = options.kappa * worst / t_cons;
  out.alg3_total = out.rep_paths.size() + out.rep_segments.size();
  out.alg3_eps = out.eps_achieved;
  return out;
}

}  // namespace

HybridResult sweep_hybrid_selection(const SubsetSelector& selector,
                                    const PathSelectionResult& path_only,
                                    const variation::VariationModel& model,
                                    double t_cons,
                                    const std::vector<double>& eps_primes,
                                    const HybridOptions& options) {
  if (eps_primes.empty()) {
    throw std::invalid_argument("sweep_hybrid_selection: empty sweep");
  }
  for (double ep : eps_primes) {
    if (ep <= 0.0 || ep >= options.epsilon) {
      throw std::invalid_argument("sweep_hybrid_selection: need 0 < eps' < eps");
    }
  }
  if (selector.gram().rows() != model.num_paths()) {
    throw std::invalid_argument(
        "sweep_hybrid_selection: selector order vs path count");
  }
  if (path_only.eps_r > options.epsilon) {
    throw std::invalid_argument(
        "sweep_hybrid_selection: path-only selection misses eps");
  }

  // --- Step 1: exact representative paths P_r1 (zero error): the first
  // rank(A) pivots of the pivoted Cholesky of W are independent rows. ---
  const std::vector<int>& order = selector.greedy_order(selector.gram());
  const std::vector<int> p_r1(
      order.begin(),
      order.begin() + static_cast<std::ptrdiff_t>(selector.rank()));
  // G_r1: the incidence rows of P_r1, made dense only for these r1 paths.
  linalg::Matrix g_r1(p_r1.size(), model.num_segments());
  for (std::size_t i = 0; i < p_r1.size(); ++i) {
    for (int s : model.path_segments()[static_cast<std::size_t>(p_r1[i])]) {
      g_r1(i, static_cast<std::size_t>(s)) = 1.0;
    }
  }
  const linalg::Matrix q = build_segment_quadratic(
      model.sigma(), model.mu_segments(), options.kappa);

  HybridResult best;
  for (std::size_t k = 0; k < eps_primes.size(); ++k) {
    HybridResult r =
        run_algorithm3(model, g_r1, q, t_cons, eps_primes[k], options);
    if (k == 0 || r.alg3_total < best.alg3_total ||
        (r.alg3_total == best.alg3_total &&
         r.eps_achieved < best.eps_achieved)) {
      best = std::move(r);
    }
  }
  best.exact_rank = selector.rank();

  // Hybrid selection exists to *reduce* post-silicon measurements; when the
  // segment route ends up costlier than plain Algorithm-1 path selection at
  // the same tolerance, fall back to the cheaper path-only measurement set.
  if (path_only.representatives.size() < best.alg3_total) {
    best.rep_paths = path_only.representatives;
    best.rep_segments.clear();
    best.predictor = predict_unmeasured(model, best.rep_paths, {});
    best.eps_achieved = path_only.eps_r;
  }
  return best;
}

}  // namespace repro::core
