#include "core/clustering.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/gemm.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace repro::core {
namespace {

void normalize_rows(linalg::Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double n = linalg::norm2(m.row(i));
    if (n > 0.0) linalg::scale(m.row(i), 1.0 / n);
  }
}

}  // namespace

// The only precondition (k in [1, rows]) is validated unconditionally just
// below in every build; a contract would duplicate it.
// repro-lint: allow(contracts)
std::vector<int> cluster_rows_spherical(const linalg::Matrix& a,
                                        std::size_t k, int iterations,
                                        std::uint64_t seed) {
  const std::size_t n = a.rows();
  if (k == 0 || k > n) {
    throw std::invalid_argument("cluster_rows_spherical: bad k");
  }
  linalg::Matrix rows = a;
  normalize_rows(rows);

  util::Rng rng(seed);
  // k-means++-style seeding on cosine distance: first center random, each
  // next center the row farthest (in expectation) from current centers.
  linalg::Matrix centers(k, a.cols());
  std::vector<double> best_sim(n, -2.0);
  {
    const std::size_t first = rng.uniform_index(n);
    centers.set_row(0, rows.row(first));
    for (std::size_t c = 1; c < k; ++c) {
      double worst = 2.0;
      std::size_t pick = 0;
      for (std::size_t i = 0; i < n; ++i) {
        best_sim[i] = std::max(best_sim[i],
                               linalg::dot(rows.row(i), centers.row(c - 1)));
        // Prefer rows least similar to any existing center; small random
        // tie-break keeps the seeding from being adversarially determined.
        const double key = best_sim[i] + 1e-9 * rng.uniform();
        if (key < worst) {
          worst = key;
          pick = i;
        }
      }
      centers.set_row(c, rows.row(pick));
    }
  }

  std::vector<int> assign(n, 0);
  for (int it = 0; it < iterations; ++it) {
    // Assign: max cosine similarity (rows and centers unit length).
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      double best = -2.0;
      int arg = assign[i];
      for (std::size_t c = 0; c < k; ++c) {
        const double s = linalg::dot(rows.row(i), centers.row(c));
        if (s > best) {
          best = s;
          arg = static_cast<int>(c);
        }
      }
      if (arg != assign[i]) {
        assign[i] = arg;
        changed = true;
      }
    }
    if (!changed && it > 0) break;
    // Update: mean direction per cluster; reseed empty clusters.
    centers = linalg::Matrix(k, a.cols());
    std::vector<std::size_t> count(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      linalg::axpy(1.0, rows.row(i),
                   centers.row(static_cast<std::size_t>(assign[i])));
      ++count[static_cast<std::size_t>(assign[i])];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (count[c] == 0) {
        centers.set_row(c, rows.row(rng.uniform_index(n)));
        continue;
      }
      const double nrm = linalg::norm2(centers.row(c));
      if (nrm > 0.0) linalg::scale(centers.row(c), 1.0 / nrm);
    }
  }
  return assign;
}

ClusteredSelectionResult select_paths_clustered(
    const linalg::Matrix& a, double t_cons,
    const ClusteredSelectionOptions& options) {
  REPRO_CHECK(t_cons > 0.0, "select_paths_clustered: t_cons must be positive");
  const std::size_t n = a.rows();
  if (n == 0) throw std::invalid_argument("select_paths_clustered: empty A");
  std::size_t k = options.num_clusters;
  if (k == 0) k = std::max<std::size_t>(1, (n + 499) / 500);
  k = std::min(k, n);

  ClusteredSelectionResult out;
  out.clusters_used = k;
  out.cluster_of_path =
      cluster_rows_spherical(a, k, options.kmeans_iterations, options.seed);

  // Per-cluster Algorithm 1.
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<int> members;
    for (std::size_t i = 0; i < n; ++i) {
      if (out.cluster_of_path[i] == static_cast<int>(c)) {
        members.push_back(static_cast<int>(i));
      }
    }
    if (members.empty()) continue;
    if (members.size() == 1) {
      out.representatives.push_back(members.front());
      continue;
    }
    const linalg::Matrix a_c = a.select_rows(members);
    const PathSelectionResult sel =
        select_representative_paths(a_c, t_cons, options.selection);
    for (int local : sel.representatives) {
      out.representatives.push_back(members[static_cast<std::size_t>(local)]);
    }
  }
  std::sort(out.representatives.begin(), out.representatives.end());

  // Global verification + greedy repair: the per-cluster tolerance does not
  // bound cross-cluster residuals, so check against the full set and add
  // the worst offender until the global bound holds.
  const linalg::Matrix gram = linalg::gram(a);
  out.errors = selection_errors_from_gram(gram, out.representatives, t_cons,
                                          options.selection.kappa);
  while (out.errors.eps_r > options.selection.epsilon &&
         out.representatives.size() < n) {
    // Worst remaining path joins the representatives.
    std::size_t worst = 0;
    for (std::size_t i = 1; i < out.errors.per_path_eps.size(); ++i) {
      if (out.errors.per_path_eps[i] > out.errors.per_path_eps[worst]) {
        worst = i;
      }
    }
    out.representatives.push_back(out.errors.remaining[worst]);
    std::sort(out.representatives.begin(), out.representatives.end());
    ++out.greedy_additions;
    out.errors = selection_errors_from_gram(gram, out.representatives, t_cons,
                                            options.selection.kappa);
  }
  out.eps_r = out.errors.eps_r;
  return out;
}

}  // namespace repro::core
