#include "core/error_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "linalg/trsm.h"
#include "util/contracts.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::core {
namespace {

// Paths per reduction chunk.  Each chunk owns a disjoint slice of the output
// vectors plus one max slot; slots are combined in chunk order after the
// join, so results are bit-identical for any thread count (the monte_carlo
// reduction pattern).
constexpr std::size_t kChunk = 512;

// Validates rep indices against an n-path Gram and returns the is-member
// mask.
std::vector<char> member_mask(std::size_t n, const std::vector<int>& rep) {
  std::vector<char> mask(n, 0);
  for (int i : rep) {
    if (i < 0 || static_cast<std::size_t>(i) >= n) {
      throw std::out_of_range("selection_errors: rep index");
    }
    // A duplicate representative makes S = W[rep, rep] exactly singular;
    // the regularized Cholesky would absorb that silently and return wrong
    // per-path sigmas, so reject it up front.
    if (mask[static_cast<std::size_t>(i)]) {
      throw std::invalid_argument(
          "selection_errors: duplicate representative index " +
          std::to_string(i));
    }
    mask[static_cast<std::size_t>(i)] = 1;
  }
  return mask;
}

}  // namespace

SelectionErrors selection_errors_from_gram(const linalg::Matrix& gram,
                                           const std::vector<int>& rep,
                                           double t_cons, double kappa) {
  REPRO_CHECK_DIM(gram.rows(), gram.cols(),
                  "selection_errors_from_gram: square Gram matrix");
  if (t_cons <= 0.0) throw std::invalid_argument("selection_errors: t_cons");
  const util::telemetry::Span span("core.error_model");
  const std::size_t n = gram.rows();
  SelectionErrors out;
  const std::vector<char> is_rep = member_mask(n, rep);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_rep[i]) out.remaining.push_back(static_cast<int>(i));
  }

  // S = W[rep, rep]; factor once.
  const std::size_t r = rep.size();
  linalg::Matrix s(r, r);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < r; ++j) {
      s(i, j) = gram(static_cast<std::size_t>(rep[i]),
                     static_cast<std::size_t>(rep[j]));
    }
  }
  const linalg::RegularizedChol rc = linalg::chol_factor_regularized(s);

  // Gather W[rep, remaining] once as an r x nrem panel and run one blocked
  // multi-RHS solve; the previous per-path loop allocated a fresh w/y pair
  // and re-streamed L for every remaining path.
  const std::size_t nrem = out.remaining.size();
  out.sigma.resize(nrem);
  out.per_path_eps.resize(nrem);
  linalg::Matrix panel(r, nrem);
  for (std::size_t j = 0; j < r; ++j) {
    double* pj = panel.row(j).data();
    const double* gj =
        gram.row(static_cast<std::size_t>(rep[j])).data();
    for (std::size_t k = 0; k < nrem; ++k) {
      pj[k] = gj[static_cast<std::size_t>(out.remaining[k])];
    }
  }
  if (r > 0 && nrem > 0) linalg::trsm_lower_inplace(rc.factors.l, panel);

  const std::size_t nchunks = (nrem + kChunk - 1) / kChunk;
  std::vector<double> part_max(nchunks, 0.0);
  const auto reduce_chunks = [&](std::size_t cb, std::size_t ce) {
    for (std::size_t ci = cb; ci < ce; ++ci) {
      const std::size_t ke = std::min(nrem, (ci + 1) * kChunk);
      double local_max = 0.0;
      for (std::size_t k = ci * kChunk; k < ke; ++k) {
        const auto i = static_cast<std::size_t>(out.remaining[k]);
        // Var = W_ii - w^T S^+ w = W_ii - ||L^{-1} w||^2; the solved panel
        // column holds L^{-1} w.  Subtract in j order — the same
        // floating-point sequence as the per-vector reference.
        double var = gram(i, i);
        for (std::size_t j = 0; j < r; ++j) {
          const double v = panel(j, k);
          var -= v * v;
        }
        var = std::max(var, 0.0);
        out.sigma[k] = std::sqrt(var);
        const double wc = kappa * out.sigma[k];
        out.per_path_eps[k] = wc / t_cons;
        local_max = std::max(local_max, wc);
      }
      part_max[ci] = local_max;
    }
  };
  if (util::thread_count() <= 1 || nchunks <= 1) {
    reduce_chunks(0, nchunks);
  } else {
    util::parallel_for(0, nchunks, 1, reduce_chunks);
  }
  for (std::size_t ci = 0; ci < nchunks; ++ci) {
    out.max_wc = std::max(out.max_wc, part_max[ci]);
  }
  out.eps_r = out.max_wc / t_cons;
  // One panel allocation per call (the bench asserts allocs/call == 1);
  // counted after the parallel region per the parallel-telemetry lint.
  util::telemetry::count("core.error_model.calls");
  util::telemetry::count("core.error_model.panel_allocs");
  return out;
}

// Thin wrapper: t_cons and the rep indices are validated unconditionally by
// selection_errors_from_gram, which also states the Gram-shape contract;
// a contract here would duplicate that validation.
// repro-lint: allow(contracts)
SelectionErrors selection_errors(const linalg::Matrix& a,
                                 const std::vector<int>& rep, double t_cons,
                                 double kappa) {
  return selection_errors_from_gram(linalg::gram(a), rep, t_cons, kappa);
}

}  // namespace repro::core
