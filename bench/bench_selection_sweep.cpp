// Selection-phase performance: the greedy driver + batched panel error
// model vs the per-candidate reference.
//
// Phase A replays the old selection loop on the greedy (nested) order: for
// every candidate r, gather S = W[rep, rep], factor it from scratch, and
// run one forward solve per remaining path (the pre-rewrite
// selection_errors_from_gram, preserved verbatim below as the reference).
// Phase B runs the kGreedySweep driver, which reads every candidate's error
// off the cached pivoted-Cholesky diagonal and prices only the answer.
// Both must select the identical prefix; the headline metric is
// speedup_vs_reference.  A probe phase times the batched panel evaluator
// against the per-path reference on a single candidate and checks
// bit-identical results across thread counts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/error_model.h"
#include "core/path_selection.h"
#include "core/subset_select.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/simd/dispatch.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace {

using repro::core::SelectionErrors;
using repro::linalg::Matrix;
using repro::linalg::Vector;

// Path-like matrix: rows share k dominant directions plus small noise
// (steep singular-value decay, like the paper's Figure 2(a)).
Matrix correlated_rows(std::size_t n, std::size_t m, std::size_t k,
                       double noise, std::uint64_t seed) {
  repro::util::Rng rng(seed);
  Matrix base(k, m);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < m; ++j) base(i, j) = rng.normal();
  }
  Matrix a(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < k; ++d) {
      const double w = rng.uniform(0.2, 1.0);
      repro::linalg::axpy(w, base.row(d), a.row(i));
    }
    for (std::size_t j = 0; j < m; ++j) a(i, j) += noise * rng.normal();
  }
  return a;
}

// The pre-rewrite selection_errors_from_gram, kept verbatim as the timing
// and correctness reference: per-candidate Cholesky, then one gathered
// right-hand side + forward solve per remaining path.
SelectionErrors reference_selection_errors(const Matrix& gram,
                                           const std::vector<int>& rep,
                                           double t_cons, double kappa) {
  const std::size_t n = gram.rows();
  SelectionErrors out;
  std::vector<char> is_rep(n, 0);
  for (int i : rep) is_rep[static_cast<std::size_t>(i)] = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_rep[i]) out.remaining.push_back(static_cast<int>(i));
  }
  const std::size_t r = rep.size();
  Matrix s(r, r);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < r; ++j) {
      s(i, j) = gram(static_cast<std::size_t>(rep[i]),
                     static_cast<std::size_t>(rep[j]));
    }
  }
  const repro::linalg::RegularizedChol rc =
      repro::linalg::chol_factor_regularized(s);
  out.sigma.resize(out.remaining.size());
  out.per_path_eps.resize(out.remaining.size());
  Vector w(r);
  for (std::size_t k = 0; k < out.remaining.size(); ++k) {
    const auto i = static_cast<std::size_t>(out.remaining[k]);
    for (std::size_t j = 0; j < r; ++j) {
      w[j] = gram(i, static_cast<std::size_t>(rep[j]));
    }
    const Vector y = repro::linalg::chol_forward(rc.factors, w);
    double var = gram(i, i);
    for (double v : y) var -= v * v;
    var = std::max(var, 0.0);
    out.sigma[k] = std::sqrt(var);
    const double wc = kappa * out.sigma[k];
    out.per_path_eps[k] = wc / t_cons;
    out.max_wc = std::max(out.max_wc, wc);
  }
  out.eps_r = out.max_wc / t_cons;
  return out;
}

bool rel_close(double a, double b, double tol) {
  return std::abs(a - b) <= tol * (1.0 + std::max(std::abs(a), std::abs(b)));
}

}  // namespace

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  using namespace repro;
  bench::Harness h("selection_sweep", argc, argv);
  const int scale = util::repro_scale_mode();

  std::size_t n = 2000, m = 220, k = 48;
  if (scale == 0) {
    n = 400;
    m = 80;
    k = 24;
  } else if (scale == 2) {
    n = 4000;
    m = 300;
    k = 64;
  }
  const double t_cons = 2000.0;
  // Tight enough that the selection stops at a nontrivial r (the paper's 5%
  // would collapse this synthetic fixture to r = 1, hiding the probe cost).
  const double epsilon = 1e-3;
  const double kappa = 3.0;

  std::printf("=== Selection-phase sweep vs per-candidate reference ===\n");
  std::printf("n = %zu paths, m = %zu parameters, %zu dominant directions\n\n",
              n, m, k);

  const Matrix a = correlated_rows(n, m, k, 0.05, 20260805);
  util::Stopwatch sw_gram;
  Matrix w = [&] {
    const util::telemetry::Span span("bench.gram");
    return linalg::gram(a);
  }();
  // SYRK throughput under the dispatched tier (the selection path's one big
  // dense kernel): GFLOP/s and the fraction of the tier's nominal peak.
  const double gram_seconds = sw_gram.seconds();
  const double gram_flops = static_cast<double>(m) *
                            static_cast<double>(n) *
                            static_cast<double>(n + 1);
  const double gram_gflops =
      gram_seconds > 0.0 ? gram_flops / gram_seconds * 1e-9 : 0.0;
  const double gram_peak = linalg::simd::theoretical_peak_gflops(
      linalg::simd::active_tier(), util::thread_count());
  const core::SubsetSelector selector =
      core::make_subset_selector(a, std::move(w));
  const Matrix& gram = selector.gram();
  const std::size_t rank = selector.rank();
  // Cache the pivot order up front so neither phase is charged for it.
  const std::vector<int>& order = selector.greedy_order(gram);
  const std::size_t effective = std::min(rank, order.size());
  std::printf("rank(A) = %zu\n", rank);

  // Phase A: the pre-PR cost of Algorithm 1's linear decrement over the
  // greedy order — one full factorization + per-path solve pass per
  // candidate, from r = rank down to the first tolerance violation.
  util::Stopwatch sw_ref;
  std::size_t ref_r = effective;
  std::size_t ref_candidates = 1;  // the r = rank start is evaluated too
  SelectionErrors ref_errors = [&] {
    const util::telemetry::Span span("bench.reference_decrement");
    std::vector<int> rep(order.begin(),
                         order.begin() + static_cast<std::ptrdiff_t>(ref_r));
    SelectionErrors best = reference_selection_errors(gram, rep, t_cons, kappa);
    while (ref_r > 1) {
      rep.assign(order.begin(),
                 order.begin() + static_cast<std::ptrdiff_t>(ref_r - 1));
      SelectionErrors next =
          reference_selection_errors(gram, rep, t_cons, kappa);
      ++ref_candidates;
      if (next.eps_r > epsilon) break;
      best = std::move(next);
      --ref_r;
    }
    return best;
  }();
  const double t_ref = sw_ref.seconds();
  std::printf("reference decrement: r = %zu after %zu candidates, %.3f s\n",
              ref_r, ref_candidates, t_ref);

  // Phase B: the kGreedySweep driver reads the answer off the factor.
  util::Stopwatch sw_sweep;
  core::PathSelectionOptions opt;
  opt.epsilon = epsilon;
  opt.kappa = kappa;
  opt.strategy = core::SelectionStrategy::kGreedySweep;
  const core::PathSelectionResult sel = [&] {
    const util::telemetry::Span span("bench.greedy_sweep");
    return core::select_representative_paths(selector, gram, t_cons, opt);
  }();
  const double t_sweep = sw_sweep.seconds();
  const double speedup = (t_sweep > 0.0) ? t_ref / t_sweep : 0.0;
  std::printf("greedy sweep:        r = %zu after %zu candidates, %.3f s\n",
              sel.representatives.size(), sel.candidates_evaluated, t_sweep);
  std::printf("selection-phase speedup: %.1fx\n\n", speedup);

  bool results_match = sel.representatives.size() == ref_r &&
                       std::equal(sel.representatives.begin(),
                                  sel.representatives.end(), order.begin()) &&
                       rel_close(sel.eps_r, ref_errors.eps_r, 1e-10);
  if (!results_match) {
    std::printf("ERROR: sweep selection differs from reference "
                "(r %zu vs %zu, eps %.17g vs %.17g)\n",
                sel.representatives.size(), ref_r, sel.eps_r,
                ref_errors.eps_r);
  }

  // Probe: batched panel evaluator vs per-path reference on one candidate,
  // plus bit-identity across thread counts.
  const std::size_t r_probe = std::max<std::size_t>(1, ref_r);
  const std::vector<int> probe_rep(
      order.begin(), order.begin() + static_cast<std::ptrdiff_t>(r_probe));
  const int reps = (scale == 0) ? 3 : 5;
  util::Stopwatch sw_probe_ref;
  SelectionErrors probe_ref;
  for (int i = 0; i < reps; ++i) {
    probe_ref = reference_selection_errors(gram, probe_rep, t_cons, kappa);
  }
  const double t_probe_ref = sw_probe_ref.seconds();
  util::Stopwatch sw_probe_new;
  SelectionErrors probe_new;
  for (int i = 0; i < reps; ++i) {
    probe_new = core::selection_errors_from_gram(gram, probe_rep, t_cons,
                                                 kappa);
  }
  const double t_probe_new = sw_probe_new.seconds();
  const double panel_speedup =
      (t_probe_new > 0.0) ? t_probe_ref / t_probe_new : 0.0;
  bool probe_match = rel_close(probe_new.eps_r, probe_ref.eps_r, 1e-10);
  for (std::size_t i = 0; probe_match && i < probe_ref.sigma.size(); ++i) {
    probe_match = rel_close(probe_new.sigma[i], probe_ref.sigma[i], 1e-10);
  }
  std::printf("panel evaluator probe (r = %zu, %d reps): %.1fx, match = %s\n",
              r_probe, reps, panel_speedup, probe_match ? "yes" : "NO");

  const std::size_t saved_threads = util::thread_count();
  util::set_threads(1);
  const SelectionErrors e_t1 =
      core::selection_errors_from_gram(gram, probe_rep, t_cons, kappa);
  util::set_threads(4);
  const SelectionErrors e_t4 =
      core::selection_errors_from_gram(gram, probe_rep, t_cons, kappa);
  util::set_threads(saved_threads);
  bool thread_invariant = e_t1.max_wc == e_t4.max_wc &&
                          e_t1.sigma == e_t4.sigma;
  std::printf("thread invariance (1 vs 4 threads): %s\n",
              thread_invariant ? "bit-identical" : "MISMATCH");

  // O(1) allocations per evaluator call, asserted via the model's own
  // counters (exact ratio 1 when telemetry is recording).
  double allocs_per_call = 1.0;
  if (util::telemetry::enabled()) {
    const std::uint64_t calls = bench::counter_value("core.error_model.calls");
    const std::uint64_t allocs =
        bench::counter_value("core.error_model.panel_allocs");
    if (calls > 0) {
      allocs_per_call =
          static_cast<double>(allocs) / static_cast<double>(calls);
    }
  }
  std::printf("panel allocations per evaluator call: %g\n", allocs_per_call);

  h.metric("n_paths", n);
  h.metric("m_params", m);
  h.metric("rank", rank);
  h.metric("selected_r", sel.representatives.size());
  h.metric("reference_candidates", ref_candidates);
  h.metric("t_reference_s", t_ref);
  h.metric("t_sweep_s", t_sweep);
  h.metric("speedup_vs_reference", speedup);
  h.metric("panel_speedup", panel_speedup);
  h.metric("allocs_per_call", allocs_per_call);
  h.metric("results_match", results_match);
  h.metric("probe_match", probe_match);
  h.metric("thread_invariant", thread_invariant);
  h.metric("syrk_flops_saved",
           static_cast<std::size_t>(
               bench::counter_value("linalg.syrk.flops_saved")));
  h.metric("kernel_tier",
           linalg::simd::tier_name(linalg::simd::active_tier()));
  h.metric("gram_gflops", gram_gflops);
  h.metric("gram_peak_fraction",
           gram_peak > 0.0 ? gram_gflops / gram_peak : 0.0);

  h.gate("results_match", "==", true);
  h.gate("probe_match", "==", true);
  h.gate("thread_invariant", "==", true);
  // An allocation count equal to the call count is a ratio of exactly 1.
  h.gate("allocs_per_call", "==", 1.0);
  // The >= 3x acceptance bar applies at representative sizes (n >= 2000);
  // the FAST smoke only checks correctness.
  if (scale != 0) h.gate("speedup_vs_reference", ">=", 3.0);
  for (const char* key : {"speedup_vs_reference", "panel_speedup",
                          "kernel_tier", "gram_gflops", "gram_peak_fraction"}) {
    h.gate(key, "present");
  }
  return h.finish();
}
