#include "core/error_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/predictor.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace repro::core {
namespace {

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

// Pre-rewrite per-path reference: gather w_i, one forward solve per
// remaining path.  The batched panel evaluator must reproduce it.
SelectionErrors reference_selection_errors(const linalg::Matrix& gram,
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
  linalg::Matrix s(r, r);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < r; ++j) {
      s(i, j) = gram(static_cast<std::size_t>(rep[i]),
                     static_cast<std::size_t>(rep[j]));
    }
  }
  const linalg::RegularizedChol rc = linalg::chol_factor_regularized(s);
  out.sigma.resize(out.remaining.size());
  out.per_path_eps.resize(out.remaining.size());
  for (std::size_t k = 0; k < out.remaining.size(); ++k) {
    const auto i = static_cast<std::size_t>(out.remaining[k]);
    linalg::Vector w(r);
    for (std::size_t j = 0; j < r; ++j) {
      w[j] = gram(i, static_cast<std::size_t>(rep[j]));
    }
    const linalg::Vector y = linalg::chol_forward(rc.factors, w);
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

// abs_tol covers sigmas that cancel to ~0: sigma = sqrt(w_ii - ||y||^2) is
// then limited by catastrophic cancellation to O(sqrt(eps * w_ii)), so once
// the batched path and the reference stop being the bit-identical scalar
// recurrence (SIMD tiers reassociate; DESIGN.md §11) they can only agree to
// that envelope.  Full-rank sigmas are O(1) and keep the tight relative
// bound.
void expect_matches_reference(const linalg::Matrix& w,
                              const std::vector<int>& rep,
                              double abs_tol = 0.0) {
  const double t_cons = 750.0, kappa = 3.0;
  const SelectionErrors got =
      selection_errors_from_gram(w, rep, t_cons, kappa);
  const SelectionErrors ref = reference_selection_errors(w, rep, t_cons, kappa);
  ASSERT_EQ(got.remaining, ref.remaining) << "r = " << rep.size();
  for (std::size_t k = 0; k < ref.sigma.size(); ++k) {
    EXPECT_NEAR(got.sigma[k], ref.sigma[k],
                1e-10 * (1.0 + ref.sigma[k]) + abs_tol)
        << "r = " << rep.size() << ", path slot " << k;
  }
  EXPECT_NEAR(got.max_wc, ref.max_wc,
              1e-10 * (1.0 + ref.max_wc) + kappa * abs_tol);
  EXPECT_NEAR(got.eps_r, ref.eps_r,
              1e-10 * (1.0 + ref.eps_r) + kappa * abs_tol / t_cons);
}

TEST(ErrorModel, GramIdentityMatchesPredictorSigmas) {
  // Var(Delta_i) from the Gram identity must equal ||omega_i|| from the
  // explicitly-built predictor.
  const linalg::Matrix a = random_matrix(12, 18, 1);
  const std::vector<int> rep{0, 3, 7};
  const SelectionErrors se = selection_errors(a, rep, 1000.0, 3.0);
  const LinearPredictor p =
      make_path_predictor(a, linalg::Vector(12, 0.0), rep);
  const linalg::Vector sig = p.error_sigmas();
  ASSERT_EQ(se.sigma.size(), sig.size());
  ASSERT_EQ(se.remaining, p.remaining);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    EXPECT_NEAR(se.sigma[i], sig[i], 1e-8 * (1.0 + sig[i]));
  }
}

TEST(ErrorModel, ZeroErrorForSpanningSelection) {
  const linalg::Matrix a =
      linalg::multiply(random_matrix(10, 3, 2), random_matrix(3, 14, 3));
  // Rows 0,1,2 of the left factor are generically independent -> rows 0,1,2
  // of A span the row space.
  const SelectionErrors se = selection_errors(a, {0, 1, 2}, 500.0, 3.0);
  EXPECT_NEAR(se.eps_r, 0.0, 1e-7);
}

TEST(ErrorModel, EpsRIsMaxOverRemaining) {
  const linalg::Matrix a = random_matrix(9, 12, 4);
  const SelectionErrors se = selection_errors(a, {0, 1}, 800.0, 3.0);
  double max_eps = 0.0;
  for (double e : se.per_path_eps) max_eps = std::max(max_eps, e);
  EXPECT_NEAR(se.eps_r, max_eps, 1e-12);
  EXPECT_NEAR(se.max_wc, se.eps_r * 800.0, 1e-9);
}

TEST(ErrorModel, KappaScalesLinearly) {
  const linalg::Matrix a = random_matrix(9, 12, 5);
  const SelectionErrors k3 = selection_errors(a, {0, 1}, 800.0, 3.0);
  const SelectionErrors k6 = selection_errors(a, {0, 1}, 800.0, 6.0);
  EXPECT_NEAR(k6.eps_r, 2.0 * k3.eps_r, 1e-12);
}

TEST(ErrorModel, TconsScalesInversely) {
  const linalg::Matrix a = random_matrix(9, 12, 6);
  const SelectionErrors t1 = selection_errors(a, {2, 4}, 400.0, 3.0);
  const SelectionErrors t2 = selection_errors(a, {2, 4}, 800.0, 3.0);
  EXPECT_NEAR(t1.eps_r, 2.0 * t2.eps_r, 1e-12);
}

TEST(ErrorModel, ErrorShrinksWithMoreRepresentatives) {
  const linalg::Matrix a = random_matrix(15, 10, 7);
  const linalg::Matrix w = linalg::gram(a);
  double prev = 1e18;
  for (std::size_t r = 1; r <= 8; ++r) {
    std::vector<int> rep;
    for (std::size_t i = 0; i < r; ++i) rep.push_back(static_cast<int>(i));
    const SelectionErrors se =
        selection_errors_from_gram(w, rep, 1000.0, 3.0);
    // Adding a representative never hurts the remaining paths it contains...
    // For nested prefixes the max error is non-increasing.
    EXPECT_LE(se.eps_r, prev + 1e-9);
    prev = se.eps_r;
  }
}

TEST(ErrorModel, InvalidInputsThrow) {
  const linalg::Matrix a = random_matrix(5, 5, 8);
  EXPECT_THROW((void)selection_errors(a, {0}, 0.0, 3.0),
               std::invalid_argument);
  EXPECT_THROW((void)selection_errors(a, {9}, 100.0, 3.0), std::out_of_range);
  EXPECT_THROW((void)selection_errors(a, {0}, std::nan(""), 3.0),
               std::invalid_argument);
}

TEST(ErrorModel, DuplicateRepresentativeThrows) {
  // A repeated index used to be silently collapsed by the is_rep mask,
  // making |rep| lie about the measurement budget.  It must throw now.
  const linalg::Matrix a = random_matrix(6, 8, 10);
  EXPECT_THROW((void)selection_errors(a, {1, 3, 1}, 100.0, 3.0),
               std::invalid_argument);
  const linalg::Matrix w = linalg::gram(a);
  EXPECT_THROW((void)selection_errors_from_gram(w, {2, 2}, 100.0, 3.0),
               std::invalid_argument);
}

TEST(ErrorModel, RemainingExcludesSelection) {
  const linalg::Matrix a = random_matrix(6, 6, 9);
  const SelectionErrors se = selection_errors(a, {1, 3}, 100.0, 3.0);
  EXPECT_EQ(se.remaining, (std::vector<int>{0, 2, 4, 5}));
}

TEST(ErrorModel, BatchedMatchesReferenceForEveryR) {
  // Full-rank random Gram: the panel evaluator must track the per-path
  // reference to 1e-10 relative for every selection size.
  const linalg::Matrix w = linalg::gram(random_matrix(40, 48, 11));
  const linalg::PivotedChol pc = linalg::pivoted_cholesky(w);
  for (std::size_t r = 1; r <= pc.rank; ++r) {
    expect_matches_reference(
        w, std::vector<int>(pc.perm.begin(),
                            pc.perm.begin() + static_cast<std::ptrdiff_t>(r)));
  }
}

TEST(ErrorModel, BatchedMatchesReferenceOnRankDeficientGram) {
  // rank(A) == 4 but selections up to size 7: S = W[rep, rep] goes exactly
  // singular and both paths must agree through the same jitter fallback.
  const linalg::Matrix a =
      linalg::multiply(random_matrix(26, 4, 12), random_matrix(4, 20, 13));
  const linalg::Matrix w = linalg::gram(a);
  // Past the rank every sigma cancels to ~0; diag(W) is O(10) here, so the
  // cancellation envelope sqrt(eps * w_ii) is ~1e-7 (see
  // expect_matches_reference).
  for (std::size_t r = 1; r <= 7; ++r) {
    std::vector<int> rep(r);
    std::iota(rep.begin(), rep.end(), 0);
    expect_matches_reference(w, rep, 1e-6);
  }
}

TEST(ErrorModel, BatchedBitIdenticalAcrossThreadCounts) {
  // n > 512 so the chunked reduction actually splits.
  const linalg::Matrix w = linalg::gram(random_matrix(700, 60, 14));
  std::vector<int> rep(24);
  std::iota(rep.begin(), rep.end(), 0);
  const std::size_t saved_threads = util::thread_count();
  util::set_threads(1);
  const SelectionErrors e1 = selection_errors_from_gram(w, rep, 900.0, 3.0);
  util::set_threads(4);
  const SelectionErrors e4 = selection_errors_from_gram(w, rep, 900.0, 3.0);
  util::set_threads(saved_threads);
  ASSERT_EQ(e1.sigma.size(), e4.sigma.size());
  for (std::size_t k = 0; k < e1.sigma.size(); ++k) {
    EXPECT_EQ(e1.sigma[k], e4.sigma[k]);
    EXPECT_EQ(e1.per_path_eps[k], e4.per_path_eps[k]);
  }
  EXPECT_EQ(e1.max_wc, e4.max_wc);
  EXPECT_EQ(e1.eps_r, e4.eps_r);
}

}  // namespace
}  // namespace repro::core
