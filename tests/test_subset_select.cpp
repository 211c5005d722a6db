#include "core/subset_select.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/error_model.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/gemm.h"
#include "linalg/qr.h"
#include "linalg/qr_colpivot.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace repro::core {
namespace {

std::uint64_t counter_value(const char* name) {
  for (const auto& c : util::telemetry::snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

// Low-rank matrix with known rank.
linalg::Matrix low_rank(std::size_t r, std::size_t c, std::size_t rank,
                        std::uint64_t seed) {
  return linalg::multiply(random_matrix(r, rank, seed),
                          random_matrix(rank, c, seed + 1));
}

SubsetSelector selector_for(const linalg::Matrix& a) {
  return make_subset_selector(a, linalg::gram(a));
}

// Independent reference for Algorithm 2: U_r from a dense tred2/tql2
// eigendecomposition of W (the selector captures it with the randomized
// eigensolver), then the same QRCP on U_r^T.
std::vector<int> dense_reference_select(const linalg::EigenSymResult& eig,
                                        std::size_t r) {
  const std::size_t n = eig.values.size();
  linalg::Matrix ur(n, r);  // candidate-major U_r^T: row j is path j
  for (std::size_t j = 0; j < n; ++j) {
    // Eigenvalues come ascending; U_r takes the r largest.
    for (std::size_t i = 0; i < r; ++i) ur(j, i) = eig.vectors(j, n - 1 - i);
  }
  const linalg::QrcpResult q = linalg::qr_colpivot(std::move(ur), r);
  return {q.perm.begin(), q.perm.begin() + static_cast<std::ptrdiff_t>(r)};
}

TEST(SubsetSelect, RankMatchesConstructedRank) {
  const linalg::Matrix a = low_rank(30, 20, 7, 1);
  const SubsetSelector sel = selector_for(a);
  EXPECT_EQ(sel.rank(), 7u);
}

TEST(SubsetSelect, SelectedIndicesValidAndDistinct) {
  const linalg::Matrix a = random_matrix(25, 10, 2);
  const SubsetSelector sel = selector_for(a);
  for (std::size_t r = 1; r <= sel.rank(); ++r) {
    const auto idx = sel.select(r);
    EXPECT_EQ(idx.size(), r);
    std::set<int> uniq(idx.begin(), idx.end());
    EXPECT_EQ(uniq.size(), r);
    for (int i : idx) {
      EXPECT_GE(i, 0);
      EXPECT_LT(i, 25);
    }
  }
}

TEST(SubsetSelect, BadRThrows) {
  const SubsetSelector sel = selector_for(random_matrix(10, 5, 3));
  EXPECT_THROW((void)sel.select(0), std::invalid_argument);
  EXPECT_THROW((void)sel.select(6), std::invalid_argument);
}

TEST(SubsetSelect, ExactSelectionSpansRowSpace) {
  // Theorem 1: r = rank(A) selected rows let every other row be written as
  // their linear combination.
  const linalg::Matrix a = low_rank(40, 25, 6, 4);
  const SubsetSelector sel = selector_for(a);
  ASSERT_EQ(sel.rank(), 6u);
  const auto rep = sel.select(6);
  // Q: orthonormal basis of span(rows of A_r).  For each row i the residual
  // of projecting onto it, a_i - Q Q^T a_i, must be 0.
  const linalg::Matrix q =
      linalg::qr_thin_q(linalg::qr_factor(a.select_rows(rep).transposed()));
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const linalg::Vector coeffs = linalg::matvec_transposed(q, a.row(i));
    const linalg::Vector recon = linalg::matvec(q, coeffs);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(recon[j], a(i, j), 1e-8);
    }
  }
}

TEST(SubsetSelect, SelectedRowsAreIndependent) {
  const linalg::Matrix a = random_matrix(30, 12, 5);
  const SubsetSelector sel = selector_for(a);
  EXPECT_EQ(sel.rank(), 12u);
  // Rank of A_r by QR with column pivoting on A_r^T (candidate-major input:
  // the rows of A_r), a route the selector never takes.
  const linalg::Matrix a_r = a.select_rows(sel.select(sel.rank()));
  EXPECT_EQ(linalg::qrcp_rank(linalg::qr_colpivot(a_r)), 12u);
}

TEST(SubsetSelect, PivotOrderPrefersDominantRows) {
  // One row has a huge norm along the dominant direction; it must be the
  // first pivot.
  linalg::Matrix a = random_matrix(12, 6, 6);
  for (std::size_t j = 0; j < 6; ++j) a(4, j) *= 50.0;
  const SubsetSelector sel = selector_for(a);
  const auto rep = sel.select(3);
  EXPECT_EQ(rep.front(), 4);
}

TEST(SubsetSelect, DuplicatedRowsNotBothSelected) {
  linalg::Matrix a = random_matrix(10, 8, 7);
  a.set_row(3, a.row(2));  // duplicate rows 2 and 3
  const SubsetSelector sel = selector_for(a);
  const auto rep = sel.select(5);
  const bool has2 = std::count(rep.begin(), rep.end(), 2) > 0;
  const bool has3 = std::count(rep.begin(), rep.end(), 3) > 0;
  EXPECT_FALSE(has2 && has3);
}

TEST(SubsetSelect, SingularValuesMatchOtherGram) {
  // Tall and wide pools alike: the selector's rank is the constructed one,
  // and its singular values (captured from W = A A^T) agree with those from
  // a dense eigendecomposition of the other Gram, A^T A, to Gram precision.
  struct Case {
    linalg::Matrix a;
    std::size_t rank;
  };
  const Case cases[] = {{low_rank(40, 30, 8, 21), 8},
                        {low_rank(30, 45, 9, 22), 9}};
  for (const Case& c : cases) {
    const SubsetSelector sel = selector_for(c.a);
    EXPECT_EQ(sel.rank(), c.rank);
    const linalg::EigenSymResult ref =
        linalg::eigen_sym(linalg::multiply_at(c.a, c.a));
    const std::size_t m = ref.values.size();
    const double s0 = std::sqrt(ref.values[m - 1]);
    for (std::size_t k = 0; k < sel.rank(); ++k) {
      // Eigenvalues come ascending.
      EXPECT_NEAR(sel.singular_values()[k],
                  std::sqrt(std::max(ref.values[m - 1 - k], 0.0)),
                  1e-6 * (1.0 + s0));
    }
  }
}

TEST(SubsetSelect, SelectionErrorMatchesDenseReference) {
  // U's sign and order freedom may let the two factorizations pick
  // different rows, but the induced prediction error must match at every
  // r, for a small tall pool and for a tall pool of 640 paths.
  struct Case {
    linalg::Matrix a;
    std::size_t rank;
    std::vector<std::size_t> rs;
  };
  const Case cases[] = {{low_rank(35, 25, 6, 23), 6, {2, 4, 6}},
                        {low_rank(640, 120, 30, 24), 30, {5, 15, 30}}};
  for (const Case& c : cases) {
    const linalg::Matrix w = linalg::gram(c.a);
    const linalg::EigenSymResult eig = linalg::eigen_sym(w);
    ASSERT_TRUE(eig.converged);
    const SubsetSelector sel = selector_for(c.a);
    EXPECT_EQ(sel.rank(), c.rank);
    for (std::size_t r : c.rs) {
      const auto err_ref = selection_errors_from_gram(
          w, dense_reference_select(eig, r), 1000.0, 3.0);
      const auto err = selection_errors_from_gram(w, sel.select(r), 1000.0,
                                                  3.0);
      EXPECT_NEAR(err.eps_r, err_ref.eps_r,
                  0.3 * (err_ref.eps_r + 1e-6) + 1e-9)
          << c.a.rows() << " paths, r = " << r;
    }
  }
}

std::vector<int> prefix(const std::vector<int>& order, std::size_t r) {
  return {order.begin(), order.begin() + static_cast<std::ptrdiff_t>(r)};
}

TEST(SubsetSelect, GreedyOrderIsPermutation) {
  const linalg::Matrix a = random_matrix(30, 18, 25);
  const linalg::Matrix w = linalg::gram(a);
  const SubsetSelector sel(a, w);
  std::vector<int> sorted = sel.greedy_order(w);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], static_cast<int>(i));
  }
  EXPECT_EQ(sorted.size(), 30u);
}

TEST(SubsetSelect, GreedySigmaPricesEveryPrefix) {
  // The pivot diagonal is the worst residual left by each prefix: it must
  // agree with pricing that prefix from scratch, and never increase.
  const linalg::Matrix a = random_matrix(36, 44, 15);
  const linalg::Matrix w = linalg::gram(a);
  const SubsetSelector sel(a, w);
  const std::vector<int>& order = sel.greedy_order(w);
  const linalg::Vector& sigma = sel.greedy_sigma();
  ASSERT_EQ(sigma.size(), 36u);
  for (std::size_t r = 1; r < sigma.size(); ++r) {
    const SelectionErrors ref =
        selection_errors_from_gram(w, prefix(order, r), 750.0, 3.0);
    EXPECT_NEAR(3.0 * sigma[r], ref.max_wc, 1e-10 * (1.0 + ref.max_wc))
        << "prefix r = " << r;
    EXPECT_LE(sigma[r], sigma[r - 1]);
  }
}

TEST(SubsetSelect, GreedySigmaSizeIsRank) {
  // Every pool size takes rank(A) from the greedy factor.
  for (const linalg::Matrix& a : {low_rank(600, 20, 8, 27),
                                  low_rank(16, 20, 8, 29)}) {
    const SubsetSelector sel = selector_for(a);
    EXPECT_EQ(sel.rank(), 8u);
    EXPECT_EQ(sel.greedy_sigma().size(), sel.rank());
  }
}

TEST(SubsetSelect, GreedyErrorComparableToAlg2) {
  // Greedy is a different heuristic but must be in the same quality class.
  const linalg::Matrix a = low_rank(60, 40, 10, 28);
  const linalg::Matrix w = linalg::gram(a);
  const SubsetSelector sel(a, w);
  const std::vector<int>& order = sel.greedy_order(w);
  for (std::size_t r : {4u, 8u}) {
    const auto e_alg2 =
        selection_errors_from_gram(w, sel.select(r), 1000.0, 3.0);
    const auto e_greedy =
        selection_errors_from_gram(w, prefix(order, r), 1000.0, 3.0);
    EXPECT_LT(e_greedy.eps_r, 5.0 * e_alg2.eps_r + 1e-6);
  }
}

TEST(SubsetSelect, SelectMemoizesPerR) {
  // Bisection probes revisit candidate sizes; repeated select(r) must not
  // rerun the QR column pivoting (regression for the per-probe waste).
  const linalg::Matrix a = random_matrix(22, 14, 30);
  const SubsetSelector sel = selector_for(a);
  const bool was_enabled = util::telemetry::enabled();
  util::telemetry::set_enabled(true);
  util::telemetry::reset();
  const auto first = sel.select(6);
  const std::uint64_t after_first = counter_value("linalg.qr_colpivot.calls");
  EXPECT_EQ(after_first, 1u);
  const auto again = sel.select(6);
  EXPECT_EQ(counter_value("linalg.qr_colpivot.calls"), after_first);
  EXPECT_EQ(again, first);
  (void)sel.select(4);  // a new r pays exactly one more factorization
  EXPECT_EQ(counter_value("linalg.qr_colpivot.calls"), after_first + 1);
  (void)sel.select(6);  // the old memo entry survives
  EXPECT_EQ(counter_value("linalg.qr_colpivot.calls"), after_first + 1);
  util::telemetry::reset();
  util::telemetry::set_enabled(was_enabled);
}

TEST(SubsetSelect, GreedyOrderIsPivotedCholeskyOrderOfOwnedGram) {
  // The selector factors the W it owns, caches the order, and rejects a
  // Gram of the wrong order.
  const linalg::Matrix a = random_matrix(18, 10, 31);
  const linalg::Matrix w = linalg::gram(a);
  const SubsetSelector sel = make_subset_selector(a, w);
  EXPECT_EQ(linalg::max_abs_diff(sel.gram(), w), 0.0);
  const std::vector<int>& order = sel.greedy_order(sel.gram());
  EXPECT_EQ(order.size(), 18u);
  const linalg::PivotedChol pc = linalg::pivoted_cholesky(w);
  for (std::size_t k = 0; k < pc.rank; ++k) EXPECT_EQ(order[k], pc.perm[k]);
  EXPECT_EQ(&sel.greedy_order(w), &order);
  EXPECT_THROW((void)sel.greedy_order(linalg::Matrix(4, 4)),
               std::invalid_argument);
  EXPECT_THROW((void)make_subset_selector(a, linalg::Matrix(4, 4)),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::core
