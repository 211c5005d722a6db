#include "linalg/qr_colpivot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>

#include "core/benchmarks.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "linalg/randomized_eig.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace repro::linalg {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

TEST(Qrcp, PermIsValidPermutation) {
  const QrcpResult f = qr_colpivot(random_matrix(8, 12, 1).transposed());
  std::vector<int> p = f.perm;
  std::sort(p.begin(), p.end());
  std::vector<int> expect(12);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(p, expect);
}

TEST(Qrcp, RDiagonalNonIncreasing) {
  const QrcpResult f = qr_colpivot(random_matrix(30, 20, 2).transposed());
  for (std::size_t k = 1; k < f.rdiag_abs.size(); ++k) {
    // Pivoting guarantees a (nearly) non-increasing diagonal; allow tiny
    // numerical wiggle.
    EXPECT_LE(f.rdiag_abs[k], f.rdiag_abs[k - 1] * (1.0 + 1e-10));
  }
}

TEST(Qrcp, FirstPivotIsLargestColumn) {
  Matrix a(5, 3);
  // Column 1 has clearly the largest norm.
  for (std::size_t i = 0; i < 5; ++i) {
    a(i, 0) = 0.1;
    a(i, 1) = 10.0;
    a(i, 2) = 1.0;
  }
  const QrcpResult f = qr_colpivot(a.transposed());
  EXPECT_EQ(f.perm[0], 1);
}

TEST(Qrcp, FullRankDetected) {
  const QrcpResult f = qr_colpivot(random_matrix(10, 6, 3).transposed());
  EXPECT_EQ(qrcp_rank(f), 6u);
}

TEST(Qrcp, RankDeficiencyDetected) {
  // Build a 10x6 matrix of rank 3: product of 10x3 and 3x6.
  const Matrix b = random_matrix(10, 3, 4);
  const Matrix c = random_matrix(3, 6, 5);
  const QrcpResult f = qr_colpivot(multiply(b, c).transposed());
  EXPECT_EQ(qrcp_rank(f), 3u);
}

TEST(Qrcp, ZeroMatrixHasRankZero) {
  const QrcpResult f = qr_colpivot(Matrix(4, 4).transposed());
  EXPECT_EQ(qrcp_rank(f), 0u);
}

TEST(Qrcp, MaxStepsLimitsWork) {
  const QrcpResult f = qr_colpivot(random_matrix(20, 20, 6).transposed(), 5);
  EXPECT_EQ(f.rdiag_abs.size(), 5u);
  // perm still covers all columns.
  EXPECT_EQ(f.perm.size(), 20u);
}

TEST(Qrcp, ExplicitToleranceRank) {
  Matrix a = Matrix::identity(4);
  a(3, 3) = 1e-9;
  const QrcpResult f = qr_colpivot(a.transposed());
  EXPECT_EQ(qrcp_rank(f, 1e-6), 3u);
  EXPECT_EQ(qrcp_rank(f, 1e-12), 4u);
}

TEST(Qrcp, SelectedColumnsSpanRowSpace) {
  // Rank-4 wide matrix: the 4 pivot columns must reproduce every column via
  // least squares (residual ~ 0).
  const Matrix b = random_matrix(12, 4, 7);
  const Matrix c = random_matrix(4, 30, 8);
  const Matrix a = multiply(b, c);
  const QrcpResult f = qr_colpivot(a.transposed());
  ASSERT_EQ(qrcp_rank(f), 4u);
  std::vector<int> pivots(f.perm.begin(), f.perm.begin() + 4);
  const Matrix a_sel = a.select_cols(pivots);  // 12 x 4
  // Projector residual: A - A_sel (A_sel^+ A), with A_sel^+ A from the
  // normal equations G X = A_sel^T A.
  const Matrix g = multiply_at(a_sel, a_sel);  // 4 x 4
  const Matrix cross = multiply_at(a_sel, a);  // 4 x 30
  const Matrix x = chol_solve(chol_factor_regularized(g).factors, cross);
  EXPECT_LT(max_abs_diff(multiply(a_sel, x), a), 1e-9);
}

TEST(Qrcp, ExactDuplicatesGoToTheLowestIndex) {
  // Candidates 2 and 3 repeat 0 and 1 bit for bit: each tie goes to the
  // lower index, and a repeat adds no rank.
  const Matrix base = random_matrix(3, 6, 9);
  Matrix c(5, 6);
  for (std::size_t j = 0; j < 6; ++j) {
    c(0, j) = 10.0 * base(0, j);
    c(1, j) = 5.0 * base(1, j);
    c(2, j) = c(0, j);
    c(3, j) = c(1, j);
    c(4, j) = base(2, j);
  }
  const QrcpResult f = qr_colpivot(c);
  EXPECT_EQ(f.perm[0], 0);
  EXPECT_EQ(f.perm[1], 1);
  EXPECT_EQ(f.perm[2], 4);
  EXPECT_EQ(qrcp_rank(f), 3u);

  Matrix same(4, 6);
  for (std::size_t i = 0; i < 4; ++i) same.set_row(i, base.row(0));
  const QrcpResult g = qr_colpivot(same);
  EXPECT_EQ(g.perm[0], 0);
  EXPECT_EQ(qrcp_rank(g), 1u);
}

// The Businger–Golub Householder loop, on the column-major layout:
// candidates are the columns of `a`.  Gram-Schmidt pivoting must agree with
// it up to the numerical rank: the same pivots and rank, and |R(k,k)| to
// rounding.
QrcpResult reference_qr_colpivot(Matrix a, std::size_t max_steps) {
  const std::size_t m = a.rows(), n = a.cols();
  const std::size_t kmax0 = std::min(m, n);
  const std::size_t kmax =
      (max_steps == 0) ? kmax0 : std::min(kmax0, max_steps);

  QrcpResult out;
  out.dim = std::max(m, n);
  out.perm.resize(n);
  std::iota(out.perm.begin(), out.perm.end(), 0);
  out.rdiag_abs.assign(kmax, 0.0);

  Vector colnorm2(n), colnorm2_ref(n);
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < m; ++i) s += a(i, j) * a(i, j);
    colnorm2[j] = colnorm2_ref[j] = s;
  }

  for (std::size_t k = 0; k < kmax; ++k) {
    std::size_t piv = k;
    for (std::size_t j = k + 1; j < n; ++j) {
      if (colnorm2[j] > colnorm2[piv]) piv = j;
    }
    if (piv != k) {
      a.swap_cols(piv, k);
      std::swap(colnorm2[piv], colnorm2[k]);
      std::swap(colnorm2_ref[piv], colnorm2_ref[k]);
      std::swap(out.perm[piv], out.perm[k]);
    }

    double normx = 0.0;
    for (std::size_t i = k; i < m; ++i) normx = std::hypot(normx, a(i, k));
    if (normx == 0.0) continue;
    const double alpha = a(k, k);
    const double beta = (alpha >= 0.0) ? -normx : normx;
    const double v0 = alpha - beta;
    const double tau = -v0 / beta;
    const double inv_v0 = 1.0 / v0;
    for (std::size_t i = k + 1; i < m; ++i) a(i, k) *= inv_v0;
    a(k, k) = beta;
    out.rdiag_abs[k] = std::abs(beta);

    for (std::size_t c = k + 1; c < n; ++c) {
      double s = a(k, c);
      for (std::size_t i = k + 1; i < m; ++i) s += a(i, k) * a(i, c);
      s *= tau;
      a(k, c) -= s;
      for (std::size_t i = k + 1; i < m; ++i) a(i, c) -= s * a(i, k);

      const double rkc = a(k, c);
      double updated = colnorm2[c] - rkc * rkc;
      if (updated < 0.05 * colnorm2_ref[c] || updated <= 0.0) {
        double s2 = 0.0;
        for (std::size_t i = k + 1; i < m; ++i) s2 += a(i, c) * a(i, c);
        updated = s2;
        colnorm2_ref[c] = s2;
      }
      colnorm2[c] = updated;
    }
  }
  return out;
}

bool same_bits(const Vector& x, const Vector& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

// The leading 120 eigenvectors of s1423's Gram at the REPRO_FAST pool caps
// (paths x 120); their first r columns are Algorithm 2's U_r.
Matrix fast_circuit_eigenvectors() {
  core::ExperimentConfig cfg;
  cfg.benchmark = "s1423";
  cfg.max_target_paths = 500;
  cfg.max_candidates = 5000;
  cfg.yield_mc_samples = 500;
  const core::Experiment e(cfg);
  return randomized_eig_psd(gram(e.model().a()), 120).vectors;
}

TEST(Qrcp, MatchesHouseholderReferenceUpToRank) {
  struct Case {
    std::string name;
    Matrix a;  // column-major: candidates are columns
    std::size_t max_steps;
  };
  std::vector<Case> cases;
  cases.push_back({"wide 30x400", random_matrix(30, 400, 11), 0});
  cases.push_back({"tall 200x60", random_matrix(200, 60, 12), 0});
  // Crosses the parallel work floor.
  cases.push_back({"wide 160x1500", random_matrix(160, 1500, 13), 0});
  cases.push_back(
      {"rank-deficient 40x300",
       multiply(random_matrix(40, 5, 14), random_matrix(5, 300, 15)), 0});
  Matrix zeros = random_matrix(25, 90, 16);
  for (std::size_t j : {0u, 7u, 8u, 89u}) {
    for (std::size_t i = 0; i < zeros.rows(); ++i) zeros(i, j) = 0.0;
  }
  cases.push_back({"zero columns", std::move(zeros), 0});
  cases.push_back({"max_steps 9 of 50x70", random_matrix(50, 70, 17), 9});
  const Matrix u = fast_circuit_eigenvectors();
  for (std::size_t r : {4u, 33u, 120u}) {
    Matrix urt(r, u.rows());
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < u.rows(); ++j) urt(i, j) = u(j, i);
    }
    cases.push_back({"s1423 U_r^T r=" + std::to_string(r), std::move(urt), r});
  }

  const std::size_t saved_threads = util::thread_count();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const QrcpResult want = reference_qr_colpivot(c.a, c.max_steps);
    const std::size_t rank = qrcp_rank(want);
    util::set_threads(1);
    const QrcpResult got = qr_colpivot(c.a.transposed(), c.max_steps);
    ASSERT_EQ(qrcp_rank(got), rank);
    ASSERT_EQ(got.perm.size(), want.perm.size());
    ASSERT_EQ(got.rdiag_abs.size(), want.rdiag_abs.size());
    for (std::size_t k = 0; k < rank; ++k) {
      EXPECT_EQ(got.perm[k], want.perm[k]) << "pivot " << k;
      EXPECT_NEAR(got.rdiag_abs[k], want.rdiag_abs[k],
                  1e-12 * want.rdiag_abs[k])
          << "pivot " << k;
    }
    // The residual updates split over the pool without changing a bit.
    util::set_threads(4);
    const QrcpResult threaded = qr_colpivot(c.a.transposed(), c.max_steps);
    EXPECT_EQ(threaded.perm, got.perm);
    EXPECT_TRUE(same_bits(threaded.rdiag_abs, got.rdiag_abs));
  }
  util::set_threads(saved_threads);
}

}  // namespace
}  // namespace repro::linalg
