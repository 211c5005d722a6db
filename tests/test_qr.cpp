#include "linalg/qr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "linalg/gemm.h"
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

// The thin R (min(m,n) x n): the upper triangle of f.qr's leading rows.
Matrix qr_r(const QrFactors& f) {
  const std::size_t k = f.tau.size();
  Matrix r(k, f.qr.cols());
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i; j < f.qr.cols(); ++j) r(i, j) = f.qr(i, j);
  }
  return r;
}

TEST(Qr, ThinFactorsReconstruct) {
  const Matrix a = random_matrix(12, 5, 1);
  const QrFactors f = qr_factor(a);
  const Matrix q = qr_thin_q(f);
  const Matrix r = qr_r(f);
  EXPECT_LT(max_abs_diff(multiply(q, r), a), 1e-10);
}

TEST(Qr, QHasOrthonormalColumns) {
  const Matrix a = random_matrix(20, 7, 2);
  const Matrix q = qr_thin_q(qr_factor(a));
  const Matrix qtq = multiply_at(q, q);
  EXPECT_LT(max_abs_diff(qtq, Matrix::identity(7)), 1e-11);
}

TEST(Qr, RIsUpperTriangular) {
  const Matrix r = qr_r(qr_factor(random_matrix(9, 6, 3)));
  for (std::size_t i = 0; i < r.rows(); ++i) {
    for (std::size_t j = 0; j < i && j < r.cols(); ++j) {
      EXPECT_DOUBLE_EQ(r(i, j), 0.0);
    }
  }
}

// Column-at-a-time Householder QR (LAPACK dgeqr2): the reference the
// blocked factorization must agree with.
QrFactors reference_qr(Matrix a) {
  const std::size_t m = a.rows(), n = a.cols();
  const std::size_t k = std::min(m, n);
  QrFactors f;
  f.tau.assign(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    double normx = 0.0;
    for (std::size_t i = j; i < m; ++i) normx = std::hypot(normx, a(i, j));
    if (normx == 0.0) continue;
    const double alpha = a(j, j);
    const double beta = (alpha >= 0.0) ? -normx : normx;
    const double v0 = alpha - beta;
    const double tau = -v0 / beta;
    for (std::size_t i = j + 1; i < m; ++i) a(i, j) /= v0;
    for (std::size_t c = j + 1; c < n; ++c) {
      double s = a(j, c);
      for (std::size_t i = j + 1; i < m; ++i) s += a(i, j) * a(i, c);
      s *= tau;
      a(j, c) -= s;
      for (std::size_t i = j + 1; i < m; ++i) a(i, c) -= s * a(i, j);
    }
    a(j, j) = beta;
    f.tau[j] = tau;
  }
  f.qr = std::move(a);
  return f;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin());
}

// Shapes around the blocking: the panel is 32 columns wide, so 31/32/33 and
// 63/64/65 sit on panel edges; m < n, a single column or row, and a
// rank-deficient sketch (600 x 516 of rank 211) cover the rest.
TEST(Qr, BlockedMatchesColumnReference) {
  struct Case {
    Matrix a;
    const char* what;
    std::size_t rank = 0;  // 0: full rank
  };
  std::vector<Case> cases;
  for (std::size_t c : {31u, 32u, 33u, 63u, 64u, 65u}) {
    cases.push_back({random_matrix(150, c, 100 + c), "panel edge"});
  }
  cases.push_back({random_matrix(40, 70, 9), "m < n"});
  cases.push_back({random_matrix(70, 70, 10), "square"});
  cases.push_back({random_matrix(50, 1, 11), "k = 1 (column)"});
  cases.push_back({random_matrix(1, 20, 12), "k = 1 (row)"});
  cases.push_back({multiply(random_matrix(600, 211, 13),
                            random_matrix(211, 516, 14)),
                   "rank 211", 211});
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.what) + " " + c.a.shape_string());
    const std::size_t k = std::min(c.a.rows(), c.a.cols());
    const double scale = c.a.max_abs();
    const QrFactors f = qr_factor(c.a);
    const QrFactors ref = reference_qr(c.a);
    const Matrix q = qr_thin_q(f);
    ASSERT_EQ(q.rows(), c.a.rows());
    ASSERT_EQ(q.cols(), k);
    EXPECT_LT(max_abs_diff(multiply_at(q, q), Matrix::identity(k)), 1e-13);
    EXPECT_LT(max_abs_diff(multiply(q, qr_r(f)), c.a), 1e-12 * scale * k);
    // Same reflector sign convention, so R and tau agree with the
    // reference to rounding.  Past the numerical rank the reflectors
    // annihilate rounding noise, and only R's magnitude (tiny) is defined.
    EXPECT_LT(max_abs_diff(qr_r(f), qr_r(ref)), 1e-11 * scale * k);
    for (std::size_t j = 0; j < (c.rank > 0 ? c.rank : k); ++j) {
      EXPECT_NEAR(f.tau[j], ref.tau[j], 1e-10) << "column " << j;
    }
  }
}

TEST(Qr, BitIdenticalAcrossThreadCounts) {
  // Large enough that the block updates take the threaded GEMM.
  const Matrix a = random_matrix(900, 300, 15);
  const std::size_t saved_threads = util::thread_count();
  util::set_threads(1);
  const QrFactors f1 = qr_factor(a);
  const Matrix q1 = qr_thin_q(f1);
  util::set_threads(4);
  const QrFactors f4 = qr_factor(a);
  const Matrix q4 = qr_thin_q(f4);
  util::set_threads(saved_threads);
  EXPECT_TRUE(same_bits(f1.qr, f4.qr));
  EXPECT_EQ(f1.tau, f4.tau);
  EXPECT_TRUE(same_bits(q1, q4));
}

TEST(Qr, ZeroColumnGivesZeroReflector) {
  Matrix a = random_matrix(40, 36, 16);
  for (std::size_t i = 0; i < 40; ++i) a(i, 5) = 0.0;
  for (std::size_t i = 0; i < 40; ++i) a(i, 33) = 0.0;
  const QrFactors f = qr_factor(a);
  const Matrix q = qr_thin_q(f);
  EXPECT_LT(max_abs_diff(multiply_at(q, q), Matrix::identity(36)), 1e-13);
  EXPECT_LT(max_abs_diff(multiply(q, qr_r(f)), a), 1e-12 * a.max_abs() * 36);
}

TEST(Qr, WideMatrixFactorization) {
  const Matrix a = random_matrix(4, 9, 8);
  const QrFactors f = qr_factor(a);
  const Matrix q = qr_thin_q(f);
  const Matrix r = qr_r(f);
  EXPECT_EQ(q.cols(), 4u);
  EXPECT_EQ(r.rows(), 4u);
  EXPECT_LT(max_abs_diff(multiply(q, r), a), 1e-11);
}

}  // namespace
}  // namespace repro::linalg
