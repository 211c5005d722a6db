#include "linalg/solve.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "linalg/gemm.h"
#include "util/rng.h"

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

TEST(SpdSolve, MatchesDirectSolve) {
  const Matrix b = random_matrix(9, 9, 9);
  const Matrix s = gram(b);
  util::Rng rng(90);
  Vector rhs(9);
  for (double& v : rhs) v = rng.normal();
  const Vector x = chol_solve(chol_factor_regularized(s).factors, rhs);
  const Vector sx = matvec(s, x);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(sx[i], rhs[i], 1e-8);
}

TEST(SpdSolve, SingularGramRegularized) {
  // Rank-deficient Gram: the regularized solve must still satisfy S x ~ rhs
  // when rhs lies in the range of S.
  const Matrix b = random_matrix(6, 2, 10);
  const Matrix s = gram(b);  // rank 2
  const Vector in_range = matvec(s, Vector(6, 0.1));
  const Vector x = chol_solve(chol_factor_regularized(s).factors, in_range);
  const Vector sx = matvec(s, x);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(sx[i], in_range[i], 1e-5);
}

// The 1-norm condition estimate cond_1(S) = ||S||_1 * est(||S^{-1}||_1)
// that spd_solve_robust reports for S (+inf when S does not factor).
double condest_spd(const Matrix& s) {
  SpdSolveInfo info;
  spd_solve_robust(s, Vector(s.rows(), 0.0), &info,
                   std::numeric_limits<double>::infinity());
  return info.condition;
}

TEST(Condest, IdentityAndScaledDiagonal) {
  EXPECT_NEAR(condest_spd(Matrix::identity(6)), 1.0, 1e-12);
  // diag(1, ..., 1e-6): cond_1 = 1e6 exactly; the estimator is exact for
  // diagonal matrices.
  Vector d(5, 1.0);
  d.back() = 1e-6;
  EXPECT_NEAR(condest_spd(Matrix::diagonal(d)), 1e6, 1.0);
}

TEST(Condest, LowerBoundsTrueCondition) {
  // Hager's estimate never exceeds the true cond_1 and is rarely far below.
  const Matrix a = random_matrix(12, 12, 21);
  const Matrix s = gram(a);  // SPD with interesting conditioning
  const CholFactors f = chol_factor(s);
  ASSERT_TRUE(f.ok);
  const Matrix sinv = chol_solve(f, Matrix::identity(12));
  const double exact = one_norm(s) * one_norm(sinv);
  const double est = condest_spd(s);
  EXPECT_LE(est, exact * (1.0 + 1e-9));
  EXPECT_GE(est, 0.1 * exact);
}

TEST(Condest, SingularIsInfinite) {
  EXPECT_TRUE(std::isinf(condest_spd(Matrix(3, 3))));
}

TEST(SpdSolveRobust, WellConditionedMatchesPlainSolve) {
  const Matrix s = gram(random_matrix(8, 10, 22));
  const Matrix b = random_matrix(8, 3, 23);
  SpdSolveInfo info;
  const Matrix x = spd_solve_robust(s, b, &info);
  EXPECT_TRUE(info.ok);
  EXPECT_FALSE(info.regularized);
  EXPECT_GT(info.condition, 0.0);
  EXPECT_LT(max_abs_diff(multiply(s, x), b), 1e-6);
}

TEST(SpdSolveRobust, SingularGramTriggersReportedRidge) {
  // rank-2 Gram of an 6x2-derived matrix: singular, needs the ridge.
  const Matrix a = multiply(random_matrix(6, 2, 24), random_matrix(2, 9, 25));
  const Matrix s = gram(a);
  const Matrix b = random_matrix(6, 1, 26);
  SpdSolveInfo info;
  const Matrix x = spd_solve_robust(s, b, &info);
  EXPECT_TRUE(info.ok);
  EXPECT_TRUE(info.regularized);
  EXPECT_GT(info.ridge, 0.0);
  EXPECT_GT(info.condition, 1e12);  // original system was (near) singular
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_TRUE(std::isfinite(x(i, 0)));
  }
}

TEST(SpdSolveRobust, NonFiniteInputFailsWithoutThrowing) {
  Matrix s = Matrix::identity(3);
  s(1, 1) = std::numeric_limits<double>::quiet_NaN();
  SpdSolveInfo info;
  EXPECT_NO_THROW({
    (void)spd_solve_robust(s, Matrix(3, 1), &info);
  });
  EXPECT_FALSE(info.ok);
}

// Streaming-covariance collapse: repeated measurement downdates
//   P <- P - (1 - eps) (P v)(P v)^T / (v^T P v)
// each shrink the P-weighted direction v to eps of its prior size — the way
// a streaming information matrix degenerates after absorbing many
// near-duplicate dies.  After rank(P)-1 downdates the spectrum spans ~1/eps.
Matrix collapse_by_rank_one_downdates(std::size_t n, double eps,
                                      std::size_t steps) {
  Matrix p = Matrix::identity(n);
  for (std::size_t t = 0; t < steps; ++t) {
    Vector v(n, 0.0);
    v[t] = 1.0;
    v[(t + 1) % n] = 0.5;  // off-axis so the downdates couple coordinates
    Vector pv(n, 0.0);
    double alpha = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) pv[i] += p(i, j) * v[j];
      alpha += v[i] * pv[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        p(i, j) -= (1.0 - eps) * pv[i] * pv[j] / alpha;
      }
    }
  }
  return p;
}

TEST(Condest, RankOneDowndateCollapseIsTracked) {
  // The estimate must grow with every collapsed direction, ending far above
  // the robust-solve regularization threshold.
  double prev = condest_spd(Matrix::identity(6));
  EXPECT_NEAR(prev, 1.0, 1e-12);
  for (std::size_t steps = 1; steps + 1 < 6; ++steps) {
    const Matrix collapsed = collapse_by_rank_one_downdates(6, 1e-14, steps);
    const double c = condest_spd(collapsed);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_GE(prev, 1e12);
}

TEST(SpdSolveRobust, CollapsedInformationMatrixTakesReportedRidgePath) {
  const Matrix p = collapse_by_rank_one_downdates(6, 1e-15, 5);
  Vector b(6, 1.0);
  SpdSolveInfo info;
  const Vector x = spd_solve_robust(p, b, &info);
  EXPECT_TRUE(info.ok);
  EXPECT_TRUE(info.regularized);   // the ridge path engaged...
  EXPECT_GT(info.ridge, 0.0);      // ...and reported its strength
  EXPECT_GT(info.condition, 1e12); // original system was numerically singular
  for (double xi : x) EXPECT_TRUE(std::isfinite(xi));
}

TEST(SpdSolveRobust, VectorOverloadMatchesMatrix) {
  const Matrix s = gram(random_matrix(5, 7, 27));
  Vector b(5);
  for (std::size_t i = 0; i < 5; ++i) b[i] = static_cast<double>(i) - 2.0;
  Matrix bm(5, 1);
  for (std::size_t i = 0; i < 5; ++i) bm(i, 0) = b[i];
  SpdSolveInfo iv, im;
  const Vector xv = spd_solve_robust(s, b, &iv);
  const Matrix xm = spd_solve_robust(s, bm, &im);
  ASSERT_TRUE(iv.ok);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(xv[i], xm(i, 0));
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * 8) == 0);
}

// One factor, then any number of solves, must reproduce the one-shot robust
// solve bit for bit — on the plain path and on the ridge path.
void expect_factor_then_solve_matches(const Matrix& s, bool ridged) {
  const Matrix b = random_matrix(s.rows(), 5, 31);
  Vector bv(s.rows());
  for (std::size_t i = 0; i < bv.size(); ++i) bv[i] = b(i, 2);
  const SpdFactor sf = spd_factor_robust(s);
  ASSERT_TRUE(sf.info.ok);
  ASSERT_EQ(sf.factors.ok, sf.info.ok);
  EXPECT_EQ(sf.info.regularized, ridged);
  SpdSolveInfo im, iv;
  const Matrix xm = spd_solve_robust(s, b, &im);
  const Vector xv = spd_solve_robust(s, bv, &iv);
  for (const SpdSolveInfo& i : {im, iv}) {
    EXPECT_EQ(i.ok, sf.info.ok);
    EXPECT_EQ(i.regularized, sf.info.regularized);
    EXPECT_TRUE(same_bits({&i.ridge, 1}, {&sf.info.ridge, 1}));
    EXPECT_TRUE(same_bits({&i.condition, 1}, {&sf.info.condition, 1}));
  }
  EXPECT_TRUE(same_bits(chol_solve(sf.factors, b).data(), xm.data()));
  EXPECT_TRUE(same_bits(chol_solve(sf.factors, bv), xv));
  EXPECT_TRUE(same_bits(
      chol_backward(sf.factors, chol_forward(sf.factors, b)).data(),
      xm.data()));
}

TEST(SpdFactorRobust, FactorThenSolveIsBitIdenticalToRobustSolve) {
  expect_factor_then_solve_matches(gram(random_matrix(8, 10, 22)), false);
  // Rank-2 Gram: singular, so the factor comes from the ridge search.
  expect_factor_then_solve_matches(
      gram(multiply(random_matrix(6, 2, 24), random_matrix(2, 9, 25))), true);
}

TEST(SpdFactorRobust, NonFiniteInputReportsNoFactor) {
  Matrix s = Matrix::identity(3);
  s(1, 1) = std::numeric_limits<double>::quiet_NaN();
  const SpdFactor sf = spd_factor_robust(s);
  EXPECT_FALSE(sf.info.ok);
  EXPECT_FALSE(sf.factors.ok);
}

// The textbook recurrences the Cholesky solves have always used, written
// out here so a change to the shared sweep that moves a bit shows up.
Vector textbook_chol_solve(const Matrix& l, Vector b) {
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < i; ++j) s -= l(i, j) * b[j];
    b[i] = s / l(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= l(j, ii) * b[j];
    b[ii] = s / l(ii, ii);
  }
  return b;
}

TEST(CholSolve, MatrixFormIsBitIdenticalToPerColumnSolves) {
  for (std::size_t n : {1, 2, 3, 4, 7, 20, 33}) {
    const CholFactors f =
        chol_factor(gram(random_matrix(n, n + 3, 40 + n)));
    ASSERT_TRUE(f.ok);
    for (std::size_t width : {0, 1, 7, 2001}) {
      const Matrix b = random_matrix(n, width, 50 + n + width);
      const Matrix x = chol_solve(f, b);
      const Matrix y = chol_forward(f, b);
      const Matrix xb = chol_backward(f, b);
      ASSERT_EQ(x.rows(), n);
      ASSERT_EQ(x.cols(), width);
      for (std::size_t j = 0; j < width; ++j) {
        ASSERT_TRUE(same_bits(x.column(j), chol_solve(f, b.column(j))))
            << "n " << n << " width " << width << " column " << j;
        ASSERT_TRUE(same_bits(x.column(j), textbook_chol_solve(f.l, b.column(j))))
            << "n " << n << " width " << width << " column " << j;
        ASSERT_TRUE(same_bits(y.column(j), chol_forward(f, b.column(j))));
        ASSERT_TRUE(same_bits(xb.column(j), chol_backward(f, b.column(j))));
      }
    }
  }
}

}  // namespace
}  // namespace repro::linalg
