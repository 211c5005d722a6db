#include "linalg/eigen_sym.h"

#include <gtest/gtest.h>

#include "linalg/gemm.h"
#include "util/rng.h"

namespace repro::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      m(i, j) = m(j, i) = rng.normal();
    }
  }
  return m;
}

TEST(EigenSym, DiagonalMatrix) {
  const EigenSymResult r = eigen_sym(Matrix::diagonal(Vector{3.0, -1.0, 2.0}));
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.values[0], -1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 2.0, 1e-12);
  EXPECT_NEAR(r.values[2], 3.0, 1e-12);
}

TEST(EigenSym, Known2x2) {
  Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  const EigenSymResult r = eigen_sym(m);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 3.0, 1e-12);
}

TEST(EigenSym, ValuesAscending) {
  const EigenSymResult r = eigen_sym(random_symmetric(20, 1));
  for (std::size_t i = 1; i < r.values.size(); ++i) {
    EXPECT_LE(r.values[i - 1], r.values[i]);
  }
}

TEST(EigenSym, Reconstruction) {
  const Matrix s = random_symmetric(15, 2);
  const EigenSymResult r = eigen_sym(s);
  ASSERT_TRUE(r.converged);
  // S = V D V^T
  Matrix vd = r.vectors;
  for (std::size_t j = 0; j < r.values.size(); ++j) {
    for (std::size_t i = 0; i < vd.rows(); ++i) vd(i, j) *= r.values[j];
  }
  EXPECT_LT(max_abs_diff(multiply_bt(vd, r.vectors), s), 1e-10);
}

TEST(EigenSym, VectorsOrthonormal) {
  const EigenSymResult r = eigen_sym(random_symmetric(12, 3));
  const Matrix vtv = multiply_at(r.vectors, r.vectors);
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(12)), 1e-11);
}

TEST(EigenSym, EigenEquationHolds) {
  const Matrix s = random_symmetric(9, 4);
  const EigenSymResult r = eigen_sym(s);
  for (std::size_t j = 0; j < 9; ++j) {
    const Vector v = r.vectors.column(j);
    const Vector sv = matvec(s, v);
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_NEAR(sv[i], r.values[j] * v[i], 1e-9);
    }
  }
}

TEST(EigenSym, TraceMatchesEigenSum) {
  const Matrix s = random_symmetric(25, 5);
  const EigenSymResult r = eigen_sym(s);
  double trace = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < 25; ++i) trace += s(i, i);
  for (double v : r.values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(EigenSym, PsdGramHasNonNegativeValues) {
  const Matrix b = random_symmetric(10, 6);
  const EigenSymResult r = eigen_sym(gram(b));
  for (double v : r.values) EXPECT_GT(v, -1e-9);
}

TEST(EigenSym, NotSquareThrows) {
  EXPECT_THROW((void)eigen_sym(Matrix(2, 3)), std::invalid_argument);
}

TEST(EigenSym, RepeatedEigenvalues) {
  // Identity has a 3-fold repeated eigenvalue; vectors must still be
  // orthonormal and the reconstruction exact.
  const EigenSymResult r = eigen_sym(Matrix::identity(3));
  for (double v : r.values) EXPECT_NEAR(v, 1.0, 1e-13);
  EXPECT_LT(max_abs_diff(multiply_at(r.vectors, r.vectors),
                         Matrix::identity(3)),
            1e-12);
}

}  // namespace
}  // namespace repro::linalg
