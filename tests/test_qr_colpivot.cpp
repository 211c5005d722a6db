#include "linalg/qr_colpivot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "linalg/gemm.h"
#include "linalg/solve.h"
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

TEST(Qrcp, PermIsValidPermutation) {
  const QrcpResult f = qr_colpivot(random_matrix(8, 12, 1));
  std::vector<int> p = f.perm;
  std::sort(p.begin(), p.end());
  std::vector<int> expect(12);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(p, expect);
}

TEST(Qrcp, RDiagonalNonIncreasing) {
  const QrcpResult f = qr_colpivot(random_matrix(30, 20, 2));
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
  const QrcpResult f = qr_colpivot(a);
  EXPECT_EQ(f.perm[0], 1);
}

TEST(Qrcp, FullRankDetected) {
  const QrcpResult f = qr_colpivot(random_matrix(10, 6, 3));
  EXPECT_EQ(qrcp_rank(f), 6u);
}

TEST(Qrcp, RankDeficiencyDetected) {
  // Build a 10x6 matrix of rank 3: product of 10x3 and 3x6.
  const Matrix b = random_matrix(10, 3, 4);
  const Matrix c = random_matrix(3, 6, 5);
  const QrcpResult f = qr_colpivot(multiply(b, c));
  EXPECT_EQ(qrcp_rank(f), 3u);
}

TEST(Qrcp, ZeroMatrixHasRankZero) {
  const QrcpResult f = qr_colpivot(Matrix(4, 4));
  EXPECT_EQ(qrcp_rank(f), 0u);
}

TEST(Qrcp, MaxStepsLimitsWork) {
  const QrcpResult f = qr_colpivot(random_matrix(20, 20, 6), 5);
  EXPECT_EQ(f.tau.size(), 5u);
  EXPECT_EQ(f.rdiag_abs.size(), 5u);
  // perm still covers all columns.
  EXPECT_EQ(f.perm.size(), 20u);
}

TEST(Qrcp, ExplicitToleranceRank) {
  Matrix a = Matrix::identity(4);
  a(3, 3) = 1e-9;
  const QrcpResult f = qr_colpivot(a);
  EXPECT_EQ(qrcp_rank(f, 1e-6), 3u);
  EXPECT_EQ(qrcp_rank(f, 1e-12), 4u);
}

TEST(Qrcp, SelectedColumnsSpanRowSpace) {
  // Rank-4 wide matrix: the 4 pivot columns must reproduce every column via
  // least squares (residual ~ 0).
  const Matrix b = random_matrix(12, 4, 7);
  const Matrix c = random_matrix(4, 30, 8);
  const Matrix a = multiply(b, c);
  const QrcpResult f = qr_colpivot(a);
  ASSERT_EQ(qrcp_rank(f), 4u);
  std::vector<int> pivots(f.perm.begin(), f.perm.begin() + 4);
  const Matrix a_sel = a.select_cols(pivots);  // 12 x 4
  // Projector residual: A - A_sel (A_sel^+ A), with A_sel^+ A from the
  // normal equations G X = A_sel^T A.
  const Matrix g = multiply_at(a_sel, a_sel);  // 4 x 4
  const Matrix cross = multiply_at(a_sel, a);  // 4 x 30
  const Matrix x = spd_solve(g, cross);
  EXPECT_LT(max_abs_diff(multiply(a_sel, x), a), 1e-9);
}

}  // namespace
}  // namespace repro::linalg
