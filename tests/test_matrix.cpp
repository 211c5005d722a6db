#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace repro::linalg {
namespace {

TEST(Vector, DotAndNorms) {
  Vector a{3.0, -4.0};
  Vector b{1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), -5.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm1(a), 7.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 4.0);
}

TEST(Vector, DotSizeMismatchThrows) {
  Vector a{1.0};
  Vector b{1.0, 2.0};
  EXPECT_THROW((void)dot(a, b), std::invalid_argument);
}

TEST(Vector, Norm2AvoidsOverflow) {
  Vector a{1e200, 1e200};
  EXPECT_NEAR(norm2(a), 1e200 * std::sqrt(2.0), 1e188);
}

TEST(Vector, Norm2OfZeros) {
  Vector a{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(norm2(a), 0.0);
}

TEST(Vector, Axpy) {
  Vector x{1.0, 2.0};
  Vector y{10.0, 20.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, Diagonal) {
  Vector d{2.0, 5.0};
  const Matrix m = Matrix::diagonal(d);
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(Matrix, Transposed) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(t.transposed(), m), 0.0);
}

TEST(Matrix, TransposedLargeBlocked) {
  Matrix m(70, 45);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m(i, j) = static_cast<double>(i * 1000 + j);
    }
  }
  const Matrix t = m.transposed();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      ASSERT_DOUBLE_EQ(t(j, i), m(i, j));
    }
  }
}

TEST(Matrix, SelectRows) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  std::vector<int> idx{2, 0};
  const Matrix s = m.select_rows(idx);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 2.0);
}

TEST(Matrix, SelectRowsOutOfRangeThrows) {
  Matrix m{{1.0}};
  std::vector<int> idx{1};
  EXPECT_THROW((void)m.select_rows(idx), std::out_of_range);
}

TEST(Matrix, SelectCols) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  std::vector<int> idx{2, 1};
  const Matrix s = m.select_cols(idx);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 5.0);
}

TEST(Matrix, LeftCols) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Matrix l = m.left_cols(1);
  EXPECT_EQ(l.cols(), 1u);
  EXPECT_DOUBLE_EQ(l(2, 0), 5.0);
}

TEST(Matrix, SwapRowsAndCols) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  m.swap_rows(0, 1);
  EXPECT_DOUBLE_EQ(m(0, 0), 3.0);
  m.swap_cols(0, 1);
  EXPECT_DOUBLE_EQ(m(0, 0), 4.0);
}

TEST(Matrix, ColumnRoundTrip) {
  Matrix m(3, 2);
  Vector c{7.0, 8.0, 9.0};
  m.set_column(1, c);
  const Vector got = m.column(1);
  EXPECT_EQ(got, c);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), 0.0);
  const Matrix scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW((void)max_abs_diff(a, b), std::invalid_argument);
}

TEST(Matrix, FrobeniusAndMaxAbs) {
  Matrix a{{3.0, 0.0}, {0.0, -4.0}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
}

TEST(Matrix, Matvec) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Vector x{1.0, 1.0};
  const Vector y = matvec(a, x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const Vector yt = matvec_transposed(a, x);
  EXPECT_DOUBLE_EQ(yt[0], 4.0);
  EXPECT_DOUBLE_EQ(yt[1], 6.0);
}

TEST(Matrix, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

}  // namespace
}  // namespace repro::linalg
