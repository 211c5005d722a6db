#include "linalg/gemm.h"

#include <gtest/gtest.h>

#include "linalg/simd/dispatch.h"
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

Matrix naive_multiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

TEST(Gemm, SmallKnownProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW((void)multiply(a, b), std::invalid_argument);
  EXPECT_THROW((void)multiply_at(a, Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW((void)multiply_bt(a, Matrix(3, 2)), std::invalid_argument);
}

TEST(Gemm, MatchesNaiveOnRandom) {
  const Matrix a = random_matrix(17, 23, 1);
  const Matrix b = random_matrix(23, 11, 2);
  EXPECT_LT(max_abs_diff(multiply(a, b), naive_multiply(a, b)), 1e-12);
}

TEST(Gemm, MultiplyBtMatchesExplicitTranspose) {
  const Matrix a = random_matrix(9, 14, 3);
  const Matrix b = random_matrix(6, 14, 4);
  EXPECT_LT(max_abs_diff(multiply_bt(a, b), multiply(a, b.transposed())),
            1e-12);
}

TEST(Gemm, MultiplyAtMatchesExplicitTranspose) {
  const Matrix a = random_matrix(12, 7, 5);
  const Matrix b = random_matrix(12, 9, 6);
  EXPECT_LT(max_abs_diff(multiply_at(a, b), multiply(a.transposed(), b)),
            1e-12);
}

TEST(Gemm, GramIsSymmetricAndCorrect) {
  const Matrix a = random_matrix(8, 20, 7);
  const Matrix w = gram(a);
  EXPECT_LT(max_abs_diff(w, multiply_bt(a, a)), 1e-12);
  EXPECT_LT(max_abs_diff(w, w.transposed()), 0.0 + 1e-15);
}

TEST(Gemm, LargeThreadedPathMatchesNaive) {
  // Big enough to trigger the threaded path in parallel_rows.
  const Matrix a = random_matrix(120, 300, 9);
  const Matrix b = random_matrix(300, 90, 10);
  EXPECT_LT(max_abs_diff(multiply(a, b), naive_multiply(a, b)), 1e-10);
}

TEST(Gemm, ThreadCountConfigurable) {
  const std::size_t before = gemm_threads();
  set_gemm_threads(2);
  EXPECT_EQ(gemm_threads(), 2u);
  const Matrix a = random_matrix(64, 64, 11);
  const Matrix b = random_matrix(64, 64, 12);
  EXPECT_LT(max_abs_diff(multiply(a, b), naive_multiply(a, b)), 1e-11);
  set_gemm_threads(before);
}

TEST(Gemm, CorrectUnderEveryDispatchTier) {
  // The cross-tier agreement bound lives in test_simd_kernels; this is the
  // in-place sanity sweep: every tier the host offers must track the naive
  // triple loop on a packed-path-sized product.
  const std::string before = simd::tier_name(simd::active_tier());
  const Matrix a = random_matrix(70, 90, 14);
  const Matrix b = random_matrix(90, 66, 15);
  const Matrix ref = naive_multiply(a, b);
  for (simd::Tier t : simd::available_tiers()) {
    ASSERT_TRUE(simd::set_tier(simd::tier_name(t)));
    EXPECT_LT(max_abs_diff(multiply(a, b), ref), 1e-10) << simd::tier_name(t);
  }
  simd::set_tier(before);
}

TEST(Gemm, IdentityIsNeutral) {
  const Matrix a = random_matrix(10, 10, 13);
  EXPECT_LT(max_abs_diff(multiply(a, Matrix::identity(10)), a), 1e-15);
  EXPECT_LT(max_abs_diff(multiply(Matrix::identity(10), a), a), 1e-15);
}

}  // namespace
}  // namespace repro::linalg
