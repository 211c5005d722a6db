#include "linalg/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/benchmarks.h"
#include "linalg/simd/dispatch.h"
#include "linalg/simd/kernels.h"
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
  const std::size_t before = util::thread_count();
  util::set_threads(2);
  EXPECT_EQ(util::thread_count(), 2u);
  const Matrix a = random_matrix(64, 64, 11);
  const Matrix b = random_matrix(64, 64, 12);
  EXPECT_LT(max_abs_diff(multiply(a, b), naive_multiply(a, b)), 1e-11);
  util::set_threads(before);
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

// A sparse m x k matrix (about one entry in five) with the structures the
// sparse product must handle: an empty row, a row with no entries in its
// second k-panel, a fully dense row and negative zeros (dropped by both
// products alike).
Matrix sparse_matrix(std::size_t m, std::size_t k, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix a(m, k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const double u = rng.uniform();
      if (i == 2 || u < 0.2) a(i, p) = rng.normal();
      if (i != 2 && u > 0.95) a(i, p) = -0.0;
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    a(0, p) = 0.0;
    if (p >= 256 && p < 512) a(1, p) = 0.0;
  }
  return a;
}

TEST(Gemm, SparseRowsProductIsBitIdenticalToDense) {
  // Every tier, both routes (2 m k n on either side of the 65,536-flop SIMD
  // threshold), k around and across the 256-deep panel, n across every
  // micro-kernel width and axpy tail; the 200-row case is large enough to
  // split rows over the pool.
  struct Shape {
    std::size_t m, k, n;
  };
  std::vector<Shape> shapes;
  for (std::size_t k : {1u, 255u, 256u, 257u, 600u}) {
    for (std::size_t n : {1u, 3u, 7u, 8u, 9u, 16u, 256u}) {
      shapes.push_back({13, k, n});
    }
  }
  shapes.push_back({200, 600, 256});
  std::size_t below = 0, above = 0;
  for (const Shape& s : shapes) {
    ++(2 * s.m * s.k * s.n > 65'536 ? above : below);
  }
  ASSERT_GT(below, 0u);
  ASSERT_GT(above, 0u);

  const std::string before = simd::tier_name(simd::active_tier());
  for (simd::Tier t : simd::available_tiers()) {
    ASSERT_TRUE(simd::set_tier(simd::tier_name(t)));
    for (const Shape& s : shapes) {
      const Matrix a = sparse_matrix(s.m, s.k, 31 + s.k);
      const Matrix b = random_matrix(s.k, s.n, 57 + s.n);
      SparseRows sa(s.k);
      for (std::size_t i = 0; i < s.m; ++i) sa.append_row(a.row(i));
      ASSERT_EQ(sa.rows(), s.m);
      ASSERT_EQ(sa.row_begin(0), sa.row_end(0));  // the empty row
      const Matrix dense = multiply(a, b);
      const Matrix sparse = multiply(sa, b);
      ASSERT_EQ(sparse.rows(), dense.rows());
      ASSERT_EQ(sparse.cols(), dense.cols());
      EXPECT_EQ(std::memcmp(sparse.data().data(), dense.data().data(),
                            dense.data().size() * sizeof(double)),
                0)
          << simd::tier_name(t) << " m=" << s.m << " k=" << s.k
          << " n=" << s.n;
    }
  }
  simd::set_tier(before);
}

TEST(Gemm, SparseRowsDropZerosAndCheckShapes) {
  SparseRows s(4);
  s.append_row(std::vector<double>{0.0, 2.0, -0.0, -1.5});
  s.append_row(std::vector<double>{0.0, 0.0, 0.0, 0.0});
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.cols(), 4u);
  ASSERT_EQ(s.nnz(), 2u);
  EXPECT_EQ(s.col_index(0), 1u);
  EXPECT_EQ(s.value(1), -1.5);
  EXPECT_EQ(s.row_begin(1), s.row_end(1));
  EXPECT_ANY_THROW(s.append_row(std::vector<double>{1.0, 2.0}));
  EXPECT_THROW((void)multiply(s, Matrix(3, 2)), std::invalid_argument);
  const Matrix c = multiply(SparseRows(3), Matrix(3, 5));
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 5u);
}

// gram's tile loop as it was before chunk masks: every cell runs the tier's
// dense dot4 / dot over the whole rows (linalg::dot on the scalar tier).
Matrix dense_gram_reference(const Matrix& a) {
  const simd::KernelOps& t = simd::ops();
  const bool use_simd = t.tier != simd::Tier::kScalar;
  const std::size_t n = a.rows(), k = a.cols();
  Matrix c(n, n);
  constexpr std::size_t kTile = 64;
  const std::size_t ntiles = (n + kTile - 1) / kTile;
  for (std::size_t ti = 0; ti < ntiles; ++ti) {
    for (std::size_t tj = 0; tj <= ti; ++tj) {
      const std::size_t ib = ti * kTile;
      const std::size_t ie = std::min(n, ib + kTile);
      const std::size_t jb = tj * kTile;
      const std::size_t je = std::min(n, jb + kTile);
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t jhi = std::min(je, i + 1);
        if (use_simd) {
          const double* xi = a.row(i).data();
          std::size_t j = jb;
          for (; j + 4 <= jhi; j += 4) {
            t.dot4(k, xi, a.row(j).data(), a.row(j + 1).data(),
                   a.row(j + 2).data(), a.row(j + 3).data(),
                   c.row(i).data() + j);
          }
          for (; j < jhi; ++j) c(i, j) = t.dot(k, xi, a.row(j).data());
        } else {
          for (std::size_t j = jb; j < jhi; ++j) {
            c(i, j) = dot(a.row(i), a.row(j));
          }
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) c(i, j) = c(j, i);
  }
  return c;
}

// Bit-for-bit equal, except that a NaN matches any NaN: which operand's NaN
// an add or FMA passes on depends on the instruction form the compiler
// picked, not on the arithmetic.
bool same_bits(const Matrix& x, const Matrix& y) {
  if (!x.same_shape(y)) return false;
  for (std::size_t q = 0; q < x.data().size(); ++q) {
    const double u = x.data()[q], v = y.data()[q];
    if (std::isnan(u) && std::isnan(v)) continue;
    if (std::memcmp(&u, &v, sizeof(double)) != 0) return false;
  }
  return true;
}

// Rows shaped like A = G Sigma, and the cases chunk skipping must get right:
// row 0 all zero, row 1 dense, row 2 all -0.0, and random rows with about a
// third of their 8-double chunks live, some entries in them zero or -0.0.
Matrix chunk_sparse_matrix(std::size_t n, std::size_t k, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix a(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c * 8 < k; ++c) {
      const bool live = i == 1 || (i > 2 && rng.uniform() < 0.35);
      for (std::size_t p = 8 * c; p < std::min(k, 8 * c + 8); ++p) {
        const double u = rng.uniform();
        if (i == 2) a(i, p) = -0.0;
        if (!live) continue;
        a(i, p) = u < 0.15 ? 0.0 : u < 0.3 ? -0.0 : rng.normal();
      }
    }
  }
  return a;
}

// Runs gram on every available tier at 1 and 4 threads and expects the
// dense reference's bits.
void expect_gram_has_dense_bits(const Matrix& a, const std::string& what) {
  const std::string before = simd::tier_name(simd::active_tier());
  const std::size_t saved_threads = util::thread_count();
  for (simd::Tier t : simd::available_tiers()) {
    ASSERT_TRUE(simd::set_tier(simd::tier_name(t)));
    const Matrix ref = dense_gram_reference(a);
    for (std::size_t threads : {1u, 4u}) {
      util::set_threads(threads);
      EXPECT_TRUE(same_bits(gram(a), ref))
          << what << " tier=" << simd::tier_name(t) << " threads=" << threads
          << " n=" << a.rows() << " k=" << a.cols();
    }
  }
  util::set_threads(saved_threads);
  simd::set_tier(before);
}

TEST(Gemm, GramSkipsZeroChunksWithDenseBits) {
  // k below one chunk, every k mod 8, k across the 16- and 32-wide blocks of
  // the SIMD dots and across a 64-chunk mask word; n across the 4-cell
  // quads and the 64-row tiles.
  std::vector<std::size_t> ks;
  for (std::size_t k = 0; k < 18; ++k) ks.push_back(k);
  for (std::size_t k : {31u, 32u, 33u, 47u, 64u, 100u, 515u, 520u, 523u,
                        1031u}) {
    ks.push_back(k);
  }
  for (std::size_t n : {1u, 3u, 5u, 63u, 64u, 65u, 130u}) {
    for (std::size_t k : ks) {
      expect_gram_has_dense_bits(chunk_sparse_matrix(n, k, 7 * n + k),
                                 "sparse");
    }
  }

  // 0 * inf and 0 * NaN are NaN: a row holding either must meet every chunk
  // of every other row, including the ones that row leaves at zero.
  for (std::size_t k : {5u, 40u, 77u, 600u}) {
    Matrix a = chunk_sparse_matrix(70, k, 90 + k);
    a(5, k / 2) = std::numeric_limits<double>::infinity();
    a(9, k - 1) = -std::numeric_limits<double>::infinity();
    a(33, 0) = std::numeric_limits<double>::quiet_NaN();
    a(64, k / 3) = std::numeric_limits<double>::quiet_NaN();
    expect_gram_has_dense_bits(a, "non-finite");
    const Matrix w = gram(a);
    EXPECT_TRUE(std::isnan(w(5, 0)));   // row 0 is all zero
    EXPECT_TRUE(std::isnan(w(33, 2)));  // row 2 is all -0.0
  }

  // A = G Sigma of s1423 and s38417 at the REPRO_FAST pool sizes
  // (core::default_experiment_config at that scale).
  for (const char* bench : {"s1423", "s38417"}) {
    core::ExperimentConfig cfg;
    cfg.benchmark = bench;
    cfg.max_target_paths = 500;
    cfg.max_candidates = 5000;
    cfg.yield_mc_samples = 500;
    const core::Experiment e(cfg);
    expect_gram_has_dense_bits(e.model().a(), bench);
  }
}

TEST(Gemm, IdentityIsNeutral) {
  const Matrix a = random_matrix(10, 10, 13);
  EXPECT_LT(max_abs_diff(multiply(a, Matrix::identity(10)), a), 1e-15);
  EXPECT_LT(max_abs_diff(multiply(Matrix::identity(10), a), a), 1e-15);
}

}  // namespace
}  // namespace repro::linalg
