#include "linalg/cholesky.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "linalg/gemm.h"
#include "linalg/simd/dispatch.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace repro::linalg {
namespace {

// Gram of an n x m Gaussian matrix: PSD of rank min(n, m).
Matrix random_psd(std::size_t n, std::size_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix b(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) b(i, j) = rng.normal();
  }
  return gram(b);
}

// Random SPD matrix: A = B B^T + ridge*I.
Matrix random_spd(std::size_t n, std::uint64_t seed, double ridge = 0.0) {
  Matrix s = random_psd(n, n, seed);
  for (std::size_t i = 0; i < n; ++i) s(i, i) += ridge;
  return s;
}

TEST(Cholesky, FactorReconstructs) {
  const Matrix s = random_spd(10, 1, 1.0);
  const CholFactors f = chol_factor(s);
  ASSERT_TRUE(f.ok);
  EXPECT_LT(max_abs_diff(multiply_bt(f.l, f.l), s), 1e-9);
}

TEST(Cholesky, UpperTriangleIsZero) {
  const CholFactors f = chol_factor(random_spd(6, 2, 1.0));
  ASSERT_TRUE(f.ok);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(f.l(i, j), 0.0);
    }
  }
}

TEST(Cholesky, NotSquareThrows) {
  EXPECT_THROW((void)chol_factor(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, IndefiniteRejected) {
  Matrix s{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(chol_factor(s).ok);
}

TEST(Cholesky, SolveMatchesDirect) {
  const Matrix s = random_spd(15, 3, 2.0);
  util::Rng rng(33);
  Vector b(15);
  for (double& v : b) v = rng.normal();
  const CholFactors f = chol_factor(s);
  const Vector x = chol_solve(f, b);
  const Vector sx = matvec(s, x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(sx[i], b[i], 1e-9);
}

TEST(Cholesky, ForwardBackwardComposition) {
  const Matrix s = random_spd(8, 4, 1.0);
  const CholFactors f = chol_factor(s);
  Vector b{1, 2, 3, 4, 5, 6, 7, 8};
  const Vector via_parts = chol_backward(f, chol_forward(f, b));
  const Vector direct = chol_solve(f, b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_DOUBLE_EQ(via_parts[i], direct[i]);
  }
}

TEST(Cholesky, RegularizedHandlesSingular) {
  // Rank-1 PSD matrix: plain factorization fails, regularized succeeds with
  // a small jitter.
  Matrix s{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_FALSE(chol_factor(s).ok);
  const RegularizedChol rc = chol_factor_regularized(s);
  EXPECT_TRUE(rc.factors.ok);
  EXPECT_GT(rc.jitter, 0.0);
  EXPECT_LT(rc.jitter, 1e-6);
}

TEST(Cholesky, RegularizedZeroJitterWhenSpd) {
  const Matrix s = random_spd(5, 6, 1.0);
  const RegularizedChol rc = chol_factor_regularized(s);
  EXPECT_TRUE(rc.factors.ok);
  EXPECT_DOUBLE_EQ(rc.jitter, 0.0);
}

TEST(Cholesky, RegularizedFarFromPsdThrows) {
  Matrix s{{-1.0, 0.0}, {0.0, -1.0}};
  EXPECT_THROW((void)chol_factor_regularized(s), std::runtime_error);
}

TEST(Cholesky, FactorReconstructsUnderEveryDispatchTier) {
  // n >= 32 so the SIMD tiers actually take the dispatched dot path.
  const std::string before = simd::tier_name(simd::active_tier());
  const Matrix s = random_spd(64, 14, 64.0);
  for (simd::Tier t : simd::available_tiers()) {
    ASSERT_TRUE(simd::set_tier(simd::tier_name(t)));
    const CholFactors f = chol_factor(s);
    ASSERT_TRUE(f.ok) << simd::tier_name(t);
    EXPECT_LT(max_abs_diff(multiply_bt(f.l, f.l), s), 1e-8)
        << simd::tier_name(t);
  }
  simd::set_tier(before);
}

TEST(Cholesky, MultiRhsSolve) {
  const Matrix s = random_spd(7, 8, 1.0);
  const Matrix b = random_spd(7, 9, 0.5);
  const CholFactors f = chol_factor(s);
  const Matrix x = chol_solve(f, b);
  EXPECT_LT(max_abs_diff(multiply(s, x), b), 1e-8);
}

std::vector<std::size_t> random_order(std::size_t n, std::uint64_t seed) {
  std::vector<int> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<int>(i);
  util::Rng rng(seed);
  rng.shuffle(perm);
  return {perm.begin(), perm.end()};
}

// Drives the engine with the first `steps` rows of `order` as pivots and
// checks it against the dense Schur complement, updated right-looking
// beside it: after every pivot, residual() is that complement's diagonal,
// and at the end the returned columns reconstruct S's rows and columns at
// the pivots, (L L^T)(i, p) = S(i, p).
void expect_engine_matches_dense_schur(const Matrix& s,
                                       const std::vector<std::size_t>& order,
                                       std::size_t steps) {
  const std::size_t n = s.rows();
  const double scale = s.max_abs();
  CholeskyPivots engine(s);
  Matrix c = s;  // Schur complement of S on the pivots taken so far
  std::vector<Vector> cols;
  for (std::size_t k = 0; k < steps; ++k) {
    const std::size_t p = order[k];
    const double d = c(p, p);
    ASSERT_GT(d, 0.0) << "pivot " << k;
    const Vector cp = c.column(p);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) c(a, b) -= cp[a] * cp[b] / d;
    }
    const double r = engine.residual()[p];
    const Vector& col = engine.pivot(p);
    EXPECT_EQ(col[p], std::sqrt(r)) << "pivot " << k;
    for (std::size_t j = 0; j < k; ++j) EXPECT_EQ(col[order[j]], 0.0);
    cols.push_back(col);
    EXPECT_EQ(engine.residual()[p], 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == p) continue;
      EXPECT_NEAR(engine.residual()[i], c(i, i), 1e-12 * scale)
          << "pivot " << k << " row " << i;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < steps; ++b) {
      double llt = 0.0;
      for (const Vector& col : cols) llt += col[i] * col[order[b]];
      EXPECT_NEAR(llt, s(i, order[b]), 1e-12 * scale)
          << "row " << i << " pivot " << b;
    }
  }
}

TEST(CholeskyPivots, ArbitraryOrderMatchesDenseSchurComplement) {
  // Full rank: every row may be a pivot, in any order.
  const Matrix s = random_psd(60, 90, 21);
  expect_engine_matches_dense_schur(s, random_order(60, 22), 60);
}

TEST(CholeskyPivots, ArbitraryOrderOnRankDeficientMatrix) {
  // Rank 12 of 50: any 12 rows of a Gaussian factor are independent, and
  // once they are taken the whole Schur complement is rounding.
  const Matrix s = random_psd(50, 12, 23);
  expect_engine_matches_dense_schur(s, random_order(50, 24), 12);
}

TEST(CholeskyPivots, NotSquareThrows) {
  const Matrix wide(3, 4);
  EXPECT_THROW(CholeskyPivots{wide}, std::invalid_argument);
}

TEST(CholeskyPivots, BitIdenticalAcrossThreadCounts) {
  // 150 pivots of order 2000 grow the factor storage past its first
  // capacity and take the threaded row update from pivot 32 on.  Its chunks
  // (rest / 16 rows) are not multiples of eight rows, so the threaded run
  // groups rows into eight-row chains differently from the serial one.
  const Matrix s = random_psd(2000, 200, 25);
  const std::vector<std::size_t> order = random_order(2000, 26);
  const auto run = [&](std::size_t threads) {
    util::set_threads(threads);
    CholeskyPivots engine(s);
    std::vector<double> out;
    for (std::size_t k = 0; k < 150; ++k) {
      const Vector& col = engine.pivot(order[k]);
      out.insert(out.end(), col.begin(), col.end());
    }
    out.insert(out.end(), engine.residual().begin(), engine.residual().end());
    return out;
  };
  const std::size_t saved_threads = util::thread_count();
  const std::vector<double> one = run(1);
  const std::vector<double> four = run(4);
  util::set_threads(saved_threads);
  ASSERT_EQ(one.size(), four.size());
  EXPECT_EQ(std::memcmp(one.data(), four.data(), one.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace repro::linalg
