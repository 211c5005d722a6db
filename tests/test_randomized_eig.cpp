#include "linalg/randomized_eig.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/benchmarks.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
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

// PSD matrix of known rank.
Matrix psd_of_rank(std::size_t n, std::size_t rank, std::uint64_t seed) {
  return gram(random_matrix(n, rank, seed));
}

TEST(RandomizedEig, MatchesDenseEigOnLowRank) {
  const Matrix w = psd_of_rank(120, 15, 1);
  const RandomizedEigResult r = randomized_eig_psd(w, 15);
  const EigenSymResult exact = eigen_sym(w);
  ASSERT_EQ(r.values.size(), 15u + 16u);
  // Top eigenvalues agree (exact are ascending).
  for (std::size_t k = 0; k < 15; ++k) {
    const double truth = exact.values[120 - 1 - k];
    EXPECT_NEAR(r.values[k], truth, 1e-8 * (1.0 + truth)) << k;
  }
  // Values beyond the true rank are ~0.
  for (std::size_t k = 15; k < r.values.size(); ++k) {
    EXPECT_LT(r.values[k], 1e-8 * r.values[0]);
  }
}

TEST(RandomizedEig, VectorsOrthonormalAndEigenEquationHolds) {
  const Matrix w = psd_of_rank(90, 10, 2);
  const RandomizedEigResult r = randomized_eig_psd(w, 10);
  const Matrix vtv = multiply_at(r.vectors, r.vectors);
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(r.vectors.cols())), 1e-9);
  for (std::size_t k = 0; k < 10; ++k) {
    const Vector v = r.vectors.column(k);
    const Vector wv = matvec(w, v);
    for (std::size_t i = 0; i < wv.size(); ++i) {
      EXPECT_NEAR(wv[i], r.values[k] * v[i], 1e-7 * (1.0 + r.values[0]));
    }
  }
}

TEST(RandomizedEig, CapturesRequestedRank) {
  // Asking for the full rank captures every nonzero eigenvalue.
  const Matrix w = psd_of_rank(300, 180, 3);
  const RandomizedEigResult r = randomized_eig_psd(w, 180);
  std::size_t above = 0;
  for (double v : r.values) {
    if (v > 1e-8 * r.values[0]) ++above;
  }
  EXPECT_EQ(above, 180u);
}

TEST(RandomizedEig, SketchIsRequestedSizePlusOversample) {
  const Matrix w = psd_of_rank(200, 150, 4);
  const RandomizedEigResult r = randomized_eig_psd(w, 40);
  EXPECT_EQ(r.values.size(), 40u + 16u);
  EXPECT_TRUE(r.vectors.same_shape(Matrix(200, 56)));
  // The leading eigenvalues are still accurate.
  const EigenSymResult exact = eigen_sym(w);
  for (std::size_t k = 0; k < 10; ++k) {
    const double truth = exact.values[200 - 1 - k];
    EXPECT_NEAR(r.values[k], truth, 0.02 * truth);
  }
}

TEST(RandomizedEig, FullRankMatrixCapped) {
  // k + oversample beyond n is capped at n: the whole spectrum.
  Matrix w = psd_of_rank(60, 60, 5);
  for (std::size_t i = 0; i < 60; ++i) w(i, i) += 1.0;  // well conditioned
  const RandomizedEigResult r = randomized_eig_psd(w, 50);
  EXPECT_EQ(r.values.size(), 60u);
  const EigenSymResult exact = eigen_sym(w);
  for (std::size_t k = 0; k < 60; ++k) {
    const double truth = exact.values[60 - 1 - k];
    EXPECT_NEAR(r.values[k], truth, 1e-8 * (1.0 + truth)) << k;
  }
}

TEST(RandomizedEig, NotSquareThrows) {
  EXPECT_THROW((void)randomized_eig_psd(Matrix(3, 4), 2),
               std::invalid_argument);
}

TEST(RandomizedEig, DeterministicForSeed) {
  const Matrix w = psd_of_rank(80, 12, 6);
  const RandomizedEigResult a = randomized_eig_psd(w, 12);
  const RandomizedEigResult b = randomized_eig_psd(w, 12);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.values[i], b.values[i]);
  }
}

TEST(PivotedCholesky, RevealsRank) {
  const Matrix w = psd_of_rank(70, 9, 7);
  const PivotedChol pc = pivoted_cholesky(w);
  EXPECT_EQ(pc.rank, 9u);
}

TEST(PivotedCholesky, FactorReconstructsPermutedMatrix) {
  const Matrix w = psd_of_rank(40, 12, 8);
  const PivotedChol pc = pivoted_cholesky(w);
  ASSERT_EQ(pc.rank, 12u);
  // (L L^T)_{ab} must equal W(perm[a], perm[b]).
  const Matrix llt = multiply_bt(pc.l, pc.l);
  for (std::size_t a = 0; a < 40; ++a) {
    for (std::size_t b = 0; b < 40; ++b) {
      EXPECT_NEAR(llt(a, b),
                  w(static_cast<std::size_t>(pc.perm[a]),
                    static_cast<std::size_t>(pc.perm[b])),
                  1e-8 * (1.0 + w.max_abs()));
    }
  }
}

TEST(PivotedCholesky, FullRankIdentity) {
  const PivotedChol pc = pivoted_cholesky(Matrix::identity(8));
  EXPECT_EQ(pc.rank, 8u);
}

TEST(PivotedCholesky, ZeroMatrix) {
  const PivotedChol pc = pivoted_cholesky(Matrix(5, 5));
  EXPECT_EQ(pc.rank, 0u);
}

TEST(PivotedCholesky, FirstPivotIsLargestDiagonal) {
  Matrix w = Matrix::identity(4);
  w(2, 2) = 9.0;
  const PivotedChol pc = pivoted_cholesky(w);
  EXPECT_EQ(pc.perm[0], 2);
}

TEST(PivotedCholesky, NotSquareThrows) {
  EXPECT_THROW((void)pivoted_cholesky(Matrix(2, 3)), std::invalid_argument);
}

// The pivoted Cholesky as first written: a zeroed n x n factor, rows
// updated serially.  The O(n * rank) threaded version must reproduce it bit
// for bit.
PivotedChol reference_pivoted_cholesky(const Matrix& s, double rel_tol) {
  const std::size_t n = s.rows();
  PivotedChol out;
  out.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.perm[i] = static_cast<int>(i);
  Vector diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = s(i, i);
  double max_diag0 = 0.0;
  for (double d : diag) max_diag0 = std::max(max_diag0, d);
  const double tol = rel_tol * (max_diag0 > 0.0 ? max_diag0 : 1.0);
  Matrix l(n, n);
  std::size_t k = 0;
  for (; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (diag[i] > diag[piv]) piv = i;
    }
    if (diag[piv] <= tol) break;
    if (piv != k) {
      std::swap(out.perm[piv], out.perm[k]);
      std::swap(diag[piv], diag[k]);
      l.swap_rows(piv, k);
    }
    const double lkk = std::sqrt(diag[k]);
    l(k, k) = lkk;
    const auto pk = static_cast<std::size_t>(out.perm[k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const auto pi = static_cast<std::size_t>(out.perm[i]);
      double v = s(pi, pk);
      const double* li = l.row(i).data();
      const double* lk = l.row(k).data();
      for (std::size_t j = 0; j < k; ++j) v -= li[j] * lk[j];
      const double lik = v / lkk;
      l(i, k) = lik;
      diag[i] -= lik * lik;
    }
  }
  out.rank = k;
  out.l = l.left_cols(k);
  return out;
}

void expect_same_bits(const PivotedChol& a, const PivotedChol& b) {
  ASSERT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.perm, b.perm);
  ASSERT_TRUE(a.l.same_shape(b.l));
  EXPECT_TRUE(std::equal(a.l.data().begin(), a.l.data().end(),
                         b.l.data().begin()));
}

// Five copies of one 9 x 9 PSD block down the diagonal: every Schur
// diagonal stays tied, exactly, with its copies in the other blocks, so each
// pivot is decided by the tie rule (first largest).
Matrix tied_block_diagonal() {
  const Matrix block = psd_of_rank(9, 9, 15);
  Matrix w(45, 45);
  for (std::size_t b = 0; b < 5; ++b) {
    for (std::size_t i = 0; i < 9; ++i) {
      for (std::size_t j = 0; j < 9; ++j) w(9 * b + i, 9 * b + j) = block(i, j);
    }
  }
  return w;
}

TEST(PivotedCholesky, BitIdenticalToReferenceAndAcrossThreadCounts) {
  // Rank 200 of 700 grows the factor storage past its first capacity and
  // takes the threaded row update; a full-rank case fills every column.
  // Orders 13, 67 and 203 leave trailing-row counts of every residue mod 8
  // at both ends of the factorization, and the tied block diagonal decides
  // every pivot by the tie rule.
  const std::size_t saved_threads = util::thread_count();
  for (const Matrix& w : {psd_of_rank(700, 200, 12), psd_of_rank(90, 90, 13),
                          psd_of_rank(13, 13, 16), psd_of_rank(67, 30, 17),
                          psd_of_rank(203, 203, 18), tied_block_diagonal()}) {
    const double tol = 1e-14;
    const PivotedChol ref = reference_pivoted_cholesky(w, tol);
    for (std::size_t threads : {1u, 4u}) {
      util::set_threads(threads);
      expect_same_bits(pivoted_cholesky(w, tol), ref);
    }
  }
  util::set_threads(saved_threads);
}

TEST(PivotedCholesky, BitIdenticalToReferenceOnFastPaperGram) {
  // W = A A^T of s1423 at the REPRO_FAST pool sizes, at the selector's own
  // rank tolerance (core/subset_select.cpp).
  core::ExperimentConfig cfg;
  cfg.benchmark = "s1423";
  cfg.max_target_paths = 500;
  cfg.max_candidates = 5000;
  cfg.yield_mc_samples = 500;
  const core::Experiment e(cfg);
  const Matrix& a = e.model().a();
  const Matrix w = gram(a);
  const double rel =
      std::sqrt(static_cast<double>(std::max(a.rows(), a.cols())) *
                std::numeric_limits<double>::epsilon()) *
      4.0;
  const PivotedChol ref = reference_pivoted_cholesky(w, rel * rel);
  ASSERT_GT(ref.rank, 8u);
  const std::size_t saved_threads = util::thread_count();
  for (std::size_t threads : {1u, 4u}) {
    util::set_threads(threads);
    expect_same_bits(pivoted_cholesky(w, rel * rel), ref);
  }
  util::set_threads(saved_threads);
}

TEST(RandomizedEig, BitIdenticalAcrossThreadCounts) {
  // n and the sketch are large enough that the range finder's products and
  // QRs take the threaded GEMM.
  const Matrix w = psd_of_rank(600, 180, 14);
  const std::size_t saved_threads = util::thread_count();
  util::set_threads(1);
  const RandomizedEigResult a = randomized_eig_psd(w, 192);
  util::set_threads(4);
  const RandomizedEigResult b = randomized_eig_psd(w, 192);
  util::set_threads(saved_threads);
  EXPECT_EQ(a.values, b.values);
  ASSERT_TRUE(a.vectors.same_shape(b.vectors));
  EXPECT_TRUE(std::equal(a.vectors.data().begin(), a.vectors.data().end(),
                         b.vectors.data().begin()));
}

}  // namespace
}  // namespace repro::linalg
