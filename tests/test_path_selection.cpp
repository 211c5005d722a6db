#include "core/path_selection.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "linalg/gemm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace repro::core {
namespace {

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

// Path-like matrix: rows share a few dominant directions plus small
// idiosyncratic noise, giving a steep singular-value decay like Figure 2(a).
linalg::Matrix correlated_rows(std::size_t n, std::size_t m, std::size_t k,
                               double noise, std::uint64_t seed) {
  util::Rng rng(seed);
  const linalg::Matrix base = random_matrix(k, m, seed + 1);
  linalg::Matrix a(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < k; ++d) {
      const double w = rng.uniform(0.2, 1.0);
      linalg::axpy(w, base.row(d), a.row(i));
    }
    for (std::size_t j = 0; j < m; ++j) a(i, j) += noise * rng.normal();
  }
  return a;
}

TEST(PathSelection, ExactRankReported) {
  const linalg::Matrix a =
      linalg::multiply(random_matrix(20, 5, 1), random_matrix(5, 12, 2));
  PathSelectionOptions opt;
  opt.epsilon = 1e-9;  // force exact selection
  const PathSelectionResult r = select_representative_paths(a, 1000.0, opt);
  EXPECT_EQ(r.exact_rank, 5u);
  EXPECT_EQ(r.representatives.size(), 5u);
  EXPECT_NEAR(r.eps_r, 0.0, 1e-7);
}

TEST(PathSelection, ToleranceReducesSelectionSize) {
  const linalg::Matrix a = correlated_rows(60, 40, 4, 0.02, 3);
  PathSelectionOptions tight;
  tight.epsilon = 1e-10;
  PathSelectionOptions loose;
  loose.epsilon = 0.05;
  const auto rt = select_representative_paths(a, 1000.0, tight);
  const auto rl = select_representative_paths(a, 1000.0, loose);
  EXPECT_LT(rl.representatives.size(), rt.representatives.size());
  // With strong row correlation the loose selection should be near the
  // number of dominant directions, far below rank.
  EXPECT_LE(rl.representatives.size(), 12u);
}

TEST(PathSelection, AchievedErrorWithinTolerance) {
  const linalg::Matrix a = correlated_rows(50, 30, 5, 0.05, 4);
  PathSelectionOptions opt;
  opt.epsilon = 0.05;
  const auto r = select_representative_paths(a, 2000.0, opt);
  EXPECT_LE(r.eps_r, 0.05);
  // The analytic per-path errors also respect the bound.
  for (double e : r.errors.per_path_eps) EXPECT_LE(e, 0.05 + 1e-12);
}

TEST(PathSelection, LinearAndBisectionAgreeOnSize) {
  const linalg::Matrix a = correlated_rows(40, 25, 4, 0.05, 5);
  PathSelectionOptions lin;
  lin.epsilon = 0.04;
  lin.strategy = SelectionStrategy::kLinearDecrement;
  PathSelectionOptions bis = lin;
  bis.strategy = SelectionStrategy::kBisection;
  const auto rl = select_representative_paths(a, 2000.0, lin);
  const auto rb = select_representative_paths(a, 2000.0, bis);
  // The error is monotone to numerical noise; allow 1 path of slack.
  EXPECT_NEAR(static_cast<double>(rl.representatives.size()),
              static_cast<double>(rb.representatives.size()), 1.0);
  EXPECT_LE(rb.eps_r, 0.04);
  EXPECT_LE(rl.eps_r, 0.04);
}

TEST(PathSelection, BisectionEvaluatesFewerCandidates) {
  const linalg::Matrix a = correlated_rows(80, 50, 6, 0.05, 6);
  PathSelectionOptions lin;
  lin.epsilon = 0.05;
  lin.strategy = SelectionStrategy::kLinearDecrement;
  PathSelectionOptions bis = lin;
  bis.strategy = SelectionStrategy::kBisection;
  const auto rl = select_representative_paths(a, 2000.0, lin);
  const auto rb = select_representative_paths(a, 2000.0, bis);
  EXPECT_LT(rb.candidates_evaluated, rl.candidates_evaluated);
}

TEST(PathSelection, HugeToleranceSelectsMinR) {
  const linalg::Matrix a = random_matrix(20, 15, 7);
  PathSelectionOptions opt;
  opt.epsilon = 1e6;
  const auto r = select_representative_paths(a, 1000.0, opt);
  EXPECT_EQ(r.representatives.size(), opt.min_r);
}

TEST(PathSelection, MinRRespected) {
  const linalg::Matrix a = random_matrix(20, 15, 8);
  PathSelectionOptions opt;
  opt.epsilon = 1e6;
  opt.min_r = 4;
  const auto r = select_representative_paths(a, 1000.0, opt);
  EXPECT_EQ(r.representatives.size(), 4u);
}

TEST(PathSelection, MinREqualToRankSelectsExactly) {
  // Full-row-rank 10x15 matrix: rank == 10.  min_r == rank pins both search
  // strategies to the exact selection regardless of tolerance.
  const linalg::Matrix a = random_matrix(10, 15, 10);
  for (const SelectionStrategy strategy :
       {SelectionStrategy::kLinearDecrement, SelectionStrategy::kBisection}) {
    PathSelectionOptions opt;
    opt.epsilon = 1e6;
    opt.min_r = 10;
    opt.strategy = strategy;
    const auto r = select_representative_paths(a, 1000.0, opt);
    EXPECT_EQ(r.exact_rank, 10u);
    EXPECT_EQ(r.representatives.size(), 10u);
    EXPECT_NEAR(r.eps_r, 0.0, 1e-7);
  }
}

TEST(PathSelection, MinRAboveRankClampsToRank) {
  // min_r beyond rank(A) is unreachable; both strategies must clamp to the
  // exact selection instead of silently ignoring the floor (the bisection
  // loop would otherwise never run and report a stale candidate count).
  const linalg::Matrix a =
      linalg::multiply(random_matrix(20, 6, 11), random_matrix(6, 12, 12));
  for (const SelectionStrategy strategy :
       {SelectionStrategy::kLinearDecrement, SelectionStrategy::kBisection}) {
    PathSelectionOptions opt;
    opt.epsilon = 1e6;
    opt.min_r = 100;  // far above rank == 6
    opt.strategy = strategy;
    const auto r = select_representative_paths(a, 1000.0, opt);
    EXPECT_EQ(r.exact_rank, 6u);
    EXPECT_EQ(r.representatives.size(), 6u) << "strategy ignored the clamp";
    EXPECT_NEAR(r.eps_r, 0.0, 1e-7);
    EXPECT_GE(r.candidates_evaluated, 1u);
  }
}

TEST(PathSelection, ZeroRankThrows) {
  PathSelectionOptions opt;
  EXPECT_THROW(
      (void)select_representative_paths(linalg::Matrix(5, 5), 100.0, opt),
      std::invalid_argument);
}

TEST(PathSelection, PrecomputedGramMatchesInternal) {
  // A caller holding W = A A^T selects through its own SubsetSelector; the
  // result must be the one the matrix overload computes from A alone.
  const linalg::Matrix a = correlated_rows(30, 20, 3, 0.05, 9);
  const linalg::Matrix w = linalg::gram(a);
  const SubsetSelector selector(a, w);
  PathSelectionOptions opt;
  opt.epsilon = 0.05;
  const auto r1 = select_representative_paths(a, 1000.0, opt);
  const auto r2 = select_representative_paths(selector, w, 1000.0, opt);
  EXPECT_EQ(r1.representatives, r2.representatives);
  EXPECT_EQ(r1.eps_r, r2.eps_r);
  EXPECT_EQ(r1.exact_rank, r2.exact_rank);
}

TEST(PathSelection, PinnedGoldenSelection) {
  // Golden values captured before the batched-evaluator rewrite (panel
  // solve + memoized QRCP): both strategies must keep returning exactly
  // these representatives.  eps_r is compared with a relative tolerance
  // because compiler FP contraction may differ between the old per-vector
  // and new panel loops.
  const linalg::Matrix a = correlated_rows(48, 32, 5, 0.05, 20260805);
  const std::vector<int> golden_reps{22, 21, 24, 15, 36};
  const double golden_eps = 0.0007123722604426288;
  for (const SelectionStrategy strategy :
       {SelectionStrategy::kLinearDecrement, SelectionStrategy::kBisection}) {
    PathSelectionOptions opt;
    opt.epsilon = 2e-3;
    opt.strategy = strategy;
    const auto r = select_representative_paths(a, 2000.0, opt);
    EXPECT_EQ(r.representatives, golden_reps);
    EXPECT_NEAR(r.eps_r, golden_eps, 1e-9 * golden_eps);
  }
}

TEST(PathSelection, GreedySweepMatchesManualDecrement) {
  // The greedy driver must pick exactly the prefix a per-candidate linear
  // decrement over the same greedy order would pick, with the same errors.
  const linalg::Matrix a = correlated_rows(56, 60, 5, 0.05, 21);  // gram route
  const linalg::Matrix w = linalg::gram(a);
  const SubsetSelector selector(a, w);
  PathSelectionOptions opt;
  opt.epsilon = 0.04;
  opt.strategy = SelectionStrategy::kGreedySweep;
  const auto got = select_representative_paths(selector, w, 2000.0, opt);

  const std::vector<int>& order = selector.greedy_order(w);
  std::size_t r = selector.rank();
  while (r > 1) {
    std::vector<int> rep(order.begin(),
                         order.begin() + static_cast<std::ptrdiff_t>(r - 1));
    if (selection_errors_from_gram(w, rep, 2000.0, opt.kappa).eps_r >
        opt.epsilon) {
      break;
    }
    --r;
  }
  const std::vector<int> want(order.begin(),
                              order.begin() + static_cast<std::ptrdiff_t>(r));
  EXPECT_EQ(got.representatives, want);
  EXPECT_DOUBLE_EQ(
      got.eps_r, selection_errors_from_gram(w, want, 2000.0, opt.kappa).eps_r);
  EXPECT_LE(got.eps_r, opt.epsilon);
  // The pivot diagonal is read from prefix min_r = 1 up to the answer.
  EXPECT_EQ(got.candidates_evaluated, want.size());
}

TEST(PathSelection, GreedySweepStopsAtFirstFeasiblePrefix) {
  // Lazy Gram route (n > 512): the answer is the first prefix whose pivot
  // sigma meets epsilon, and every shorter prefix violates it.
  const linalg::Matrix a = correlated_rows(600, 40, 6, 0.05, 25);
  const linalg::Matrix w = linalg::gram(a);
  const SubsetSelector selector(a, w);
  const linalg::Vector& sigma = selector.greedy_sigma();
  ASSERT_GT(sigma.size(), 5u);
  PathSelectionOptions opt;
  // Between the errors of the 3- and 4-path prefixes.
  opt.epsilon = opt.kappa * 0.5 * (sigma[3] + sigma[4]) / 2000.0;
  opt.strategy = SelectionStrategy::kGreedySweep;
  const auto got = select_representative_paths(selector, w, 2000.0, opt);
  const std::size_t r = got.representatives.size();
  ASSERT_EQ(r, 4u);
  const std::vector<int>& order = selector.greedy_order(w);
  const std::vector<int> shorter(
      order.begin(), order.begin() + static_cast<std::ptrdiff_t>(r - 1));
  EXPECT_GT(selection_errors_from_gram(w, shorter, 2000.0, opt.kappa).eps_r,
            opt.epsilon);
  EXPECT_LE(got.eps_r, opt.epsilon);
  EXPECT_NEAR(got.eps_r, opt.kappa * sigma[r] / 2000.0, 1e-9 * got.eps_r);
}

TEST(PathSelection, GreedySweepRespectsEpsilonAndMinR) {
  const linalg::Matrix a = correlated_rows(50, 40, 4, 0.05, 22);
  PathSelectionOptions opt;
  opt.strategy = SelectionStrategy::kGreedySweep;
  opt.epsilon = 0.05;
  const auto r = select_representative_paths(a, 2000.0, opt);
  EXPECT_LE(r.eps_r, opt.epsilon);
  EXPECT_GE(r.representatives.size(), 1u);

  opt.epsilon = 1e6;
  opt.min_r = 6;
  const auto rmin = select_representative_paths(a, 2000.0, opt);
  EXPECT_EQ(rmin.representatives.size(), 6u);
}

TEST(PathSelection, GreedySweepWorksOnTallMatrix) {
  // A tall pool (cols < rows) takes the same Gram route as a wide one; the
  // sweep driver reads the greedy order off the selector's own W.
  const linalg::Matrix a = correlated_rows(30, 18, 4, 0.05, 23);
  PathSelectionOptions opt;
  opt.strategy = SelectionStrategy::kGreedySweep;
  opt.epsilon = 0.05;
  const auto r = select_representative_paths(a, 2000.0, opt);
  EXPECT_LE(r.eps_r, opt.epsilon);
  EXPECT_GE(r.representatives.size(), 1u);
  EXPECT_LE(r.representatives.size(), r.exact_rank);
  // Representatives must be distinct row indices.
  std::vector<int> sorted = r.representatives;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(PathSelection, GreedySweepBitIdenticalAcrossThreadCounts) {
  const linalg::Matrix a = correlated_rows(64, 48, 5, 0.05, 24);
  PathSelectionOptions opt;
  opt.strategy = SelectionStrategy::kGreedySweep;
  opt.epsilon = 0.04;
  const std::size_t saved_threads = util::thread_count();
  util::set_threads(1);
  const auto r1 = select_representative_paths(a, 2000.0, opt);
  util::set_threads(4);
  const auto r4 = select_representative_paths(a, 2000.0, opt);
  util::set_threads(saved_threads);
  EXPECT_EQ(r1.representatives, r4.representatives);
  EXPECT_EQ(r1.eps_r, r4.eps_r);
}

}  // namespace
}  // namespace repro::core
