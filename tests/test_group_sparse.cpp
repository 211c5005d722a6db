#include "core/group_sparse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "util/rng.h"

namespace repro::core {
namespace {

// Small synthetic instance: 4 paths over 5 segments, with one segment shared
// by every path.  Sigma gives each segment independent sensitivity.
struct SmallInstance {
  linalg::Matrix g{
      {1, 1, 0, 0, 1},
      {1, 0, 1, 0, 1},
      {0, 1, 0, 1, 1},
      {0, 0, 1, 1, 1},
  };
  linalg::Matrix sigma;
  linalg::Vector mu{50.0, 60.0, 55.0, 45.0, 120.0};
  SmallInstance() : sigma(5, 8) {
    util::Rng rng(7);
    for (std::size_t i = 0; i < 5; ++i) {
      sigma(i, i) = 4.0 + rng.uniform();          // own parameter
      sigma(i, 5 + i % 3) = 2.0 + rng.uniform();  // shared parameters
    }
  }
  GroupSparseResult select(double bound) const {
    return select_segments(g, build_segment_quadratic(sigma, mu, 3.0), bound);
  }
};

TEST(GroupSparse, LooseBoundSelectsFewSegments) {
  SmallInstance inst;
  // Bound far above any row's worst case: the rows meet it with no segment
  // chosen.
  const GroupSparseResult r = inst.select(1e7);
  EXPECT_LT(r.selected_segments.size(), 5u);
  for (double wc : r.row_wc) EXPECT_LE(wc, 1e7);
}

TEST(GroupSparse, TightBoundSelectsAllSegments) {
  SmallInstance inst;
  // Bound so tight that only the whole support (zero error) meets it.
  const GroupSparseResult r = inst.select(1e-3);
  EXPECT_EQ(r.selected_segments.size(), 5u);
  for (double wc : r.row_wc) EXPECT_LE(wc, 1e-3);
}

TEST(GroupSparse, EveryRowMeetsItsBound) {
  SmallInstance inst;
  for (double bound : {5.0, 15.0, 20.0, 100.0}) {
    const GroupSparseResult r = inst.select(bound);
    for (double wc : r.row_wc) {
      EXPECT_LE(wc, bound) << "bound " << bound;
    }
  }
}

TEST(GroupSparse, SelectionMonotoneInBound) {
  SmallInstance inst;
  std::size_t prev = 100;
  for (double bound : {1.0, 10.0, 50.0, 1000.0, 1e6}) {
    const GroupSparseResult r = inst.select(bound);
    EXPECT_LE(r.selected_segments.size(), prev) << "bound " << bound;
    prev = r.selected_segments.size();
  }
}

TEST(GroupSparse, SharedTrunkSegmentPreferred) {
  // Segment 4 appears in every path; a sparse selection should include it
  // whenever segments are needed at all.
  SmallInstance inst;
  const GroupSparseResult r = inst.select(15.0);
  ASSERT_FALSE(r.selected_segments.empty());
  EXPECT_NE(std::find(r.selected_segments.begin(), r.selected_segments.end(),
                      4),
            r.selected_segments.end());
}

TEST(GroupSparse, ShapeMismatchThrows) {
  SmallInstance inst;
  // Sigma with 4 segments against 5 nominal delays, then a 4-segment form
  // against 5 incidence columns.
  EXPECT_THROW((void)build_segment_quadratic(linalg::Matrix(4, 8), inst.mu,
                                             3.0),
               std::invalid_argument);
  const linalg::Matrix q4 = build_segment_quadratic(
      linalg::Matrix(4, 8), linalg::Vector(4, 1.0), 3.0);
  EXPECT_THROW((void)select_segments(inst.g, q4, 10.0),
               std::invalid_argument);
  EXPECT_THROW((void)inst.select(0.0), std::invalid_argument);
}

TEST(GroupSparse, CancellationFloorTerminates) {
  // Below rounding level no bound is met short of the whole support; the
  // greedy stops when the candidates run out, with every segment chosen.
  SmallInstance inst;
  const GroupSparseResult r = inst.select(1e-9);
  EXPECT_EQ(r.selected_segments, (std::vector<int>{0, 1, 2, 3, 4}));
  ASSERT_EQ(r.row_wc.size(), inst.g.rows());
}

TEST(GroupSparse, WcSurrogateMatchesSchurRefit) {
  // row_wc[i]^2 must be the least WC^2 of row i on the chosen support S,
  // g_N (Q_NN - Q_NS Q_SS^-1 Q_SN) g_N^T with N the unchosen segments,
  // here solved directly against a Cholesky factor of Q_SS.
  SmallInstance inst;
  const linalg::Matrix q = build_segment_quadratic(inst.sigma, inst.mu, 3.0);
  for (double bound : {15.0, 25.0, 100.0}) {
    const GroupSparseResult r = select_segments(inst.g, q, bound);
    const std::vector<int>& s_idx = r.selected_segments;
    ASSERT_FALSE(s_idx.empty()) << "bound " << bound;
    std::vector<int> n_idx;
    for (int j = 0; j < 5; ++j) {
      if (std::find(s_idx.begin(), s_idx.end(), j) == s_idx.end()) {
        n_idx.push_back(j);
      }
    }
    const linalg::Matrix q_ss = q.select_rows(s_idx).select_cols(s_idx);
    const linalg::Matrix q_sn = q.select_rows(s_idx).select_cols(n_idx);
    const linalg::Matrix q_nn = q.select_rows(n_idx).select_cols(n_idx);
    const linalg::Matrix g_nn = inst.g.select_cols(n_idx);
    const linalg::RegularizedChol rc = linalg::chol_factor_regularized(q_ss);
    for (std::size_t i = 0; i < inst.g.rows(); ++i) {
      const std::span<const double> g_n = g_nn.row(i);
      const linalg::Vector rhs = linalg::matvec(q_sn, g_n);
      const linalg::Vector x = linalg::chol_solve(rc.factors, rhs);
      const double wc2 =
          linalg::dot(g_n, linalg::matvec(q_nn, g_n)) - linalg::dot(rhs, x);
      if (wc2 > 0.0) {
        const double ref = std::sqrt(wc2);
        EXPECT_NEAR(r.row_wc[i], ref, 1e-9 * ref)
            << "bound " << bound << " row " << i;
      } else {
        // The row's whole support is chosen, so its error is exactly zero;
        // the greedy's WC^2 keeps only the rounding of cancelling g Q g^T.
        const double wc2_0 =
            linalg::dot(inst.g.row(i), linalg::matvec(q, inst.g.row(i)));
        EXPECT_LE(r.row_wc[i] * r.row_wc[i], 1e-9 * wc2_0)
            << "bound " << bound << " row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace repro::core
