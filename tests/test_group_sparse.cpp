#include "core/group_sparse.h"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/gemm.h"
#include "util/rng.h"

namespace repro::core {
namespace {

TEST(L1Ball, InsideUnchanged) {
  linalg::Vector v{0.2, -0.3};
  const linalg::Vector p = project_l1_ball(v, 1.0);
  EXPECT_DOUBLE_EQ(p[0], 0.2);
  EXPECT_DOUBLE_EQ(p[1], -0.3);
}

TEST(L1Ball, ProjectionHasCorrectNorm) {
  util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    linalg::Vector v(10);
    for (double& x : v) x = 3.0 * rng.normal();
    const double radius = 0.5 + rng.uniform();
    const linalg::Vector p = project_l1_ball(v, radius);
    double l1 = 0.0;
    for (double x : p) l1 += std::abs(x);
    if (linalg::norm1(v) > radius) {
      EXPECT_NEAR(l1, radius, 1e-10);
    } else {
      EXPECT_LE(l1, radius + 1e-12);
    }
  }
}

TEST(L1Ball, ProjectionIsClosestPoint) {
  // Compare against a fine soft-threshold search.
  linalg::Vector v{2.0, -1.0, 0.5, 0.1};
  const double radius = 1.0;
  const linalg::Vector p = project_l1_ball(v, radius);
  const double d_opt = [&] {
    double s = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (p[i] - v[i]) * (p[i] - v[i]);
    }
    return s;
  }();
  util::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    // Random feasible point.
    linalg::Vector q(4);
    double l1 = 0.0;
    for (double& x : q) {
      x = rng.normal();
      l1 += std::abs(x);
    }
    const double scale = radius * rng.uniform() / (l1 + 1e-12);
    double d = 0.0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      q[i] *= scale;
      d += (q[i] - v[i]) * (q[i] - v[i]);
    }
    EXPECT_GE(d, d_opt - 1e-9);
  }
}

TEST(L1Ball, ZeroRadius) {
  const linalg::Vector p = project_l1_ball({1.0, -2.0}, 0.0);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
}

TEST(L1Ball, NegativeRadiusThrows) {
  EXPECT_THROW((void)project_l1_ball({1.0}, -1.0), std::invalid_argument);
}

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
  // Bound far above any row's worst case: zero columns suffice only if g
  // rows themselves are within bound; with a huge bound B = 0 is feasible.
  const GroupSparseResult r = inst.select(1e7);
  EXPECT_LT(r.selected_segments.size(), 5u);
  for (double wc : r.row_wc) EXPECT_LE(wc, 1e7 * 1.03);
}

TEST(GroupSparse, TightBoundSelectsAllSegments) {
  SmallInstance inst;
  // Bound so tight only (near-)exact modeling works: B must approach G.
  const GroupSparseResult r = inst.select(1e-3);
  EXPECT_EQ(r.selected_segments.size(), 5u);
  for (double wc : r.row_wc) EXPECT_LE(wc, 1e-3 * 1.03);
}

TEST(GroupSparse, ConstraintsHoldAfterRefit) {
  SmallInstance inst;
  for (double bound : {5.0, 20.0, 100.0}) {
    const GroupSparseResult r = inst.select(bound);
    for (double wc : r.row_wc) {
      EXPECT_LE(wc, bound * 1.03) << "bound " << bound;
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

TEST(GroupSparse, BSupportedOnSelectedColumnsOnly) {
  SmallInstance inst;
  const GroupSparseResult r = inst.select(30.0);
  std::vector<char> sel(5, 0);
  for (int s : r.selected_segments) sel[static_cast<std::size_t>(s)] = 1;
  for (std::size_t i = 0; i < r.b.rows(); ++i) {
    for (std::size_t j = 0; j < r.b.cols(); ++j) {
      if (!sel[j]) {
        EXPECT_DOUBLE_EQ(r.b(i, j), 0.0);
      }
    }
  }
}

TEST(GroupSparse, SharedTrunkSegmentPreferred) {
  // Segment 4 appears in every path; a sparse solution should include it
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
  const SegmentQuadratic quad4 = build_segment_quadratic(
      linalg::Matrix(4, 8), linalg::Vector(4, 1.0), 3.0);
  EXPECT_THROW((void)select_segments(inst.g, quad4, 10.0),
               std::invalid_argument);
  EXPECT_THROW((void)inst.select(0.0), std::invalid_argument);
}

TEST(GroupSparse, WcSurrogateMatchesDefinition) {
  // For the refit B, row_wc must equal sqrt(c Q c^T) with c = g - b.
  SmallInstance inst;
  const double kappa = 3.0;
  const GroupSparseResult r = inst.select(25.0);
  linalg::Matrix q = linalg::gram(inst.sigma);
  q *= kappa * kappa;
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) q(i, j) += inst.mu[i] * inst.mu[j];
  }
  for (std::size_t i = 0; i < inst.g.rows(); ++i) {
    linalg::Vector c(5);
    for (std::size_t j = 0; j < 5; ++j) c[j] = inst.g(i, j) - r.b(i, j);
    const linalg::Vector qc = linalg::matvec(q, c);
    EXPECT_NEAR(r.row_wc[i], std::sqrt(std::max(linalg::dot(c, qc), 0.0)),
                1e-6 * (1.0 + r.row_wc[i]));
  }
}

}  // namespace
}  // namespace repro::core
