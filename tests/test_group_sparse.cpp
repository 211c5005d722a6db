#include "core/group_sparse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/benchmarks.h"
#include "core/subset_select.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

// The greedy as first written: it keeps the Schur complement C of Q on the
// chosen segments as a dense n_s x n_s matrix and rank-1 updates all of it
// on every pick.  select_segments, which runs on the pivoted-Cholesky engine
// and never forms C, must pick the same segments with the same WC.
GroupSparseResult reference_select_segments(const linalg::Matrix& g_r1,
                                            const linalg::Matrix& q,
                                            double bound) {
  const std::size_t r1 = g_r1.rows();
  const std::size_t ns = g_r1.cols();
  const double t2 = bound * bound;
  linalg::Matrix c = q;
  linalg::Matrix t = linalg::multiply(g_r1, c);
  linalg::Vector v(r1);
  for (std::size_t i = 0; i < r1; ++i) {
    v[i] = linalg::dot(g_r1.row(i), t.row(i));
  }
  std::vector<char> chosen(ns, 0);
  const auto candidate = [&](std::size_t j) {
    return !chosen[j] && c(j, j) > 0.0;
  };
  linalg::Vector score(ns);
  linalg::Vector cj(ns), tj(r1);
  while (std::any_of(v.begin(), v.end(), [&](double x) { return x > t2; })) {
    std::fill(score.begin(), score.end(), 0.0);
    for (std::size_t i = 0; i < r1; ++i) {
      const double excess = v[i] - t2;
      if (excess <= 0.0) continue;
      for (std::size_t j = 0; j < ns; ++j) {
        if (!candidate(j)) continue;
        score[j] += std::min(excess, t(i, j) * t(i, j) / c(j, j));
      }
    }
    std::size_t best = ns;
    for (std::size_t j = 0; j < ns; ++j) {
      if (!candidate(j)) continue;
      if (best == ns || score[j] > score[best]) best = j;
    }
    if (best == ns) break;
    const double d = c(best, best);
    std::copy_n(c.row(best).data(), ns, cj.data());
    for (std::size_t i = 0; i < r1; ++i) tj[i] = t(i, best);
    for (std::size_t a = 0; a < ns; ++a) {
      for (std::size_t b = 0; b < ns; ++b) c(a, b) -= cj[a] * cj[b] / d;
    }
    for (std::size_t i = 0; i < r1; ++i) {
      for (std::size_t b = 0; b < ns; ++b) t(i, b) -= tj[i] * cj[b] / d;
      v[i] -= tj[i] * tj[i] / d;
    }
    chosen[best] = 1;
  }
  GroupSparseResult out;
  out.row_wc.resize(r1);
  for (std::size_t i = 0; i < r1; ++i) {
    out.row_wc[i] = std::sqrt(std::max(v[i], 0.0));
  }
  for (std::size_t j = 0; j < ns; ++j) {
    if (chosen[j]) out.selected_segments.push_back(static_cast<int>(j));
  }
  return out;
}

// Same segments as the reference, and every row's achieved WC^2 within
// 1e-12 of that row's unconditioned WC^2, g Q g^T, relative: the rounding of
// both routes scales with it, and a row the picks bring down a thousandfold
// (or to the cancellation floor of a fully chosen support) keeps it.
void expect_matches_reference(const linalg::Matrix& g_r1,
                              const linalg::Matrix& q, double bound) {
  const GroupSparseResult got = select_segments(g_r1, q, bound);
  const GroupSparseResult want = reference_select_segments(g_r1, q, bound);
  EXPECT_EQ(got.selected_segments, want.selected_segments) << "bound " << bound;
  ASSERT_EQ(got.row_wc.size(), want.row_wc.size());
  for (std::size_t i = 0; i < g_r1.rows(); ++i) {
    const double wc2_0 =
        linalg::dot(g_r1.row(i), linalg::matvec(q, g_r1.row(i)));
    const double a = got.row_wc[i], b = want.row_wc[i];
    EXPECT_NEAR(a * a, b * b, 1e-12 * wc2_0)
        << "bound " << bound << " row " << i;
  }
}

// G_r1 and Q as Algorithm 3 builds them for one circuit at the REPRO_FAST
// pool sizes: the incidence rows of the first rank(A) pivoted-Cholesky
// pivots of W, and the worst-case form at kappa = 3.
struct PaperInstance {
  linalg::Matrix g_r1;
  linalg::Matrix q;
  double t_cons = 0.0;
  explicit PaperInstance(const std::string& bench) {
    ExperimentConfig cfg;
    cfg.benchmark = bench;
    cfg.max_target_paths = 500;
    cfg.max_candidates = 5000;
    cfg.yield_mc_samples = 500;
    const Experiment e(cfg);
    const variation::VariationModel& m = e.model();
    const SubsetSelector selector =
        make_subset_selector(m.a(), linalg::gram(m.a()));
    const std::vector<int>& order = selector.greedy_order(selector.gram());
    g_r1 = linalg::Matrix(selector.rank(), m.num_segments());
    for (std::size_t i = 0; i < selector.rank(); ++i) {
      for (int seg : m.path_segments()[static_cast<std::size_t>(order[i])]) {
        g_r1(i, static_cast<std::size_t>(seg)) = 1.0;
      }
    }
    q = build_segment_quadratic(m.sigma(), m.mu_segments(), 3.0);
    t_cons = e.t_cons_ps();
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
  EXPECT_THROW((void)inst.select(std::nan("")), std::invalid_argument);
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

TEST(GroupSparse, MatchesDenseSchurReferenceOnSmallInstance) {
  SmallInstance inst;
  const linalg::Matrix q = build_segment_quadratic(inst.sigma, inst.mu, 3.0);
  for (double bound : {1e-9, 1e-3, 1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 50.0,
                       100.0, 1000.0, 1e6, 1e7}) {
    expect_matches_reference(inst.g, q, bound);
  }
}

TEST(GroupSparse, MatchesDenseSchurReferenceOnFastPaperInstance) {
  const PaperInstance inst("s1423");
  ASSERT_GT(inst.g_r1.rows(), 8u);
  // Table 2's eps' = 5 % and tighter bounds that take more segments.
  for (double eps_prime : {0.05, 0.02, 0.01}) {
    expect_matches_reference(inst.g_r1, inst.q, eps_prime * inst.t_cons);
  }
}

// 60 paths over the first 200 of 1200 segments.  A tight bound takes over
// 100 segments, so the engine's row update crosses its threaded floor,
// rest * (k + 1) >= 65 536, where its chunks (rest / 16 rows) are not
// multiples of eight rows: the threaded run groups rows into eight-row
// chains differently from the serial one.
TEST(GroupSparse, BitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kSegments = 1200;
  util::Rng rng(31);
  linalg::Matrix g(60, kSegments);
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < 200; ++j) {
      if (rng.uniform() < 0.3) g(i, j) = 1.0;
    }
  }
  // Each segment has its own parameter and one of 50 shared ones, so Q has
  // full rank.
  linalg::Matrix sigma(kSegments, kSegments + 50);
  linalg::Vector mu(kSegments);
  for (std::size_t j = 0; j < kSegments; ++j) {
    mu[j] = 20.0 + 10.0 * rng.uniform();
    sigma(j, j) = 1.0 + rng.uniform();
    sigma(j, kSegments + j % 50) = 1.0 + rng.uniform();
  }
  const linalg::Matrix q = build_segment_quadratic(sigma, mu, 3.0);
  const auto bits = [](const GroupSparseResult& r) {
    std::vector<std::uint64_t> out;
    for (double x : r.row_wc) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };
  const std::size_t saved_threads = util::thread_count();
  util::set_threads(1);
  const GroupSparseResult one = select_segments(g, q, 1.0);
  util::set_threads(4);
  const GroupSparseResult four = select_segments(g, q, 1.0);
  util::set_threads(saved_threads);
  EXPECT_GT(one.selected_segments.size(), 100u);
  EXPECT_EQ(one.selected_segments, four.selected_segments);
  EXPECT_EQ(bits(one), bits(four));
  expect_matches_reference(g, q, 1.0);
}

}  // namespace
}  // namespace repro::core
