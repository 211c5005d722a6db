#include "core/hybrid_selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <memory>

#include "circuit/generator.h"
#include "circuit/placement.h"
#include "core/error_model.h"
#include "linalg/gemm.h"
#include "linalg/qr_colpivot.h"
#include "test_helpers.h"
#include "timing/segments.h"
#include "variation/variation_model.h"

namespace repro::core {
namespace {

constexpr double kEps = 0.08;

SubsetSelector selector_of(const variation::VariationModel& model) {
  return make_subset_selector(model.a(), linalg::gram(model.a()));
}

// The first rank(A) pivots of the pivoted Cholesky of W: Step 1's P_r1.
std::vector<int> greedy_prefix(const SubsetSelector& selector) {
  const std::vector<int>& order = selector.greedy_order(selector.gram());
  return {order.begin(),
          order.begin() + static_cast<std::ptrdiff_t>(selector.rank())};
}

PathSelectionResult path_only_of(const SubsetSelector& selector,
                                 double t_cons) {
  PathSelectionOptions popt;
  popt.epsilon = kEps;
  return select_representative_paths(selector, selector.gram(), t_cons, popt);
}

struct Fixture {
  circuit::Netlist nl;
  circuit::GateLibrary lib;
  std::unique_ptr<timing::TimingGraph> tg;
  std::vector<timing::Path> paths;
  timing::SegmentDecomposition dec;
  std::unique_ptr<variation::SpatialModel> spatial;
  std::unique_ptr<variation::VariationModel> model;
  double t_cons = 0.0;
  // Algorithm 2's state and Algorithm 1's selection at kEps, as a caller of
  // the sweep holds them.
  std::unique_ptr<SubsetSelector> selector;
  PathSelectionResult path_only;

  explicit Fixture(const std::string& bench, std::size_t max_paths)
      : nl(circuit::generate_benchmark(bench)) {
    circuit::place(nl);
    tg = std::make_unique<timing::TimingGraph>(nl, lib);
    paths = timing::enumerate_worst_paths(*tg, {.max_paths = max_paths});
    dec = timing::extract_segments(nl, paths);
    spatial = std::make_unique<variation::SpatialModel>(3);
    model = std::make_unique<variation::VariationModel>(*tg, *spatial, paths,
                                                        dec, variation::VariationOptions{});
    double worst = 0.0;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      worst = std::max(worst, model->mu_paths()[p]);
    }
    t_cons = worst;
    selector = std::make_unique<SubsetSelector>(selector_of(*model));
    path_only = path_only_of(*selector, t_cons);
  }

  HybridResult sweep(const std::vector<double>& eps_primes) const {
    HybridOptions opt;
    opt.epsilon = kEps;
    return sweep_hybrid_selection(*selector, path_only, *model, t_cons,
                                  eps_primes, opt);
  }

  // The exact selection (eps_r = 0) as the fallback, so the sweep returns
  // Algorithm 3's own set whenever that set is below rank(A).
  HybridResult sweep_without_fallback(double eps_prime) const {
    PathSelectionResult exact;
    exact.representatives = greedy_prefix(*selector);
    HybridOptions opt;
    opt.epsilon = kEps;
    return sweep_hybrid_selection(*selector, exact, *model, t_cons,
                                  {eps_prime}, opt);
  }
};

TEST(Hybrid, AchievesToleranceAnalytically) {
  const Fixture f("s1196", 150);
  const HybridResult r = f.sweep({0.04});
  EXPECT_LE(r.eps_achieved, kEps * 1.05);
  EXPECT_LE(r.alg3_eps, kEps * 1.05);
  EXPECT_GT(r.exact_rank, 0u);
}

TEST(Hybrid, MeasurementCountBelowExactRank) {
  const Fixture f("s1196", 200);
  const HybridResult r = f.sweep({0.04});
  // The whole point of the hybrid scheme: fewer measurements than the exact
  // path selection.
  EXPECT_LT(r.rep_paths.size() + r.rep_segments.size(), r.exact_rank);
}

TEST(Hybrid, InvalidEpsPrimeThrows) {
  const Fixture f("s1196", 30);
  EXPECT_THROW((void)f.sweep({kEps}), std::invalid_argument);
  EXPECT_THROW((void)f.sweep({0.0}), std::invalid_argument);
  EXPECT_THROW((void)f.sweep({0.04, kEps}), std::invalid_argument);
}

TEST(Hybrid, InvalidCallerStateThrows) {
  const Fixture f("s1196", 30);
  HybridOptions opt;
  opt.epsilon = kEps;
  PathSelectionResult missed = f.path_only;
  missed.eps_r = kEps * 1.01;
  EXPECT_THROW((void)sweep_hybrid_selection(*f.selector, missed, *f.model,
                                            f.t_cons, {0.04}, opt),
               std::invalid_argument);
  const Fixture other("s1196", 20);
  ASSERT_NE(other.paths.size(), f.paths.size());
  EXPECT_THROW((void)sweep_hybrid_selection(*other.selector, f.path_only,
                                            *f.model, f.t_cons, {0.04}, opt),
               std::invalid_argument);
}

TEST(Hybrid, PredictorCoversAllUnmeasuredPaths) {
  const Fixture f("s1196", 120);
  const HybridResult r = f.sweep({0.05});
  EXPECT_EQ(r.predictor.remaining.size() + r.rep_paths.size(),
            f.paths.size());
}

TEST(Hybrid, FinalMeasurementRowsAreIndependent) {
  const Fixture f("s1196", 100);
  const HybridResult r = f.sweep_without_fallback(0.04);
  // No fallback: the result is Algorithm 3's own pruned set.
  ASSERT_EQ(r.rep_paths.size() + r.rep_segments.size(), r.alg3_total);
  ASSERT_GT(r.alg3_total, 0u);
  linalg::Matrix m(r.alg3_total, f.model->num_params());
  std::size_t row = 0;
  for (int i : r.rep_paths) {
    m.set_row(row++, f.model->a().row(static_cast<std::size_t>(i)));
  }
  for (int s : r.rep_segments) {
    m.set_row(row++, f.model->sigma().row(static_cast<std::size_t>(s)));
  }
  EXPECT_EQ(linalg::qrcp_rank(linalg::qr_colpivot(std::move(m))),
            r.alg3_total);
  EXPECT_LE(r.eps_achieved, kEps * 1.05);
}

TEST(Hybrid, GreedyPrefixIsExactBasis) {
  const Fixture f("s1196", 150);
  const SelectionErrors err = selection_errors_from_gram(
      f.selector->gram(), greedy_prefix(*f.selector), f.t_cons, 3.0);
  // Zero up to the Gram identity's cancellation floor (W_ii - w^T S^+ w):
  // Algorithm 2's exact basis select(rank) reads 7.6e-9 here, the greedy
  // prefix 9.1e-9, and one pivot fewer 2.4e-3.
  EXPECT_LE(err.eps_r, 1e-7);
}

TEST(Hybrid, SweepLeavesCallerSelectionUnchanged) {
  const Fixture f("s1196", 150);
  // Two selectors with the same history, except that the sweep runs on one.
  const SubsetSelector before = selector_of(*f.model);
  const PathSelectionResult p_before = path_only_of(before, f.t_cons);
  const SubsetSelector after = selector_of(*f.model);
  const PathSelectionResult p_after = path_only_of(after, f.t_cons);
  const PathSelectionResult p_copy = p_after;
  HybridOptions opt;
  opt.epsilon = kEps;
  (void)sweep_hybrid_selection(after, p_after, *f.model, f.t_cons, {0.04},
                               opt);
  EXPECT_EQ(p_after.representatives, p_copy.representatives);
  EXPECT_EQ(p_after.eps_r, p_copy.eps_r);
  const PathSelectionResult p_again = path_only_of(after, f.t_cons);
  EXPECT_EQ(p_again.representatives, p_before.representatives);
  EXPECT_EQ(p_again.eps_r, p_before.eps_r);
  // select(r) reads the largest capture made so far, so a sweep that grew
  // the capture would show here.
  const std::size_t r = before.rank() / 2;
  EXPECT_EQ(after.select(r), before.select(r));
}

TEST(Hybrid, SweepPicksMinimumCost) {
  const Fixture f("s1196", 120);
  const std::vector<double> sweep{0.02, 0.04, 0.06};
  const HybridResult best = f.sweep(sweep);
  for (double ep : sweep) {
    const HybridResult r = f.sweep({ep});
    EXPECT_LE(best.rep_paths.size() + best.rep_segments.size(),
              r.rep_paths.size() + r.rep_segments.size());
    EXPECT_LE(best.alg3_total, r.alg3_total);
  }
}

TEST(Hybrid, EmptySweepThrows) {
  const Fixture f("s1196", 30);
  EXPECT_THROW((void)f.sweep({}), std::invalid_argument);
}

TEST(Hybrid, Figure1NeedsAtMostThreeMeasurements) {
  circuit::Netlist nl = test::figure1_netlist();
  circuit::place(nl);
  const circuit::GateLibrary lib;
  const timing::TimingGraph tg(nl, lib);
  auto paths = timing::enumerate_worst_paths(tg, {.max_paths = 10});
  const auto dec = timing::extract_segments(nl, paths);
  const variation::SpatialModel spatial(3);
  const variation::VariationModel model(tg, spatial, paths, dec, {});
  double worst = 0.0;
  for (double mu : model.mu_paths()) worst = std::max(worst, mu);
  const SubsetSelector selector = selector_of(model);
  HybridOptions opt;
  opt.epsilon = kEps;
  const HybridResult r = sweep_hybrid_selection(
      selector, path_only_of(selector, worst), model, worst, {0.04}, opt);
  EXPECT_LE(r.rep_paths.size() + r.rep_segments.size(), 3u);
}

}  // namespace
}  // namespace repro::core
