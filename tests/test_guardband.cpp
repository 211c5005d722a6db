#include "core/guardband.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <memory>

#include "circuit/generator.h"
#include "circuit/placement.h"
#include "core/error_model.h"
#include "core/path_selection.h"
#include "linalg/gemm.h"
#include "timing/segments.h"
#include "util/thread_pool.h"
#include "variation/variation_model.h"

namespace repro::core {
namespace {

struct Fixture {
  circuit::Netlist nl;
  circuit::GateLibrary lib;
  std::unique_ptr<timing::TimingGraph> tg;
  std::vector<timing::Path> paths;
  timing::SegmentDecomposition dec;
  std::unique_ptr<variation::SpatialModel> spatial;
  std::unique_ptr<variation::VariationModel> model;
  double t_cons = 0.0;

  Fixture() : nl(circuit::generate_benchmark("s1196")) {
    circuit::place(nl);
    tg = std::make_unique<timing::TimingGraph>(nl, lib);
    paths = timing::enumerate_worst_paths(*tg, {.max_paths = 80});
    dec = timing::extract_segments(nl, paths);
    spatial = std::make_unique<variation::SpatialModel>(3);
    model = std::make_unique<variation::VariationModel>(*tg, *spatial, paths,
                                                        dec, variation::VariationOptions{});
    // Set Tcons slightly above the worst nominal so that both failing and
    // passing samples occur.
    double worst = 0.0;
    for (double mu : model->mu_paths()) worst = std::max(worst, mu);
    t_cons = 1.02 * worst;
  }
};

TEST(Guardband, NoMissedFailuresWithWorstCaseBands) {
  Fixture f;
  PathSelectionOptions psel;
  psel.epsilon = 0.05;
  const PathSelectionResult sel =
      select_representative_paths(f.model->a(), f.t_cons, psel);
  const LinearPredictor p = make_path_predictor(
      f.model->a(), f.model->mu_paths(), sel.representatives);
  McOptions opt;
  opt.samples = 2000;
  const GuardbandReport rep = guardband_analysis(
      *f.model, p, sel.errors.per_path_eps, f.t_cons, psel.epsilon, opt);
  // The per-path guard-band is a kappa=3 worst case; missed failures should
  // be essentially absent.
  EXPECT_LE(rep.missed, rep.observations / 10000 + 1);
  EXPECT_GT(rep.observations, 0u);
}

TEST(Guardband, FlaggedSupersetOfTrueFailsApproximately) {
  Fixture f;
  PathSelectionOptions psel;
  psel.epsilon = 0.05;
  const PathSelectionResult sel =
      select_representative_paths(f.model->a(), f.t_cons, psel);
  const LinearPredictor p = make_path_predictor(
      f.model->a(), f.model->mu_paths(), sel.representatives);
  McOptions opt;
  opt.samples = 1500;
  const GuardbandReport rep = guardband_analysis(
      *f.model, p, sel.errors.per_path_eps, f.t_cons, psel.epsilon, opt);
  EXPECT_GE(rep.flagged + rep.missed, rep.true_fails);
  // Sanity: confusion counts are consistent.
  EXPECT_EQ(rep.flagged - rep.false_alarms + rep.missed, rep.true_fails);
}

TEST(Guardband, AverageBelowEpsilon) {
  Fixture f;
  PathSelectionOptions psel;
  psel.epsilon = 0.05;
  const PathSelectionResult sel =
      select_representative_paths(f.model->a(), f.t_cons, psel);
  const LinearPredictor p = make_path_predictor(
      f.model->a(), f.model->mu_paths(), sel.representatives);
  McOptions opt;
  opt.samples = 500;
  const GuardbandReport rep = guardband_analysis(
      *f.model, p, sel.errors.per_path_eps, f.t_cons, psel.epsilon, opt);
  // Section 6.3: the average guard-band is below the configured tolerance.
  EXPECT_LE(rep.avg_guardband, psel.epsilon + 1e-12);
  EXPECT_LE(rep.max_guardband, psel.epsilon + 1e-12);
  // MC e1 (observed) is below the analytic worst case on average.
  EXPECT_LE(rep.mc.e1, rep.max_guardband + 0.01);
}

TEST(Guardband, ZeroGuardbandFlagsOnlyPredictedFails) {
  Fixture f;
  const SubsetSelector selector =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto rep_paths = selector.select(selector.rank());
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep_paths);
  // Exact predictor + zero guard band: flagged == true fails.
  linalg::Vector zeros(p.remaining.size(), 0.0);
  McOptions opt;
  opt.samples = 800;
  const GuardbandReport rep =
      guardband_analysis(*f.model, p, zeros, f.t_cons, 0.0, opt);
  EXPECT_EQ(rep.missed, 0u);
  EXPECT_EQ(rep.false_alarms, 0u);
  EXPECT_EQ(rep.flagged, rep.true_fails);
}

TEST(Guardband, SameDiesAsEvaluatePredictorForAnyThreadsAndChunk) {
  Fixture f;
  PathSelectionOptions psel;
  psel.epsilon = 0.05;
  const PathSelectionResult sel =
      select_representative_paths(f.model->a(), f.t_cons, psel);
  const LinearPredictor p = make_path_predictor(
      f.model->a(), f.model->mu_paths(), sel.representatives);
  McOptions opt;
  opt.samples = 600;
  opt.seed = 42;
  const auto run = [&](const McOptions& o) {
    return guardband_analysis(*f.model, p, sel.errors.per_path_eps, f.t_cons,
                              psel.epsilon, o);
  };

  // The MC metrics are Table 1's evaluator, field for field.
  const GuardbandReport ref = run(opt);
  const McMetrics mc = evaluate_predictor(*f.model, p, opt);
  EXPECT_EQ(ref.mc.e1, mc.e1);
  EXPECT_EQ(ref.mc.e2, mc.e2);
  EXPECT_EQ(ref.mc.worst_eps, mc.worst_eps);
  EXPECT_EQ(ref.mc.samples, mc.samples);
  EXPECT_EQ(ref.mc.eps_max, mc.eps_max);
  EXPECT_EQ(ref.mc.eps_mean, mc.eps_mean);
  ASSERT_GT(ref.true_fails, 0u);

  const auto expect_same_counts = [&](const GuardbandReport& r) {
    EXPECT_EQ(r.true_fails, ref.true_fails);
    EXPECT_EQ(r.flagged, ref.flagged);
    EXPECT_EQ(r.missed, ref.missed);
    EXPECT_EQ(r.false_alarms, ref.false_alarms);
    EXPECT_EQ(r.observations, ref.observations);
  };
  const std::size_t saved_threads = util::thread_count();
  for (std::size_t nt : {1u, 4u, 8u}) {
    util::set_threads(nt);
    expect_same_counts(run(opt));
  }
  util::set_threads(saved_threads);
  // chunk = 0 is clamped to one die per chunk (it used to hang).
  for (std::size_t chunk : {0u, 64u, 256u}) {
    McOptions o = opt;
    o.chunk = chunk;
    expect_same_counts(run(o));
  }
}

TEST(AdaptiveGuardband, CombinesBaseAndShiftAndShrinksWithInformation) {
  const std::vector<double> base = {3.0, 4.0};
  const std::vector<double> mu = {100.0, 200.0};
  const double kappa = 3.0;

  // No shift variance: reduces to the batch analytic guard-band.
  const AdaptiveGuardband batch =
      adaptive_guardband(base, std::vector<double>{0.0, 0.0}, mu, kappa);
  EXPECT_NEAR(batch.eps, 0.5 * (kappa * 3.0 / 100.0 + kappa * 4.0 / 200.0),
              1e-12);
  EXPECT_NEAR(batch.max_eps, kappa * 3.0 / 100.0, 1e-12);
  EXPECT_DOUBLE_EQ(batch.shift_share, 0.0);

  // 3-4-5: sigma_0 = sqrt(3^2 + 4^2) = 5.
  const AdaptiveGuardband wide =
      adaptive_guardband(base, std::vector<double>{16.0, 9.0}, mu, kappa);
  EXPECT_NEAR(wide.max_eps, kappa * 5.0 / 100.0, 1e-12);
  EXPECT_GT(wide.eps, batch.eps);
  EXPECT_GT(wide.shift_share, 0.0);

  // Shrinking q (an accepted die) can only tighten the band.
  const AdaptiveGuardband tighter =
      adaptive_guardband(base, std::vector<double>{4.0, 1.0}, mu, kappa);
  EXPECT_LT(tighter.eps, wide.eps);
  EXPECT_GE(tighter.eps, batch.eps);

  // Empty inputs yield a zero guard-band, not a divide-by-zero.
  const AdaptiveGuardband empty = adaptive_guardband({}, {}, {}, kappa);
  EXPECT_DOUBLE_EQ(empty.eps, 0.0);
  EXPECT_DOUBLE_EQ(empty.max_eps, 0.0);
}

TEST(Guardband, SizeMismatchThrows) {
  Fixture f;
  const SubsetSelector selector =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const LinearPredictor p = make_path_predictor(
      f.model->a(), f.model->mu_paths(), selector.select(3));
  EXPECT_THROW((void)guardband_analysis(*f.model, p, linalg::Vector(2, 0.0),
                                        f.t_cons, 0.05, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::core
