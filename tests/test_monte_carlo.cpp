#include "core/monte_carlo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <memory>

#include "circuit/generator.h"
#include "circuit/placement.h"
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

  explicit Fixture(std::size_t max_paths = 80)
      : nl(circuit::generate_benchmark("s1196")) {
    circuit::place(nl);
    tg = std::make_unique<timing::TimingGraph>(nl, lib);
    paths = timing::enumerate_worst_paths(*tg, {.max_paths = max_paths});
    dec = timing::extract_segments(nl, paths);
    spatial = std::make_unique<variation::SpatialModel>(3);
    model = std::make_unique<variation::VariationModel>(*tg, *spatial, paths,
                                                        dec, variation::VariationOptions{});
  }
};

TEST(MonteCarlo, ExactPredictorHasNearZeroError) {
  Fixture f;
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(sel.rank());
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  McOptions opt;
  opt.samples = 500;
  const McMetrics m = evaluate_predictor(*f.model, p, opt);
  EXPECT_LT(m.e1, 1e-6);
  EXPECT_LT(m.e2, 1e-6);
}

TEST(MonteCarlo, MetricsRelationships) {
  Fixture f;
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(std::max<std::size_t>(1, sel.rank() / 3));
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  McOptions opt;
  opt.samples = 1000;
  const McMetrics m = evaluate_predictor(*f.model, p, opt);
  // e2 (mean of means) <= e1 (mean of maxima) <= worst_eps (max of maxima).
  EXPECT_LE(m.e2, m.e1);
  EXPECT_LE(m.e1, m.worst_eps + 1e-15);
  EXPECT_EQ(m.samples, 1000u);
  EXPECT_EQ(m.eps_max.size(), p.remaining.size());
  for (std::size_t i = 0; i < m.eps_max.size(); ++i) {
    EXPECT_LE(m.eps_mean[i], m.eps_max[i] + 1e-15);
    EXPECT_GE(m.eps_mean[i], 0.0);
  }
}

TEST(MonteCarlo, DeterministicForSeed) {
  Fixture f;
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(5);
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  McOptions opt;
  opt.samples = 300;
  opt.seed = 77;
  const McMetrics m1 = evaluate_predictor(*f.model, p, opt);
  const McMetrics m2 = evaluate_predictor(*f.model, p, opt);
  EXPECT_DOUBLE_EQ(m1.e1, m2.e1);
  EXPECT_DOUBLE_EQ(m1.e2, m2.e2);
}

TEST(MonteCarlo, ChunkSizeDoesNotChangeResult) {
  Fixture f(40);
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(4);
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  McOptions a;
  a.samples = 400;
  a.chunk = 64;
  McOptions b = a;
  b.chunk = 400;
  // Same seed stream, same sample count: chunking is an implementation
  // detail and must not alter the statistics.
  const McMetrics ma = evaluate_predictor(*f.model, p, a);
  const McMetrics mb = evaluate_predictor(*f.model, p, b);
  EXPECT_NEAR(ma.e1, mb.e1, 1e-12);
  EXPECT_NEAR(ma.e2, mb.e2, 1e-12);

  // The fault-injected evaluator on the same engine: same dies and fault
  // schedules, so the counters match exactly.
  const RobustPredictor rp =
      make_robust_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  ASSERT_TRUE(rp.status.usable());
  FaultyMcOptions fa;
  fa.mc = a;
  fa.mc.chunk = 32;
  fa.faults.noise_sigma_frac = 0.01;
  fa.faults.outlier_rate = 0.1;
  fa.faults.dropout_rate = 0.1;
  FaultyMcOptions fb = fa;
  fb.mc.chunk = 300;
  const FaultyMcMetrics fma = evaluate_predictor_under_faults(*f.model, rp, fa);
  const FaultyMcMetrics fmb = evaluate_predictor_under_faults(*f.model, rp, fb);
  EXPECT_EQ(fma.failed_dies, fmb.failed_dies);
  EXPECT_EQ(fma.mean_screened, fmb.mean_screened);
  EXPECT_EQ(fma.mean_missing, fmb.mean_missing);
  EXPECT_EQ(fma.mean_outliers, fmb.mean_outliers);
  EXPECT_EQ(fma.mean_screened_outlier, fmb.mean_screened_outlier);
  EXPECT_EQ(fma.mean_screened_noise, fmb.mean_screened_noise);
  EXPECT_EQ(fma.mean_dead, fmb.mean_dead);
  EXPECT_EQ(fma.mean_dropout, fmb.mean_dropout);
  EXPECT_NEAR(fma.metrics.e1, fmb.metrics.e1, 1e-12);
  EXPECT_NEAR(fma.metrics.e2, fmb.metrics.e2, 1e-12);
}

TEST(MonteCarlo, BitIdenticalAcrossThreadCounts) {
  Fixture f;
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(5);
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  McOptions opt;
  opt.samples = 512;
  opt.chunk = 64;
  opt.seed = 123;
  const std::size_t saved_threads = util::thread_count();
  std::vector<McMetrics> runs;
  for (std::size_t nt : {1u, 4u, 8u}) {
    util::set_threads(nt);
    runs.push_back(evaluate_predictor(*f.model, p, opt));
  }
  util::set_threads(saved_threads);
  for (std::size_t k = 1; k < runs.size(); ++k) {
    // Exact double equality: parallel sampling must be bit-identical.
    EXPECT_EQ(runs[0].e1, runs[k].e1);
    EXPECT_EQ(runs[0].e2, runs[k].e2);
    EXPECT_EQ(runs[0].worst_eps, runs[k].worst_eps);
    ASSERT_EQ(runs[0].eps_max.size(), runs[k].eps_max.size());
    for (std::size_t i = 0; i < runs[0].eps_max.size(); ++i) {
      EXPECT_EQ(runs[0].eps_max[i], runs[k].eps_max[i]);
      EXPECT_EQ(runs[0].eps_mean[i], runs[k].eps_mean[i]);
    }
  }
}

TEST(MonteCarlo, MoreRepresentativesLowerError) {
  Fixture f;
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  McOptions opt;
  opt.samples = 800;
  double prev_e2 = 1e9;
  for (std::size_t r : {3u, 8u, 20u}) {
    if (r > sel.rank()) break;
    const LinearPredictor p = make_path_predictor(
        f.model->a(), f.model->mu_paths(), sel.select(r));
    const McMetrics m = evaluate_predictor(*f.model, p, opt);
    EXPECT_LT(m.e2, prev_e2 + 1e-12);
    prev_e2 = m.e2;
  }
}

TEST(MonteCarlo, McErrorConsistentWithAnalyticSigma) {
  // The analytic error sigma and the observed mean absolute error relate by
  // E|N(0,s)| = s * sqrt(2/pi); check within MC tolerance for a few paths.
  Fixture f;
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(6);
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  const linalg::Vector sig = p.error_sigmas();
  McOptions opt;
  opt.samples = 4000;
  const McMetrics m = evaluate_predictor(*f.model, p, opt);
  for (std::size_t i = 0; i < std::min<std::size_t>(5, sig.size()); ++i) {
    const double mu = p.mu_rem[i];
    const double expected_mean_rel =
        sig[i] * std::sqrt(2.0 / M_PI) / mu;  // delay ~ mu >> sigma
    if (expected_mean_rel < 1e-12) continue;
    EXPECT_NEAR(m.eps_mean[i], expected_mean_rel, 0.2 * expected_mean_rel);
  }
}

TEST(MonteCarlo, NoRemainingPathsThrows) {
  Fixture f(10);
  std::vector<int> all;
  for (std::size_t i = 0; i < f.paths.size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), all);
  EXPECT_THROW((void)evaluate_predictor(*f.model, p, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::core
