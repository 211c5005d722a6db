#include "core/predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "circuit/generator.h"
#include "circuit/placement.h"
#include "core/monte_carlo.h"
#include "core/subset_select.h"
#include "dense_mc_reference.h"
#include "linalg/gemm.h"
#include "timing/segments.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "variation/variation_model.h"

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

// ---------------------------------------------------------------------------
// Degenerate construction inputs: always a defined status, never a throw.
// ---------------------------------------------------------------------------

TEST(RobustPredictor, DegenerateInputsGiveDefinedFailedStatus) {
  const linalg::Matrix a = random_matrix(6, 10, 1);
  const linalg::Vector mu(6, 100.0);

  // Zero target paths / zero parameters.
  EXPECT_NO_THROW({
    const auto p = make_robust_path_predictor(linalg::Matrix(), {}, {0});
    EXPECT_EQ(p.status.health, PredictorHealth::kFailed);
    EXPECT_FALSE(p.status.message.empty());
  });
  EXPECT_NO_THROW({
    const auto p = make_robust_path_predictor(linalg::Matrix(6, 0),
                                              linalg::Vector(6, 0.0), {0});
    EXPECT_EQ(p.status.health, PredictorHealth::kFailed);
  });
  // mu size mismatch.
  {
    const auto p = make_robust_path_predictor(a, linalg::Vector(3, 0.0), {0});
    EXPECT_EQ(p.status.health, PredictorHealth::kFailed);
  }
  // No representative paths at all.
  {
    const auto p = make_robust_path_predictor(a, mu, {});
    EXPECT_EQ(p.status.health, PredictorHealth::kFailed);
    EXPECT_FALSE(p.status.usable());
  }
  // Out-of-range representative / dead indices.
  EXPECT_EQ(make_robust_path_predictor(a, mu, {99}).status.health,
            PredictorHealth::kFailed);
  EXPECT_EQ(make_robust_path_predictor(a, mu, {0}, {-1}).status.health,
            PredictorHealth::kFailed);
  // Every representative dead, nothing to promote.
  {
    const auto p = make_robust_path_predictor(a, mu, {0, 1}, {0, 1});
    EXPECT_EQ(p.status.health, PredictorHealth::kFailed);
    EXPECT_EQ(p.status.dropped_paths.size(), 2u);
  }
}

TEST(RobustPredictor, FailedPredictorPredictsNominal) {
  const linalg::Matrix a = random_matrix(4, 6, 2);
  const linalg::Vector mu{10.0, 20.0, 30.0, 40.0};
  const auto p = make_robust_path_predictor(a, mu, {});
  const RobustPrediction pr = p.predict(linalg::Vector{});
  EXPECT_EQ(pr.health, PredictorHealth::kFailed);
  EXPECT_EQ(pr.values, p.base.mu_rem);
}

TEST(RobustPredictor, EmptyRemainingSetIsOk) {
  // Measuring every path leaves nothing to predict: valid, empty prediction.
  const linalg::Matrix a = random_matrix(4, 8, 3);
  const linalg::Vector mu(4, 50.0);
  const auto p = make_robust_path_predictor(a, mu, {0, 1, 2, 3});
  EXPECT_EQ(p.status.health, PredictorHealth::kOk);
  EXPECT_TRUE(p.base.remaining.empty());
  linalg::Vector meas = p.base.mu_meas;
  const RobustPrediction pr = p.predict(meas);
  EXPECT_TRUE(pr.values.empty());
  EXPECT_EQ(pr.health, PredictorHealth::kOk);
}

TEST(RobustPredictor, RankDeficientGramIsRegularizedNotFatal) {
  // Rank-2 sensitivity matrix, 4 measured rows: the measured Gram is
  // singular; construction must degrade (reported ridge) instead of throwing.
  const linalg::Matrix a =
      linalg::multiply(random_matrix(8, 2, 4), random_matrix(2, 12, 5));
  const linalg::Vector mu(8, 200.0);
  RobustPredictor p;
  EXPECT_NO_THROW(p = make_robust_path_predictor(a, mu, {0, 1, 2, 3}));
  EXPECT_EQ(p.status.health, PredictorHealth::kDegraded);
  EXPECT_GT(p.status.ridge, 0.0);
  EXPECT_GT(p.status.gram_condition, kRobustMaxCondition);
  EXPECT_TRUE(p.status.usable());
  for (std::size_t i = 0; i < p.base.coef.rows(); ++i) {
    for (std::size_t j = 0; j < p.base.coef.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(p.base.coef(i, j)));
    }
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation: dead paths and backup promotion.
// ---------------------------------------------------------------------------

TEST(RobustPredictor, DeadPathDroppedAndBackupPromoted) {
  const linalg::Matrix a = random_matrix(10, 15, 6);
  const linalg::Vector mu(10, 300.0);
  RobustOptions opt;
  opt.backup_order = {0, 1, 2, 3, 4, 5, 6};  // pivot order stand-in
  const auto p = make_robust_path_predictor(a, mu, {0, 1, 2}, {1}, opt);
  EXPECT_EQ(p.status.health, PredictorHealth::kDegraded);
  ASSERT_EQ(p.status.dropped_paths, (std::vector<int>{1}));
  // First backup not already measured and not dead is 3.
  ASSERT_EQ(p.status.promoted_paths, (std::vector<int>{3}));
  EXPECT_EQ(p.base.measured_paths, (std::vector<int>{0, 2, 3}));
  // The dead path is now predicted, not measured.
  EXPECT_NE(std::find(p.base.remaining.begin(), p.base.remaining.end(), 1),
            p.base.remaining.end());
}

TEST(RobustPredictor, DuplicateRepresentativesPromoteOneBackupPerDeadPath) {
  // rep lists path 3 twice; path 5 is dead.  One slot needs refilling, so
  // exactly one backup is promoted even though rep.size() is 3.
  const linalg::Matrix a = random_matrix(10, 15, 13);
  const linalg::Vector mu(10, 300.0);
  RobustOptions opt;
  opt.backup_order = {0, 1, 2, 3, 4, 5, 6};
  const auto p = make_robust_path_predictor(a, mu, {3, 3, 5}, {5}, opt);
  EXPECT_EQ(p.status.health, PredictorHealth::kDegraded);
  EXPECT_EQ(p.status.dropped_paths, (std::vector<int>{5}));
  EXPECT_EQ(p.status.promoted_paths, (std::vector<int>{0}));
  EXPECT_EQ(p.base.measured_paths, (std::vector<int>{3, 0}));
}

TEST(RobustPredictor, NoBackupPromotionWithEmptyBackupOrder) {
  const linalg::Matrix a = random_matrix(10, 15, 7);
  const linalg::Vector mu(10, 300.0);
  const auto p = make_robust_path_predictor(a, mu, {0, 1, 2}, {1});
  EXPECT_TRUE(p.status.promoted_paths.empty());
  EXPECT_EQ(p.base.measured_paths, (std::vector<int>{0, 2}));
  EXPECT_EQ(p.status.health, PredictorHealth::kDegraded);
}

// ---------------------------------------------------------------------------
// Per-die robust prediction.
// ---------------------------------------------------------------------------

TEST(RobustPredictor, CleanMeasurementsMatchTheorem2) {
  // With no noise prior the robust path reduces to the optimal linear
  // predictor: identical predictions on exact measurements.
  const linalg::Matrix a = random_matrix(12, 20, 8);
  const linalg::Vector mu(12, 400.0);
  const std::vector<int> rep{0, 3, 5, 7};
  const LinearPredictor lp = make_path_predictor(a, mu, rep);
  const auto rp = make_robust_path_predictor(a, mu, rep);
  ASSERT_EQ(rp.status.health, PredictorHealth::kOk);

  util::Rng rng(80);
  linalg::Vector x(20);
  for (int trial = 0; trial < 10; ++trial) {
    for (double& v : x) v = rng.normal();
    const linalg::Vector d = linalg::matvec(a, x);
    linalg::Vector meas(rep.size());
    for (std::size_t k = 0; k < rep.size(); ++k) {
      meas[k] = mu[static_cast<std::size_t>(rep[k])] +
                d[static_cast<std::size_t>(rep[k])];
    }
    const linalg::Vector want = lp.predict(meas);
    const RobustPrediction got = rp.predict(meas);
    EXPECT_EQ(got.health, PredictorHealth::kOk);
    ASSERT_EQ(got.values.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(got.values[i], want[i], 1e-7);
    }
  }
}

TEST(RobustPredictor, SizeMismatchAndAllInvalidFallBackToNominal) {
  const linalg::Matrix a = random_matrix(8, 12, 9);
  const linalg::Vector mu(8, 250.0);
  const auto p = make_robust_path_predictor(a, mu, {0, 1, 2});
  // Wrong measurement count: nominal fallback, no throw.
  EXPECT_NO_THROW({
    const RobustPrediction pr = p.predict(linalg::Vector{1.0});
    EXPECT_EQ(pr.health, PredictorHealth::kFailed);
    EXPECT_EQ(pr.values, p.base.mu_rem);
  });
  // All slots invalid on this die.
  const linalg::Vector meas(3, 100.0);
  const std::vector<char> none(3, 0);
  const RobustPrediction pr = p.predict(meas, none);
  EXPECT_EQ(pr.health, PredictorHealth::kFailed);
  EXPECT_EQ(pr.values, p.base.mu_rem);
  EXPECT_EQ(pr.missing.size(), 3u);
}

TEST(RobustPredictor, NonFiniteMeasurementIsScreenedAsMissing) {
  const linalg::Matrix a = random_matrix(8, 12, 10);
  const linalg::Vector mu(8, 250.0);
  RobustOptions opt;
  opt.measurement_sigma_ps = 1.0;
  const auto p = make_robust_path_predictor(a, mu, {0, 1, 2, 3}, {}, opt);
  linalg::Vector meas = p.base.mu_meas;
  meas[1] = std::numeric_limits<double>::quiet_NaN();
  const RobustPrediction pr = p.predict(meas);
  EXPECT_EQ(pr.missing, (std::vector<int>{1}));
  EXPECT_EQ(pr.health, PredictorHealth::kDegraded);
  for (double v : pr.values) EXPECT_TRUE(std::isfinite(v));
}

TEST(RobustPredictor, GrossOutlierIsScreenedAndContained) {
  const linalg::Matrix a = random_matrix(14, 20, 11);
  const linalg::Vector mu(14, 500.0);
  const std::vector<int> rep{0, 2, 4, 6, 8, 10};
  RobustOptions opt;
  opt.measurement_sigma_ps = 1.0;
  const auto rp = make_robust_path_predictor(a, mu, rep, {}, opt);
  ASSERT_TRUE(rp.status.usable());

  util::Rng rng(110);
  linalg::Vector x(20);
  for (double& v : x) v = rng.normal();
  const linalg::Vector d = linalg::matvec(a, x);
  linalg::Vector clean(rep.size());
  for (std::size_t k = 0; k < rep.size(); ++k) {
    clean[k] = mu[static_cast<std::size_t>(rep[k])] +
               d[static_cast<std::size_t>(rep[k])];
  }
  const RobustPrediction base = rp.predict(clean);

  linalg::Vector corrupted = clean;
  corrupted[2] += 500.0;  // absurd tester reading on one slot
  const RobustPrediction robust = rp.predict(corrupted);
  EXPECT_NE(std::find(robust.screened.begin(), robust.screened.end(), 2),
            robust.screened.end());
  EXPECT_EQ(robust.health, PredictorHealth::kDegraded);

  // Naive linear map on the same corrupted vector, for contrast.
  const linalg::Vector naive = rp.base.predict(corrupted);
  double err_robust = 0.0, err_naive = 0.0;
  for (std::size_t i = 0; i < base.values.size(); ++i) {
    err_robust = std::max(err_robust,
                          std::abs(robust.values[i] - base.values[i]));
    err_naive = std::max(err_naive, std::abs(naive[i] - base.values[i]));
  }
  // Screening must keep the corrupted prediction close to the clean one
  // while the naive map is dragged far off by the outlier.
  EXPECT_LT(err_robust, 0.2 * err_naive);
}

TEST(RobustPredictor, MeasuredSpacePredictMatchesParameterSpaceFormula) {
  // predict() works through cross = A_meas A_rem^T; the parameter-space
  // formula mu_rem + A_rem A_kept^T z must agree on clean, missing-slot and
  // screened dies.
  const linalg::Matrix a = random_matrix(16, 24, 14);
  const linalg::Vector mu(16, 450.0);
  const std::vector<int> rep{0, 2, 4, 6, 8, 10, 12};
  RobustOptions opt;
  opt.measurement_sigma_ps = 1.0;
  const auto rp = make_robust_path_predictor(a, mu, rep, {}, opt);
  ASSERT_TRUE(rp.status.usable());

  util::Rng rng(140);
  linalg::Vector x(24);
  for (double& v : x) v = rng.normal();
  const linalg::Vector d = linalg::matvec(a, x);
  linalg::Vector clean(rep.size());
  for (std::size_t k = 0; k < rep.size(); ++k) {
    clean[k] = mu[static_cast<std::size_t>(rep[k])] +
               d[static_cast<std::size_t>(rep[k])] + rng.normal();
  }
  std::vector<char> one_missing(rep.size(), 1);
  one_missing[3] = 0;
  linalg::Vector outlier = clean;
  outlier[5] += 400.0;

  const auto check = [&](const RobustPrediction& got) {
    ASSERT_NE(got.health, PredictorHealth::kFailed);
    std::vector<int> kept;
    for (std::size_t i = 0; i < rep.size(); ++i) {
      const int slot = static_cast<int>(i);
      const auto out_of = [slot](const std::vector<int>& v) {
        return std::find(v.begin(), v.end(), slot) != v.end();
      };
      if (!out_of(got.missing) && !out_of(got.screened)) kept.push_back(slot);
    }
    ASSERT_EQ(got.dual.size(), kept.size());
    const linalg::Vector xk = linalg::matvec_transposed(
        rp.a_meas.select_rows(kept), got.dual);
    const linalg::Vector want =
        linalg::matvec(a.select_rows(rp.base.remaining), xk);
    ASSERT_EQ(got.values.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const double w = rp.base.mu_rem[i] + want[i];
      EXPECT_LE(std::abs(got.values[i] - w), 1e-12 * std::abs(w)) << i;
    }
  };
  const RobustPrediction on_clean = rp.predict(clean);
  EXPECT_EQ(on_clean.health, PredictorHealth::kOk);
  check(on_clean);
  const RobustPrediction on_missing = rp.predict(clean, one_missing);
  EXPECT_EQ(on_missing.missing, (std::vector<int>{3}));
  check(on_missing);
  const RobustPrediction on_outlier = rp.predict(outlier);
  EXPECT_EQ(on_outlier.screened, (std::vector<int>{5}));
  check(on_outlier);
}

TEST(RobustPredictor, ErrorSigmasInflatedByNoisePrior) {
  const linalg::Matrix a = random_matrix(10, 14, 12);
  const linalg::Vector mu(10, 350.0);
  RobustOptions opt;
  opt.measurement_sigma_ps = 5.0;
  const auto p = make_robust_path_predictor(a, mu, {0, 1, 2}, {}, opt);
  const linalg::Vector clean = p.base.error_sigmas();
  const linalg::Vector noisy = p.error_sigmas();
  ASSERT_EQ(clean.size(), noisy.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_GE(noisy[i], clean[i]);
  }
  EXPECT_GE(p.status.sigma_inflation, 1.0);
}

// ---------------------------------------------------------------------------
// Fault-injected Monte Carlo: determinism, degradation, robust vs naive.
// ---------------------------------------------------------------------------

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
    model = std::make_unique<variation::VariationModel>(
        *tg, *spatial, paths, dec, variation::VariationOptions{});
  }
};

RobustPredictor fixture_predictor(const Fixture& f, std::size_t n_rep,
                                  const FaultSpec& spec,
                                  const std::vector<int>& dead = {}) {
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto order = sel.select(std::min(sel.rank(), n_rep + 8));
  std::vector<int> rep(order.begin(),
                       order.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(n_rep, order.size())));
  RobustOptions opt;
  opt.backup_order = order;
  opt.measurement_sigma_ps =
      expected_noise_sigma(spec, f.model->mu_paths());
  return make_robust_path_predictor(f.model->a(), f.model->mu_paths(), rep,
                                    dead, opt);
}

TEST(FaultyMonteCarlo, BitIdenticalAcrossThreadCounts) {
  Fixture f;
  FaultyMcOptions opt;
  opt.mc.samples = 256;
  opt.mc.chunk = 32;
  opt.mc.seed = 123;
  opt.faults.noise_sigma_frac = 0.01;
  opt.faults.outlier_rate = 0.1;
  opt.faults.dropout_rate = 0.1;
  const RobustPredictor p = fixture_predictor(f, 8, opt.faults);
  ASSERT_TRUE(p.status.usable());

  const std::size_t saved_threads = util::thread_count();
  std::vector<FaultyMcMetrics> runs;
  for (std::size_t nt : {1u, 4u, 8u}) {
    util::set_threads(nt);
    runs.push_back(evaluate_predictor_under_faults(*f.model, p, opt));
  }
  util::set_threads(saved_threads);
  for (std::size_t k = 1; k < runs.size(); ++k) {
    // Exact equality: fault schedules and samples are keyed on the global
    // die index, partials reduced in fixed chunk order.
    EXPECT_EQ(runs[0].metrics.e1, runs[k].metrics.e1);
    EXPECT_EQ(runs[0].metrics.e2, runs[k].metrics.e2);
    EXPECT_EQ(runs[0].metrics.worst_eps, runs[k].metrics.worst_eps);
    EXPECT_EQ(runs[0].failed_dies, runs[k].failed_dies);
    EXPECT_EQ(runs[0].mean_screened, runs[k].mean_screened);
    EXPECT_EQ(runs[0].mean_missing, runs[k].mean_missing);
    EXPECT_EQ(runs[0].mean_outliers, runs[k].mean_outliers);
    ASSERT_EQ(runs[0].metrics.eps_max.size(), runs[k].metrics.eps_max.size());
    for (std::size_t i = 0; i < runs[0].metrics.eps_max.size(); ++i) {
      EXPECT_EQ(runs[0].metrics.eps_max[i], runs[k].metrics.eps_max[i]);
      EXPECT_EQ(runs[0].metrics.eps_mean[i], runs[k].metrics.eps_mean[i]);
    }
  }
}

TEST(FaultyMonteCarlo, CleanFaultsMatchCleanEvaluator) {
  // A clean FaultSpec and zero noise prior reproduce the classic protocol.
  Fixture f(40);
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(5);
  const LinearPredictor lp =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  const auto rp =
      make_robust_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  FaultyMcOptions opt;
  opt.mc.samples = 300;
  const McMetrics clean = evaluate_predictor(*f.model, lp, opt.mc);
  const FaultyMcMetrics faulty =
      evaluate_predictor_under_faults(*f.model, rp, opt);
  EXPECT_NEAR(faulty.metrics.e1, clean.e1, 1e-9);
  EXPECT_NEAR(faulty.metrics.e2, clean.e2, 1e-9);
  EXPECT_EQ(faulty.failed_dies, 0u);
  EXPECT_DOUBLE_EQ(faulty.mean_missing, 0.0);
}

TEST(FaultyMonteCarlo, RobustBeatsNaiveUnderOutliers) {
  Fixture f;
  FaultSpec spec;
  spec.noise_sigma_frac = 0.01;
  spec.outlier_rate = 0.2;
  spec.outlier_scale = 20.0;
  const RobustPredictor p = fixture_predictor(f, 8, spec);
  ASSERT_TRUE(p.status.usable());

  FaultyMcOptions robust_opt;
  robust_opt.mc.samples = 200;
  robust_opt.faults = spec;
  FaultyMcOptions naive_opt = robust_opt;
  naive_opt.naive = true;

  const FaultyMcMetrics robust =
      evaluate_predictor_under_faults(*f.model, p, robust_opt);
  const FaultyMcMetrics naive =
      evaluate_predictor_under_faults(*f.model, p, naive_opt);
  EXPECT_GT(robust.mean_screened, 0.0);
  EXPECT_GT(robust.mean_outliers, 0.0);
  EXPECT_LT(robust.metrics.e1, naive.metrics.e1);
  EXPECT_LT(robust.metrics.e2, naive.metrics.e2);
}

TEST(FaultyMonteCarlo, DeadRepPathDegradesGracefully) {
  Fixture f;
  FaultSpec spec = default_fault_spec();  // dead_slots = {0}
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto order = sel.select(std::min<std::size_t>(sel.rank(), 16));
  const std::vector<int> rep(order.begin(), order.begin() + 8);
  // The robust flow excludes the dead path at build time and evaluates with
  // the dead slot stripped from the schedule (the rebuilt predictor's
  // measurement vector no longer contains it).
  RobustOptions opt;
  opt.backup_order = order;
  opt.measurement_sigma_ps = expected_noise_sigma(spec, f.model->mu_paths());
  const auto p = make_robust_path_predictor(
      f.model->a(), f.model->mu_paths(), rep, {rep[0]}, opt);
  EXPECT_EQ(p.status.health, PredictorHealth::kDegraded);
  EXPECT_EQ(p.status.dropped_paths, (std::vector<int>{rep[0]}));
  EXPECT_EQ(p.status.promoted_paths.size(), 1u);

  FaultyMcOptions mc;
  mc.mc.samples = 200;
  mc.faults = without_dead_slots(spec);
  FaultyMcMetrics m;
  EXPECT_NO_THROW(m = evaluate_predictor_under_faults(*f.model, p, mc));
  EXPECT_EQ(m.failed_dies, 0u);
  EXPECT_GT(m.metrics.e1, 0.0);
  EXPECT_LT(m.metrics.e1, 1.0);  // still a sane predictor, not garbage
}

TEST(FaultyMonteCarlo, PerFaultModeBreakdownSplitsRejections) {
  Fixture f;
  FaultyMcOptions opt;
  opt.mc.samples = 256;
  opt.mc.seed = 5;
  opt.faults.noise_sigma_frac = 0.01;
  opt.faults.outlier_rate = 0.1;
  opt.faults.dropout_rate = 0.1;
  opt.faults.dead_slots = {0};
  // Build against the un-stripped schedule: slot 0 stays in the measurement
  // vector and is killed on every die, so mean_dead must be exactly 1.
  const RobustPredictor p = fixture_predictor(f, 8, opt.faults);
  ASSERT_TRUE(p.status.usable());

  util::telemetry::reset();
  const FaultyMcMetrics m = evaluate_predictor_under_faults(*f.model, p, opt);
  EXPECT_DOUBLE_EQ(m.mean_dead, 1.0);
  EXPECT_GT(m.mean_dropout, 0.0);
  // The per-mode splits tile the aggregates they refine.
  EXPECT_NEAR(m.mean_missing, m.mean_dead + m.mean_dropout, 1e-12);
  EXPECT_NEAR(m.mean_screened,
              m.mean_screened_outlier + m.mean_screened_noise, 1e-12);
  // 10x-sigma injected outliers, not plain sensor noise, dominate screening.
  EXPECT_GT(m.mean_screened_outlier, m.mean_screened_noise);

  // Telemetry mirrors the same per-mode counts (summed over dies).
  const auto snap = util::telemetry::snapshot();
  auto counter = [&](const std::string& name) -> double {
    for (const auto& c : snap.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    return -1.0;
  };
  const double n = static_cast<double>(opt.mc.samples);
  EXPECT_NEAR(counter("core.mc.reject_outlier"),
              m.mean_screened_outlier * n, 0.5);
  EXPECT_NEAR(counter("core.mc.reject_noise"),
              m.mean_screened_noise * n, 0.5);
  EXPECT_NEAR(counter("core.mc.slots_dead"), m.mean_dead * n, 0.5);
  EXPECT_NEAR(counter("core.mc.slots_dropout"), m.mean_dropout * n, 0.5);
}

TEST(FaultyMonteCarlo, AllSlotsDeadOrDroppedGivesStructuredFailure) {
  // Regression: a die with no usable slot must surface as a structured
  // failed prediction (nominal fallback + full missing list), never as a
  // degenerate zero-size solve.
  Fixture f;
  FaultyMcOptions opt;
  opt.mc.samples = 32;
  opt.mc.seed = 9;
  const RobustPredictor p = fixture_predictor(f, 8, opt.faults);
  ASSERT_TRUE(p.status.usable());
  const std::size_t n_meas = p.base.mu_meas.size();
  for (std::size_t i = 0; i < n_meas; ++i) {
    opt.faults.dead_slots.push_back(static_cast<int>(i));
  }

  // Die-level contract via the fault injector itself.
  const NoisyMeasurements nm =
      apply_faults(p.base.mu_meas, p.base.mu_meas, opt.faults, 0);
  EXPECT_EQ(static_cast<std::size_t>(nm.dead), n_meas);
  const RobustPrediction rp = p.predict(nm.values, nm.valid);
  EXPECT_EQ(rp.health, PredictorHealth::kFailed);
  EXPECT_EQ(rp.missing.size(), n_meas);
  for (double v : rp.values) EXPECT_TRUE(std::isfinite(v));

  // Evaluation-level contract: every die fails, metrics stay finite.
  FaultyMcMetrics m;
  EXPECT_NO_THROW(m = evaluate_predictor_under_faults(*f.model, p, opt));
  EXPECT_EQ(m.failed_dies, opt.mc.samples);
  EXPECT_DOUBLE_EQ(m.mean_dead, static_cast<double>(n_meas));
  EXPECT_TRUE(std::isfinite(m.metrics.e1));

  // Same through per-die dropout instead of the static dead list.
  FaultyMcOptions drop;
  drop.mc.samples = 32;
  drop.faults.dropout_rate = 1.0;
  EXPECT_NO_THROW(m = evaluate_predictor_under_faults(*f.model, p, drop));
  EXPECT_EQ(m.failed_dies, drop.mc.samples);
  EXPECT_DOUBLE_EQ(m.mean_dropout, static_cast<double>(n_meas));
}

TEST(FaultyMonteCarlo, NoLinalgEscapeOnPathologicalInputs) {
  // Rank-deficient sensitivities + full dropout + dead slots: the evaluation
  // must stay defined (possibly all-failed dies), never throw.
  const linalg::Matrix a =
      linalg::multiply(random_matrix(10, 2, 13), random_matrix(2, 8, 14));
  const linalg::Vector mu(10, 100.0);
  const auto p = make_robust_path_predictor(a, mu, {0, 1, 2, 3});
  EXPECT_TRUE(p.status.usable());  // degraded via ridge, but usable

  Fixture f(20);
  // Unusable predictor: every die is a failed die, metrics stay zero.
  const auto failed =
      make_robust_path_predictor(f.model->a(), f.model->mu_paths(), {});
  FaultyMcOptions opt;
  opt.mc.samples = 50;
  opt.faults = default_fault_spec();
  FaultyMcMetrics m;
  EXPECT_NO_THROW(m = evaluate_predictor_under_faults(*f.model, failed, opt));
  EXPECT_EQ(m.failed_dies, 50u);
  EXPECT_EQ(m.metrics.e1, 0.0);

  // Full dropout on a usable predictor: all dies fall back to nominal.
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto rp = make_robust_path_predictor(f.model->a(),
                                             f.model->mu_paths(), sel.select(4));
  FaultyMcOptions drop;
  drop.mc.samples = 50;
  drop.faults.dropout_rate = 1.0;
  EXPECT_NO_THROW(m = evaluate_predictor_under_faults(*f.model, rp, drop));
  EXPECT_EQ(m.failed_dies, 50u);

  // Zero samples: defined empty result.
  FaultyMcOptions none;
  none.mc.samples = 0;
  EXPECT_NO_THROW(m = evaluate_predictor_under_faults(*f.model, rp, none));
  EXPECT_EQ(m.metrics.samples, 0u);
}

// ---------------------------------------------------------------------------
// One Theorem-2 build: the robust builder's base is the clean predictor, and
// the evaluators that read their rows from the model keep the bits they had
// when they read dense copies held by the predictor.
// ---------------------------------------------------------------------------

bool same_bits(std::span<const double> got, std::span<const double> want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size() * sizeof(double)) ==
             0;
}

// A predictor's measured and remaining rows of A, copied densely: the
// sensitivities the evaluators used to read from the predictor.
struct DenseRows {
  linalg::Matrix rem, meas;
  DenseRows(const linalg::Matrix& a, const LinearPredictor& p)
      : rem(a.select_rows(p.remaining)),
        meas(a.select_rows(p.measured_paths)) {}
};

struct ParityFixture {
  Fixture f;
  std::vector<int> rep;
  RobustOptions opt;
  ParityFixture() {
    const SubsetSelector sel =
        make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
    rep = sel.select(std::min<std::size_t>(sel.rank(), 8));
    opt.backup_order = sel.greedy_order(sel.gram());
    opt.measurement_sigma_ps =
        expected_noise_sigma(default_fault_spec(), f.model->mu_paths());
  }
  RobustPredictor robust() const {
    return make_robust_path_predictor(f.model->a(), f.model->mu_paths(), rep,
                                      {}, opt);
  }
};

TEST(TheoremTwoBuild, RobustBaseIsTheCleanPredictorBitForBit) {
  const ParityFixture pf;
  const linalg::Matrix& a = pf.f.model->a();
  const LinearPredictor lp =
      make_path_predictor(a, pf.f.model->mu_paths(), pf.rep);
  const RobustPredictor rp = pf.robust();
  // Well conditioned and no dead path: the robust policy keeps the plain
  // Cholesky factor, so both builds solve against the same factor.
  ASSERT_EQ(rp.status.health, PredictorHealth::kOk);
  EXPECT_EQ(rp.status.ridge, 0.0);
  const LinearPredictor& base = rp.base;
  EXPECT_EQ(base.measured_paths, lp.measured_paths);
  EXPECT_EQ(base.remaining, lp.remaining);
  EXPECT_TRUE(base.measured_segments.empty());
  EXPECT_EQ(base.coef.rows(), lp.coef.rows());
  EXPECT_EQ(base.coef.cols(), lp.coef.cols());
  EXPECT_TRUE(same_bits(base.coef.data(), lp.coef.data()));
  EXPECT_TRUE(same_bits(base.mu_meas, lp.mu_meas));
  EXPECT_TRUE(same_bits(base.mu_rem, lp.mu_rem));
  EXPECT_TRUE(same_bits(base.error_sigmas(), lp.error_sigmas()));

  // Both equal the row norms of Omega = coef * A_r - A_rem (Eqn (6)).
  const DenseRows rows(a, lp);
  linalg::Matrix omega = linalg::multiply(lp.coef, rows.meas);
  omega -= rows.rem;
  std::vector<double> want(omega.rows());
  for (std::size_t i = 0; i < omega.rows(); ++i) {
    want[i] = linalg::norm2(omega.row(i));
  }
  EXPECT_TRUE(same_bits(lp.error_sigmas(), want));
  EXPECT_TRUE(same_bits(base.error_sigmas(), want));

  // The kept blocks: A_r, its Gram, the cross block and ||a_i||^2.
  EXPECT_TRUE(same_bits(rp.a_meas.data(), rows.meas.data()));
  EXPECT_TRUE(same_bits(rp.gram_meas.data(), linalg::gram(rows.meas).data()));
  EXPECT_TRUE(same_bits(rp.cross.data(),
                        linalg::multiply_bt(rows.rem, rows.meas)
                            .transposed()
                            .data()));
  std::vector<double> norm2(rows.rem.rows());
  for (std::size_t i = 0; i < rows.rem.rows(); ++i) {
    norm2[i] = linalg::dot(rows.rem.row(i), rows.rem.row(i));
  }
  EXPECT_TRUE(same_bits(rp.rem_norm2, norm2));
}

TEST(TheoremTwoBuild, FaultyEvaluatorKeepsDenseRowBits) {
  const ParityFixture pf;
  const RobustPredictor rp = pf.robust();
  ASSERT_TRUE(rp.status.usable());
  const DenseRows rows(pf.f.model->a(), rp.base);
  const std::size_t n_rem = rp.base.remaining.size();
  const std::size_t n_meas = rp.base.mu_meas.size();
  FaultyMcOptions opt;
  opt.mc.samples = 300;
  opt.mc.chunk = 64;
  opt.mc.seed = 77;
  opt.faults = default_fault_spec();
  opt.faults.outlier_rate = 0.1;
  opt.faults.dropout_rate = 0.1;

  for (const bool naive : {false, true}) {
    opt.naive = naive;
    test::RefErr want(n_rem);
    std::size_t failed = 0;
    const auto score = [&](std::size_t first, const linalg::Matrix& truth,
                           const linalg::Matrix& meas) {
      test::RefErr part(n_rem);
      linalg::Vector clean(n_meas);
      for (std::size_t j = 0; j < meas.cols(); ++j) {
        for (std::size_t i = 0; i < n_meas; ++i) {
          clean[i] = rp.base.mu_meas[i] + meas(i, j);
        }
        const NoisyMeasurements noisy =
            apply_faults(clean, rp.base.mu_meas, opt.faults, first + j);
        linalg::Vector pred;
        if (naive) {
          linalg::Vector centered(n_meas, 0.0);
          for (std::size_t i = 0; i < n_meas; ++i) {
            if (noisy.valid[i]) {
              centered[i] = noisy.values[i] - rp.base.mu_meas[i];
            }
          }
          pred = linalg::matvec(rp.base.coef, centered);
          for (std::size_t i = 0; i < n_rem; ++i) pred[i] += rp.base.mu_rem[i];
        } else {
          RobustPrediction r = rp.predict(noisy.values, noisy.valid);
          failed += r.health == PredictorHealth::kFailed;
          pred = std::move(r.values);
        }
        for (std::size_t i = 0; i < n_rem; ++i) {
          part.add(i, pred[i], rp.base.mu_rem[i] + truth(i, j));
        }
      }
      want.merge(part);
    };
    test::dense_die_chunks(rows.rem, rows.meas, opt.mc, score);
    const FaultyMcMetrics got =
        evaluate_predictor_under_faults(*pf.f.model, rp, opt);
    EXPECT_TRUE(same_bits(got.metrics.eps_max, want.max)) << naive;
    EXPECT_TRUE(same_bits(got.metrics.eps_mean, want.mean(opt.mc.samples)))
        << naive;
    if (!naive) {
      EXPECT_EQ(got.failed_dies, failed);
    }
  }
}

TEST(TheoremTwoBuild, StreamingEvaluatorKeepsDenseRowBitsUnderDrift) {
  const ParityFixture pf;
  const RobustPredictor rp = pf.robust();
  ASSERT_TRUE(rp.status.usable());
  const DenseRows rows(pf.f.model->a(), rp.base);
  const std::size_t n_rem = rp.base.remaining.size();
  const std::size_t n_meas = rp.base.mu_meas.size();
  const std::size_t m = pf.f.model->num_params();
  StreamingMcOptions opt;
  opt.mc.samples = 240;
  opt.mc.chunk = 32;
  opt.mc.seed = 78;
  opt.faults = default_fault_spec();
  opt.drift.start_die = 120;
  opt.drift.magnitude = 3.0;

  // The drift images as matrix-vector products on the dense rows.
  const linalg::Vector delta(
      m, opt.drift.magnitude / std::sqrt(static_cast<double>(m)));
  const linalg::Vector drift_meas = linalg::matvec(rows.meas, delta);
  const linalg::Vector drift_rem = linalg::matvec(rows.rem, delta);
  StreamingCalibrator cal(rp, opt.stream);
  test::RefErr want(n_rem);
  std::vector<double> guard, drift;
  const auto score = [&](std::size_t first, const linalg::Matrix& truth,
                         const linalg::Matrix& meas) {
    linalg::Vector clean(n_meas);
    for (std::size_t j = 0; j < meas.cols(); ++j) {
      const std::size_t die = first + j;
      const bool drifted = die >= opt.drift.start_die;
      for (std::size_t i = 0; i < n_meas; ++i) {
        clean[i] = rp.base.mu_meas[i] + meas(i, j) +
                   (drifted ? drift_meas[i] : 0.0);
      }
      const NoisyMeasurements noisy =
          apply_faults(clean, rp.base.mu_meas, opt.faults, die);
      const DieRecord rec = cal.observe(die, noisy.values, noisy.valid);
      guard.push_back(rec.guardband);
      drift.push_back(rec.drift_score);
      if (rec.predicted.size() != n_rem) continue;
      for (std::size_t i = 0; i < n_rem; ++i) {
        want.add(i, rec.predicted[i],
                 rp.base.mu_rem[i] + truth(i, j) +
                     (drifted ? drift_rem[i] : 0.0));
      }
    }
  };
  test::dense_die_chunks(rows.rem, rows.meas, opt.mc, score);

  const StreamingMcMetrics got =
      evaluate_predictor_streaming(*pf.f.model, rp, opt);
  EXPECT_TRUE(same_bits(got.metrics.eps_max, want.max));
  EXPECT_TRUE(same_bits(got.metrics.eps_mean, want.mean(opt.mc.samples)));
  EXPECT_TRUE(same_bits(got.guardband_trajectory, guard));
  EXPECT_TRUE(same_bits(got.drift_trajectory, drift));
  EXPECT_EQ(got.drift_flag_die, cal.status().drift_flag_die);
  EXPECT_EQ(got.final_guardband, cal.guardband());
}

}  // namespace
}  // namespace repro::core
