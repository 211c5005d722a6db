#include "core/monte_carlo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "circuit/generator.h"
#include "circuit/placement.h"
#include "core/guardband.h"
#include "core/measurement.h"
#include "core/path_selection.h"
#include "dense_mc_reference.h"
#include "linalg/gemm.h"
#include "linalg/simd/dispatch.h"
#include "timing/segments.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "variation/variation_model.h"

namespace repro::core {
namespace {

namespace simd = linalg::simd;

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

using test::dense_die_chunks;
using test::RefErr;

void expect_same_bits(const linalg::Vector& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)),
            0)
      << what;
}

TEST(MonteCarlo, SparseEngineKeepsDenseBits) {
  // The engine multiplies row-compressed A_rem / A_meas; the reference runs
  // the dense products.  400 dies in chunks of 128 end in a 16-die tail
  // chunk, whose A_meas product falls below the SIMD threshold, so both
  // GEMM routes are compared on every tier the host runs.
  Fixture f;
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(5);
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  const RobustPredictor rp =
      make_robust_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  ASSERT_TRUE(rp.status.usable());
  const std::size_t n_rem = p.remaining.size();
  const std::size_t n_meas = p.mu_meas.size();
  McOptions opt;
  opt.samples = 400;
  opt.chunk = 128;
  opt.seed = 99;
  FaultyMcOptions fopt;
  fopt.mc = opt;
  fopt.faults.noise_sigma_frac = 0.01;
  fopt.faults.outlier_rate = 0.1;
  fopt.faults.dropout_rate = 0.1;
  const linalg::Matrix a_rem = f.model->a().select_rows(p.remaining);
  const linalg::Matrix a_meas = f.model->a().select_rows(p.measured_paths);
  ASSERT_EQ(a_meas.rows(), n_meas);  // a path predictor measures no segments
  const std::size_t tail = opt.samples % opt.chunk;
  const std::size_t m = f.model->num_params();
  ASSERT_GT(2 * n_meas * m * opt.chunk, 65'536u);
  ASSERT_LE(2 * n_meas * m * tail, 65'536u);

  const std::string before = simd::tier_name(simd::active_tier());
  for (simd::Tier t : simd::available_tiers()) {
    ASSERT_TRUE(simd::set_tier(simd::tier_name(t)));
    const std::string tier = simd::tier_name(t);

    // Clean: per-chunk slots merged in chunk order.
    RefErr clean(n_rem);
    dense_die_chunks(
        a_rem, a_meas, opt,
        [&](std::size_t, const linalg::Matrix& truth,
            const linalg::Matrix& meas) {
          const linalg::Matrix pred = linalg::multiply(p.coef, meas);
          RefErr part(n_rem);
          for (std::size_t i = 0; i < n_rem; ++i) {
            for (std::size_t j = 0; j < pred.cols(); ++j) {
              part.add(i, p.mu_rem[i] + pred(i, j), p.mu_rem[i] + truth(i, j));
            }
          }
          clean.merge(part);
        });
    for (double& v : clean.sum) v /= static_cast<double>(opt.samples);
    const McMetrics m = evaluate_predictor(*f.model, p, opt);
    expect_same_bits(m.eps_max, clean.max, tier + " clean eps_max");
    expect_same_bits(m.eps_mean, clean.sum, tier + " clean eps_mean");

    // Fault-injected robust policy, counters included.
    RefErr faulty(n_rem);
    std::size_t failed = 0, screened = 0, missing = 0, outliers = 0,
                screened_outlier = 0, dead = 0, dropout = 0;
    dense_die_chunks(
        a_rem, rp.a_meas, opt,
        [&](std::size_t first, const linalg::Matrix& truth,
            const linalg::Matrix& meas) {
          RefErr part(n_rem);
          linalg::Vector y(n_meas);
          for (std::size_t j = 0; j < meas.cols(); ++j) {
            for (std::size_t i = 0; i < n_meas; ++i) {
              y[i] = rp.base.mu_meas[i] + meas(i, j);
            }
            const NoisyMeasurements noisy =
                apply_faults(y, rp.base.mu_meas, fopt.faults, first + j);
            outliers += static_cast<std::size_t>(noisy.outliers);
            missing += static_cast<std::size_t>(noisy.dropped);
            dead += static_cast<std::size_t>(noisy.dead);
            dropout += static_cast<std::size_t>(noisy.dropout);
            const RobustPrediction pr = rp.predict(noisy.values, noisy.valid);
            screened += pr.screened.size();
            for (int sl : pr.screened) {
              screened_outlier +=
                  std::count(noisy.outlier_slots.begin(),
                             noisy.outlier_slots.end(), sl) > 0;
            }
            failed += pr.health == PredictorHealth::kFailed;
            for (std::size_t i = 0; i < n_rem; ++i) {
              part.add(i, pr.values[i], rp.base.mu_rem[i] + truth(i, j));
            }
          }
          faulty.merge(part);
        });
    for (double& v : faulty.sum) v /= static_cast<double>(opt.samples);
    const FaultyMcMetrics fm =
        evaluate_predictor_under_faults(*f.model, rp, fopt);
    expect_same_bits(fm.metrics.eps_max, faulty.max, tier + " faulty max");
    expect_same_bits(fm.metrics.eps_mean, faulty.sum, tier + " faulty mean");
    const auto per_die = [&](std::size_t n) {
      return static_cast<double>(n) / static_cast<double>(opt.samples);
    };
    EXPECT_EQ(fm.failed_dies, failed) << tier;
    EXPECT_EQ(fm.mean_screened, per_die(screened)) << tier;
    EXPECT_EQ(fm.mean_missing, per_die(missing)) << tier;
    EXPECT_EQ(fm.mean_outliers, per_die(outliers)) << tier;
    EXPECT_EQ(fm.mean_screened_outlier, per_die(screened_outlier)) << tier;
    EXPECT_EQ(fm.mean_screened_noise, per_die(screened - screened_outlier))
        << tier;
    EXPECT_EQ(fm.mean_dead, per_die(dead)) << tier;
    EXPECT_EQ(fm.mean_dropout, per_die(dropout)) << tier;
    EXPECT_GT(outliers + missing, 0u) << tier;  // the faults did fire
  }
  simd::set_tier(before);
}

TEST(MonteCarlo, ZeroSamplesReportZerosNotNaN) {
  Fixture f;
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto rep = sel.select(5);
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  const RobustPredictor rp =
      make_robust_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  ASSERT_TRUE(rp.status.usable());
  McOptions opt;
  opt.samples = 0;
  const auto expect_zero = [&](const McMetrics& m, const std::string& what) {
    EXPECT_EQ(m.samples, 0u) << what;
    EXPECT_EQ(m.e1, 0.0) << what;
    EXPECT_EQ(m.e2, 0.0) << what;
    EXPECT_EQ(m.worst_eps, 0.0) << what;
    ASSERT_EQ(m.eps_mean.size(), p.remaining.size()) << what;
    for (std::size_t i = 0; i < m.eps_mean.size(); ++i) {
      EXPECT_EQ(m.eps_max[i], 0.0) << what;
      EXPECT_EQ(m.eps_mean[i], 0.0) << what;
    }
  };
  expect_zero(evaluate_predictor(*f.model, p, opt), "clean");

  const GuardbandReport g = guardband_analysis(
      *f.model, p, linalg::Vector(p.remaining.size(), 0.05), 1.0, 0.05, opt);
  expect_zero(g.mc, "guardband");
  EXPECT_EQ(g.observations, 0u);
  EXPECT_EQ(g.flagged, 0u);

  FaultyMcOptions fopt;
  fopt.mc = opt;
  expect_zero(evaluate_predictor_under_faults(*f.model, rp, fopt).metrics,
              "faulty");

  StreamingMcOptions sopt;
  sopt.mc = opt;
  const StreamingMcMetrics sm =
      evaluate_predictor_streaming(*f.model, rp, sopt);
  expect_zero(sm.metrics, "streaming");
  EXPECT_EQ(sm.dies, 0u);
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
