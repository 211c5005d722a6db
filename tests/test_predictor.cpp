#include "core/predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/placement.h"
#include "linalg/gemm.h"
#include "test_helpers.h"
#include "timing/segments.h"
#include "util/rng.h"
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

TEST(Predictor, Figure1ThreePathsPredictTheFourthExactly) {
  // Paper Figure 1: measuring p2, p3, p4 predicts p1 with zero error
  // because d_p1 = d_p2 - d_p3 + d_p4.
  circuit::Netlist nl = test::figure1_netlist();
  circuit::place(nl);
  const circuit::GateLibrary lib;
  const timing::TimingGraph tg(nl, lib);
  auto paths = timing::enumerate_worst_paths(tg, {.max_paths = 10});
  ASSERT_EQ(paths.size(), 4u);
  const auto dec = timing::extract_segments(nl, paths);
  const variation::SpatialModel spatial(3);
  const variation::VariationModel model(tg, spatial, paths, dec, {});

  // Measure paths {1, 2, 3}; predict path 0.
  const LinearPredictor p =
      make_path_predictor(model.a(), model.mu_paths(), {1, 2, 3});
  ASSERT_EQ(p.remaining.size(), 1u);
  const linalg::Vector sig = p.error_sigmas();
  EXPECT_NEAR(sig[0], 0.0, 1e-9);

  // Monte-Carlo check of exactness.
  util::Rng rng(3);
  linalg::Vector x(model.num_params());
  for (int trial = 0; trial < 20; ++trial) {
    for (double& v : x) v = rng.normal();
    const linalg::Vector d = model.path_delays(x);
    const linalg::Vector meas{d[1], d[2], d[3]};
    const linalg::Vector pred = p.predict(meas);
    EXPECT_NEAR(pred[0], d[0], 1e-8);
  }
}

TEST(Predictor, ExactWhenMeasuringSpanningRows) {
  // Rank-3 A: any 3 independent measured rows predict all others exactly.
  const linalg::Matrix a =
      linalg::multiply(random_matrix(12, 3, 1), random_matrix(3, 20, 2));
  linalg::Vector mu(12, 100.0);
  const LinearPredictor p = make_path_predictor(a, mu, {0, 5, 9});
  const linalg::Vector sig = p.error_sigmas();
  for (double s : sig) EXPECT_NEAR(s, 0.0, 1e-7);
}

TEST(Predictor, ErrorSigmaMatchesMonteCarlo) {
  const linalg::Matrix a = random_matrix(8, 15, 3);
  linalg::Vector mu(8, 500.0);
  const LinearPredictor p = make_path_predictor(a, mu, {0, 1, 2});
  const linalg::Vector sig = p.error_sigmas();

  util::Rng rng(4);
  const std::size_t n = 20000;
  std::vector<double> err2(p.remaining.size(), 0.0);
  linalg::Vector x(15);
  for (std::size_t s = 0; s < n; ++s) {
    for (double& v : x) v = rng.normal();
    const linalg::Vector d = linalg::matvec(a, x);
    linalg::Vector meas(3);
    for (int k = 0; k < 3; ++k) {
      meas[static_cast<std::size_t>(k)] =
          mu[static_cast<std::size_t>(k)] + d[static_cast<std::size_t>(k)];
    }
    const linalg::Vector pred = p.predict(meas);
    for (std::size_t i = 0; i < p.remaining.size(); ++i) {
      const double truth =
          mu[static_cast<std::size_t>(p.remaining[i])] +
          d[static_cast<std::size_t>(p.remaining[i])];
      err2[i] += (pred[i] - truth) * (pred[i] - truth);
    }
  }
  for (std::size_t i = 0; i < err2.size(); ++i) {
    const double mc_sigma = std::sqrt(err2[i] / static_cast<double>(n));
    EXPECT_NEAR(mc_sigma, sig[i], 0.05 * sig[i] + 1e-9);
  }
}

TEST(Predictor, OptimalityAgainstPerturbedCoefficients) {
  // The Theorem-2 predictor minimizes MSE: any perturbation of coef must not
  // decrease the analytic error variance.
  const linalg::Matrix a = random_matrix(6, 10, 5);
  linalg::Vector mu(6, 0.0);
  const LinearPredictor p = make_path_predictor(a, mu, {0, 1});
  const linalg::Vector sig = p.error_sigmas();

  util::Rng rng(6);
  const linalg::Matrix a_r = a.select_rows(std::vector<int>{0, 1});
  const linalg::Matrix a_m = a.select_rows(p.remaining);
  for (int trial = 0; trial < 10; ++trial) {
    linalg::Matrix coef2 = p.coef;
    for (std::size_t i = 0; i < coef2.rows(); ++i) {
      for (std::size_t j = 0; j < coef2.cols(); ++j) {
        coef2(i, j) += 0.05 * rng.normal();
      }
    }
    linalg::Matrix omega2 = linalg::multiply(coef2, a_r);
    omega2 -= a_m;
    for (std::size_t i = 0; i < omega2.rows(); ++i) {
      EXPECT_GE(linalg::norm2(omega2.row(i)), sig[i] - 1e-9);
    }
  }
}

TEST(Predictor, PredictSizeMismatchThrows) {
  const linalg::Matrix a = random_matrix(5, 8, 7);
  const LinearPredictor p =
      make_path_predictor(a, linalg::Vector(5, 0.0), {0});
  EXPECT_THROW((void)p.predict(linalg::Vector{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Predictor, OutOfRangeRepresentativeThrows) {
  const linalg::Matrix a = random_matrix(5, 8, 7);
  const linalg::Vector mu(5, 0.0);
  EXPECT_THROW((void)make_path_predictor(a, mu, {5}), std::out_of_range);
  EXPECT_THROW((void)make_path_predictor(a, mu, {0, -1}), std::out_of_range);
  const linalg::Matrix sigma(3, 8);
  const linalg::Vector mu_seg(3, 0.0);
  EXPECT_THROW(
      (void)make_joint_predictor(a, mu, sigma, mu_seg, {0}, {3}, {1, 2}),
      std::out_of_range);
  EXPECT_THROW(
      (void)make_joint_predictor(a, mu, sigma, mu_seg, {0}, {1}, {1, 7}),
      std::out_of_range);
}

TEST(Predictor, JointPredictorMatchesPathOnlyWhenNoSegments) {
  const linalg::Matrix a = random_matrix(7, 12, 8);
  linalg::Vector mu(7, 10.0);
  const LinearPredictor path_only = make_path_predictor(a, mu, {1, 4});
  // Joint with empty segment list over the same remaining set: both run the
  // one Theorem-2 build on the same rows, so they agree bit for bit.
  const linalg::Matrix sigma(3, 12);  // unused rows
  const LinearPredictor joint =
      make_joint_predictor(a, mu, sigma, linalg::Vector(3, 0.0), {1, 4}, {},
                           path_only.remaining);
  EXPECT_EQ(linalg::max_abs_diff(path_only.coef, joint.coef), 0.0);
  EXPECT_EQ(path_only.error_sigmas(), joint.error_sigmas());
}

TEST(Predictor, SegmentsMeasurementsImprovePrediction) {
  // Knowing segment delays can only reduce (or keep) the analytic error.
  circuit::Netlist nl = test::figure1_netlist();
  circuit::place(nl);
  const circuit::GateLibrary lib;
  const timing::TimingGraph tg(nl, lib);
  auto paths = timing::enumerate_worst_paths(tg, {.max_paths = 10});
  const auto dec = timing::extract_segments(nl, paths);
  const variation::SpatialModel spatial(3);
  const variation::VariationModel model(tg, spatial, paths, dec, {});

  std::vector<int> remaining{0, 1};
  const LinearPredictor with_one_path = make_joint_predictor(
      model.a(), model.mu_paths(), model.sigma(), model.mu_segments(), {2},
      {}, remaining);
  std::vector<int> all_segs;
  for (std::size_t s = 0; s < model.num_segments(); ++s) {
    all_segs.push_back(static_cast<int>(s));
  }
  const LinearPredictor with_segs = make_joint_predictor(
      model.a(), model.mu_paths(), model.sigma(), model.mu_segments(), {2},
      all_segs, remaining);
  const linalg::Vector e1 = with_one_path.error_sigmas();
  const linalg::Vector e2 = with_segs.error_sigmas();
  for (std::size_t i = 0; i < remaining.size(); ++i) {
    EXPECT_LE(e2[i], e1[i] + 1e-9);
  }
  // Measuring *all* segments determines every path exactly.
  for (double s : e2) EXPECT_NEAR(s, 0.0, 1e-8);
}

TEST(Predictor, ParameterMismatchThrows) {
  const linalg::Matrix a = random_matrix(4, 6, 9);
  const linalg::Matrix sigma = random_matrix(3, 7, 10);
  EXPECT_THROW((void)make_joint_predictor(a, linalg::Vector(4, 0.0), sigma,
                                          linalg::Vector(3, 0.0), {0}, {0},
                                          {1, 2, 3}),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::core
