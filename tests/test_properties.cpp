// Parameterized property sweeps across shapes, tolerances and benchmarks.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "circuit/generator.h"
#include "circuit/placement.h"
#include "core/error_model.h"
#include "core/path_selection.h"
#include "core/predictor.h"
#include "core/subset_select.h"
#include "linalg/gemm.h"
#include "linalg/qr_colpivot.h"
#include "timing/segments.h"
#include "timing/sta.h"
#include "util/rng.h"
#include "variation/variation_model.h"

namespace repro {
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

// ---------- Selector rank/spectrum sweep over shapes ----------

// Every shape, down to a single path, takes the selector's one Gram route:
// rank from the pivoted Cholesky of W, spectrum from the randomized capture.
class SelectorShapeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SelectorShapeProperty, RankSpectrumAndExactSelection) {
  const auto [rows, cols, rank_cap] = GetParam();
  const std::size_t r = static_cast<std::size_t>(rows);
  const std::size_t c = static_cast<std::size_t>(cols);
  linalg::Matrix a;
  std::size_t expected_rank;
  if (rank_cap > 0 && static_cast<std::size_t>(rank_cap) < std::min(r, c)) {
    a = linalg::multiply(
        random_matrix(r, static_cast<std::size_t>(rank_cap), 11),
        random_matrix(static_cast<std::size_t>(rank_cap), c, 13));
    expected_rank = static_cast<std::size_t>(rank_cap);
  } else {
    a = random_matrix(r, c, 17);
    expected_rank = std::min(r, c);
  }
  const core::SubsetSelector sel =
      core::make_subset_selector(a, linalg::gram(a));
  EXPECT_EQ(sel.rank(), expected_rank);
  // The captured spectrum holds all of A's energy: sum s_k^2 = ||A||_F^2.
  const linalg::Vector& s = sel.singular_values();
  ASSERT_GE(s.size(), sel.rank());
  double energy = 0.0;
  for (double v : s) energy += v * v;
  const double frob2 = a.frobenius_norm() * a.frobenius_norm();
  EXPECT_NEAR(energy, frob2, 1e-10 * frob2);
  for (std::size_t k = 1; k < s.size(); ++k) EXPECT_LE(s[k], s[k - 1]);
  // Theorem 1: the exact selection's rows are independent.
  const linalg::Matrix a_r = a.select_rows(sel.select(sel.rank()));
  EXPECT_EQ(linalg::qrcp_rank(linalg::qr_colpivot(a_r)), expected_rank);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SelectorShapeProperty,
    ::testing::Values(std::make_tuple(1, 1, 0), std::make_tuple(5, 5, 0),
                      std::make_tuple(20, 5, 0), std::make_tuple(5, 20, 0),
                      std::make_tuple(40, 40, 0), std::make_tuple(33, 17, 4),
                      std::make_tuple(17, 33, 4), std::make_tuple(50, 8, 2),
                      std::make_tuple(8, 50, 2), std::make_tuple(64, 63, 0)));

// ---------- Selection tolerance sweep ----------

class ToleranceProperty : public ::testing::TestWithParam<double> {};

TEST_P(ToleranceProperty, SelectionMeetsToleranceAndShrinks) {
  const double eps = GetParam();
  // Correlated rows with noise: realistic decay.
  util::Rng rng(23);
  const linalg::Matrix base = random_matrix(5, 30, 29);
  linalg::Matrix a(45, 30);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t d = 0; d < 5; ++d) {
      linalg::axpy(rng.uniform(0.2, 1.0), base.row(d), a.row(i));
    }
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) += 0.05 * rng.normal();
  }
  core::PathSelectionOptions opt;
  opt.epsilon = eps;
  const core::PathSelectionResult r =
      core::select_representative_paths(a, 2000.0, opt);
  EXPECT_LE(r.eps_r, eps);
  EXPECT_LE(r.representatives.size(), r.exact_rank);
  // Verify with the independent (non-Gram) predictor construction.
  const core::LinearPredictor p = core::make_path_predictor(
      a, linalg::Vector(a.rows(), 0.0), r.representatives);
  const linalg::Vector sig = p.error_sigmas();
  for (double s : sig) EXPECT_LE(3.0 * s / 2000.0, eps + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, ToleranceProperty,
                         ::testing::Values(0.005, 0.01, 0.02, 0.05, 0.08,
                                           0.12));

// ---------- Full-model invariants across benchmarks ----------

class BenchmarkProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchmarkProperty, ModelFactorizationInvariants) {
  const std::string name = GetParam();
  circuit::Netlist nl = circuit::generate_benchmark(name);
  circuit::place(nl);
  const circuit::GateLibrary lib;
  const timing::TimingGraph tg(nl, lib);
  const auto paths = timing::enumerate_worst_paths(tg, {.max_paths = 120});
  ASSERT_FALSE(paths.empty());
  const auto dec = timing::extract_segments(nl, paths);
  const variation::SpatialModel spatial(3);
  const variation::VariationModel model(tg, spatial, paths, dec, {});

  // A = G Sigma and mu_P = G mu_S, exactly: row i of G has ones at
  // path_segments()[i].
  ASSERT_EQ(model.path_segments().size(), model.num_paths());
  for (std::size_t i = 0; i < model.num_paths(); ++i) {
    linalg::Vector g_sigma(model.num_params(), 0.0);
    double g_mu = 0.0;
    for (int s : model.path_segments()[i]) {
      const auto k = static_cast<std::size_t>(s);
      linalg::axpy(1.0, model.sigma().row(k), g_sigma);
      g_mu += model.mu_segments()[k];
    }
    for (std::size_t j = 0; j < g_sigma.size(); ++j) {
      EXPECT_NEAR(g_sigma[j], model.a()(i, j), 1e-9) << i << "," << j;
    }
    EXPECT_NEAR(g_mu, model.mu_paths()[i], 1e-9) << i;
  }
  // rank(A) <= n_S (paper Lemma 1).
  EXPECT_LE(core::make_subset_selector(model.a(), linalg::gram(model.a()))
                .rank(),
            model.num_segments());
  // Path delay == sum of gate delays (linearity).
  for (std::size_t p = 0; p < 5 && p < paths.size(); ++p) {
    EXPECT_NEAR(model.mu_paths()[p],
                timing::path_delay_ps(tg, paths[p].gates), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, BenchmarkProperty,
                         ::testing::Values("s1196", "s1423", "s1488",
                                           "s5378"));

// ---------- Gram-identity property across random selections ----------

class GramIdentityProperty : public ::testing::TestWithParam<int> {};

TEST_P(GramIdentityProperty, ErrorModelMatchesPredictor) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t n = 10 + rng.uniform_index(15);
  const std::size_t m = 8 + rng.uniform_index(20);
  const linalg::Matrix a =
      random_matrix(n, m, static_cast<std::uint64_t>(seed) * 101 + 7);
  const std::size_t r = 1 + rng.uniform_index(n / 2);
  std::vector<int> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<int>(i);
  rng.shuffle(all);
  std::vector<int> rep(all.begin(), all.begin() + static_cast<long>(r));
  const core::SelectionErrors se =
      core::selection_errors(a, rep, 1000.0, 3.0);
  const core::LinearPredictor p =
      core::make_path_predictor(a, linalg::Vector(n, 0.0), rep);
  const linalg::Vector sig = p.error_sigmas();
  ASSERT_EQ(se.sigma.size(), sig.size());
  for (std::size_t i = 0; i < sig.size(); ++i) {
    EXPECT_NEAR(se.sigma[i], sig[i], 1e-7 * (1.0 + sig[i])) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GramIdentityProperty,
                         ::testing::Range(1, 13));

// ---------- Effective-rank vs selection-size coupling ----------

class EffRankCouplingProperty : public ::testing::TestWithParam<double> {};

TEST_P(EffRankCouplingProperty, NoiseRaisesBothEffRankAndSelection) {
  const double noise = GetParam();
  util::Rng rng(31);
  const linalg::Matrix base = random_matrix(4, 25, 37);
  linalg::Matrix a(40, 25);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t d = 0; d < 4; ++d) {
      linalg::axpy(rng.uniform(0.3, 1.0), base.row(d), a.row(i));
    }
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) += noise * rng.normal();
    }
  }
  core::PathSelectionOptions opt;
  opt.epsilon = 0.05;
  const core::PathSelectionResult r =
      core::select_representative_paths(a, 2000.0, opt);
  EXPECT_LE(r.eps_r, 0.05);
  // Stash results across instantiations via static state is fragile; instead
  // just assert the weak bound: selection size grows at most to rank.
  EXPECT_LE(r.representatives.size(), r.exact_rank);
}

INSTANTIATE_TEST_SUITE_P(Noise, EffRankCouplingProperty,
                         ::testing::Values(0.01, 0.05, 0.1, 0.3));

}  // namespace
}  // namespace repro
