#include "variation/variation_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/generator.h"
#include "circuit/placement.h"
#include "linalg/gemm.h"
#include "test_helpers.h"
#include "timing/sta.h"
#include "util/rng.h"

namespace repro::variation {
namespace {

struct Fixture {
  circuit::Netlist nl;
  circuit::GateLibrary lib;
  std::unique_ptr<timing::TimingGraph> tg;
  std::vector<timing::Path> paths;
  timing::SegmentDecomposition dec;
  std::unique_ptr<SpatialModel> spatial;
  std::unique_ptr<VariationModel> model;

  explicit Fixture(const std::string& bench, std::size_t max_paths = 200,
                   VariationOptions opt = {}, int levels = 3)
      : nl(circuit::generate_benchmark(bench)) {
    circuit::place(nl);
    tg = std::make_unique<timing::TimingGraph>(nl, lib);
    paths = timing::enumerate_worst_paths(*tg, {.max_paths = max_paths});
    dec = timing::extract_segments(nl, paths);
    spatial = std::make_unique<SpatialModel>(levels);
    model = std::make_unique<VariationModel>(*tg, *spatial, paths, dec, opt);
  }
};

TEST(VariationModel, ParameterCountMatchesPaperFormula) {
  Fixture f("s1196");
  // m = 2 * |R_C| + |G_C|.
  EXPECT_EQ(f.model->num_params(),
            2 * f.model->covered_regions() + f.model->covered_gates());
  EXPECT_EQ(f.model->covered_gates(),
            timing::covered_gate_count(f.nl, f.paths));
  EXPECT_LE(f.model->covered_regions(), f.spatial->num_regions());
}

// Dense G rebuilt from the per-path segment lists the model exposes.
linalg::Matrix dense_g(const VariationModel& model) {
  linalg::Matrix g(model.num_paths(), model.num_segments());
  for (std::size_t i = 0; i < model.num_paths(); ++i) {
    for (int s : model.path_segments()[i]) {
      g(i, static_cast<std::size_t>(s)) = 1.0;
    }
  }
  return g;
}

TEST(VariationModel, PathSegmentsAreTheDecompositionLists) {
  Fixture f("s1196");
  EXPECT_EQ(&f.model->path_segments(), &f.dec.path_segments);
}

TEST(VariationModel, AEqualsGTimesSigma) {
  Fixture f("s1196");
  const linalg::Matrix gs =
      linalg::multiply(dense_g(*f.model), f.model->sigma());
  EXPECT_LT(linalg::max_abs_diff(gs, f.model->a()), 1e-9);
}

TEST(VariationModel, MuPathsEqualsGTimesMuSegments) {
  Fixture f("s1196");
  const linalg::Vector gm =
      linalg::matvec(dense_g(*f.model), f.model->mu_segments());
  for (std::size_t i = 0; i < gm.size(); ++i) {
    EXPECT_NEAR(gm[i], f.model->mu_paths()[i], 1e-9);
  }
}

TEST(VariationModel, NominalsMatchStaPathDelays) {
  Fixture f("s1196");
  for (std::size_t p = 0; p < f.paths.size(); ++p) {
    EXPECT_NEAR(f.model->mu_paths()[p],
                timing::path_delay_ps(*f.tg, f.paths[p].gates), 1e-9);
  }
}

TEST(VariationModel, ZeroSampleGivesNominal) {
  Fixture f("s1196", 50);
  const linalg::Vector x(f.model->num_params(), 0.0);
  const linalg::Vector d = f.model->path_delays(x);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_DOUBLE_EQ(d[i], f.model->mu_paths()[i]);
  }
}

TEST(VariationModel, SampleSizeMismatchThrows) {
  Fixture f("s1196", 20);
  EXPECT_THROW((void)f.model->path_delays(linalg::Vector(3, 0.0)),
               std::invalid_argument);
  EXPECT_THROW((void)f.model->segment_delays(linalg::Vector(3, 0.0)),
               std::invalid_argument);
}

TEST(VariationModel, PathSigmaMatchesMonteCarlo) {
  Fixture f("s1196", 30);
  util::Rng rng(7);
  const std::size_t n_samples = 4000;
  const std::size_t path = 0;
  double sum = 0.0, sum2 = 0.0;
  linalg::Vector x(f.model->num_params());
  for (std::size_t s = 0; s < n_samples; ++s) {
    for (double& v : x) v = rng.normal();
    const double d = f.model->path_delays(x)[path];
    sum += d;
    sum2 += d * d;
  }
  const double mc_mean = sum / n_samples;
  const double mc_sigma =
      std::sqrt(std::max(sum2 / n_samples - mc_mean * mc_mean, 0.0));
  EXPECT_NEAR(mc_mean, f.model->path_mu(path), 4.0 * f.model->path_sigma(path) /
                                                   std::sqrt(double(n_samples)));
  EXPECT_NEAR(mc_sigma, f.model->path_sigma(path),
              0.05 * f.model->path_sigma(path));
}

TEST(VariationModel, RandomScaleTriplesRandomColumns) {
  Fixture base("s1196", 50);
  VariationOptions opt;
  opt.random_scale = 3.0;
  Fixture scaled("s1196", 50, opt);
  ASSERT_EQ(base.model->num_params(), scaled.model->num_params());
  // Random-term columns live at indices >= 2 * covered_regions.
  const std::size_t rand_base = 2 * base.model->covered_regions();
  const auto& a0 = base.model->a();
  const auto& a3 = scaled.model->a();
  for (std::size_t i = 0; i < a0.rows(); ++i) {
    for (std::size_t j = 0; j < a0.cols(); ++j) {
      if (j >= rand_base) {
        EXPECT_NEAR(a3(i, j), 3.0 * a0(i, j), 1e-12);
      } else {
        EXPECT_NEAR(a3(i, j), a0(i, j), 1e-12);
      }
    }
  }
}

TEST(VariationModel, CorrelatedSigmaExceedsIndependentForSharedRegions) {
  // Path variance under the correlated model is >= the sum of the purely
  // random parts; with spatial terms present the two differ.
  Fixture f("s1423", 60);
  const std::size_t rand_base = 2 * f.model->covered_regions();
  for (std::size_t p = 0; p < 5 && p < f.paths.size(); ++p) {
    double rand_only = 0.0;
    for (std::size_t j = rand_base; j < f.model->num_params(); ++j) {
      rand_only += f.model->a()(p, j) * f.model->a()(p, j);
    }
    EXPECT_GT(f.model->path_sigma(p) * f.model->path_sigma(p),
              rand_only * 1.5);
  }
}

TEST(VariationModel, SegmentDelaysConsistentWithPathDelays) {
  Fixture f("s1196", 40);
  util::Rng rng(11);
  linalg::Vector x(f.model->num_params());
  for (double& v : x) v = rng.normal();
  const linalg::Vector d_paths = f.model->path_delays(x);
  const linalg::Vector d_segs = f.model->segment_delays(x);
  for (std::size_t p = 0; p < f.paths.size(); ++p) {
    double via = 0.0;
    for (int s : f.dec.path_segments[p]) {
      via += d_segs[static_cast<std::size_t>(s)];
    }
    EXPECT_NEAR(via, d_paths[p], 1e-9);
  }
}

TEST(VariationModel, FiveLevelModelHasMoreCoveredRegions) {
  Fixture small("s1423", 100, {}, 3);
  Fixture big("s1423", 100, {}, 5);
  EXPECT_GT(big.model->covered_regions(), small.model->covered_regions());
}

}  // namespace
}  // namespace repro::variation
