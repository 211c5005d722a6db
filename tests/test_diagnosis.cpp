#include "core/diagnosis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "circuit/generator.h"
#include "circuit/placement.h"
#include "core/predictor.h"
#include "core/subset_select.h"
#include "linalg/gemm.h"
#include "timing/segments.h"
#include "util/rng.h"

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

  Fixture() : nl(circuit::generate_benchmark("s1196")) {
    circuit::place(nl);
    tg = std::make_unique<timing::TimingGraph>(nl, lib);
    paths = timing::enumerate_worst_paths(*tg, {.max_paths = 120});
    dec = timing::extract_segments(nl, paths);
    spatial = std::make_unique<variation::SpatialModel>(3);
    model = std::make_unique<variation::VariationModel>(
        *tg, *spatial, paths, dec, variation::VariationOptions{});
  }

  // Measure the exact representative paths under a ground-truth x.
  std::pair<std::vector<int>, linalg::Vector> measure(
      const linalg::Vector& x_true) {
    const SubsetSelector sel =
        make_subset_selector(model->a(), linalg::gram(model->a()));
    std::vector<int> rep = sel.select(sel.rank());
    const linalg::Vector d = model->path_delays(x_true);
    linalg::Vector y(rep.size());
    for (std::size_t k = 0; k < rep.size(); ++k) {
      y[k] = d[static_cast<std::size_t>(rep[k])];
    }
    return {std::move(rep), std::move(y)};
  }
};

TEST(Diagnosis, ZeroMeasurementDeviationGivesZeroEstimate) {
  Fixture f;
  auto [rep, y] = f.measure(linalg::Vector(f.model->num_params(), 0.0));
  const DiagnosisResult r =
      diagnose(*f.model, *f.tg, *f.spatial, rep, {}, y);
  EXPECT_LT(linalg::norm_inf(r.x_hat), 1e-6);
  for (const auto& reg : r.regions) {
    EXPECT_NEAR(reg.leff_sigma, 0.0, 1e-6);
    EXPECT_NEAR(reg.vt_sigma, 0.0, 1e-6);
  }
}

TEST(Diagnosis, RecoversInjectedDieToDieShift) {
  Fixture f;
  // Ground truth: +2 sigma die-to-die Leff shift (slot of region 0).
  linalg::Vector x_true(f.model->num_params(), 0.0);
  std::size_t die_slot = 0;
  for (std::size_t k = 0; k < f.model->covered_regions(); ++k) {
    if (f.model->region_slots()[k] == 0) die_slot = k;
  }
  x_true[die_slot] = 2.0;
  auto [rep, y] = f.measure(x_true);
  const DiagnosisResult r =
      diagnose(*f.model, *f.tg, *f.spatial, rep, {}, y);
  // The die-level region must carry the largest estimated Leff shift and be
  // positive and substantial.
  double die_est = 0.0;
  double max_other = 0.0;
  for (const auto& reg : r.regions) {
    if (reg.region == 0) {
      die_est = reg.leff_sigma;
    } else {
      max_other = std::max(max_other, std::abs(reg.leff_sigma));
    }
  }
  EXPECT_GT(die_est, 1.0);
  EXPECT_GT(die_est, max_other);
}

TEST(Diagnosis, PredictionsMatchTheorem2Predictor) {
  Fixture f;
  util::Rng rng(21);
  linalg::Vector x_true(f.model->num_params());
  for (double& v : x_true) v = rng.normal();
  auto [rep, y] = f.measure(x_true);
  const DiagnosisResult r =
      diagnose(*f.model, *f.tg, *f.spatial, rep, {}, y);
  const LinearPredictor p =
      make_path_predictor(f.model->a(), f.model->mu_paths(), rep);
  const linalg::Vector pred = p.predict(y);
  for (std::size_t k = 0; k < p.remaining.size(); ++k) {
    const auto i = static_cast<std::size_t>(p.remaining[k]);
    EXPECT_NEAR(r.predicted_path_delays[i], pred[k],
                1e-6 * (1.0 + std::abs(pred[k])));
  }
}

TEST(Diagnosis, MeasurementResidualNearZeroForConsistentData) {
  Fixture f;
  util::Rng rng(22);
  linalg::Vector x_true(f.model->num_params());
  for (double& v : x_true) v = rng.normal();
  auto [rep, y] = f.measure(x_true);
  const DiagnosisResult r =
      diagnose(*f.model, *f.tg, *f.spatial, rep, {}, y);
  EXPECT_LT(r.measurement_residual_ps, 1e-2);
}

TEST(Diagnosis, SuspectRankingFindsShiftedGate) {
  Fixture f;
  // Inject a large random shift on one specific covered gate and measure
  // *all* target paths (best-case observability).
  const std::size_t gate_slot = f.model->covered_gates() / 2;
  const circuit::GateId shifted = f.model->gate_slots()[gate_slot];
  linalg::Vector x_true(f.model->num_params(), 0.0);
  x_true[2 * f.model->covered_regions() + gate_slot] = 5.0;

  std::vector<int> rep(f.paths.size());
  for (std::size_t i = 0; i < rep.size(); ++i) rep[i] = static_cast<int>(i);
  const linalg::Vector y = f.model->path_delays(x_true);
  DiagnosisOptions opt;
  opt.top_gates = 10;
  const DiagnosisResult r =
      diagnose(*f.model, *f.tg, *f.spatial, rep, {}, y, opt);
  const bool found =
      std::any_of(r.suspects.begin(), r.suspects.end(),
                  [&](const GateSuspect& s) { return s.gate == shifted; });
  EXPECT_TRUE(found);
  EXPECT_EQ(r.suspects.size(), 10u);
  // Ranking is by decreasing |shift|.
  for (std::size_t k = 1; k < r.suspects.size(); ++k) {
    EXPECT_GE(std::abs(r.suspects[k - 1].delay_shift_ps),
              std::abs(r.suspects[k].delay_shift_ps) - 1e-12);
  }
}

TEST(Diagnosis, SegmentsMeasurementsSupported) {
  Fixture f;
  util::Rng rng(23);
  linalg::Vector x_true(f.model->num_params());
  for (double& v : x_true) v = rng.normal();
  const linalg::Vector d_seg = f.model->segment_delays(x_true);
  std::vector<int> segs;
  linalg::Vector y;
  for (std::size_t s = 0; s < f.model->num_segments(); ++s) {
    segs.push_back(static_cast<int>(s));
    y.push_back(d_seg[s]);
  }
  const DiagnosisResult r =
      diagnose(*f.model, *f.tg, *f.spatial, {}, segs, y);
  // Measuring every segment determines every path exactly.
  const linalg::Vector d_path = f.model->path_delays(x_true);
  for (std::size_t i = 0; i < d_path.size(); ++i) {
    EXPECT_NEAR(r.predicted_path_delays[i], d_path[i],
                1e-7 * (1.0 + std::abs(d_path[i])));
  }
}

TEST(Diagnosis, InvalidInputsThrow) {
  Fixture f;
  EXPECT_THROW(
      (void)diagnose(*f.model, *f.tg, *f.spatial, {0}, {}, linalg::Vector{}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)diagnose(*f.model, *f.tg, *f.spatial, {}, {}, linalg::Vector{}),
      std::invalid_argument);
}

}  // namespace
}  // namespace repro::core
