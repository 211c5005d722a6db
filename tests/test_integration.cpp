// End-to-end integration: the full Table-1 / Table-2 pipelines on a small
// benchmark, checking the paper's qualitative claims hold on our substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/benchmarks.h"
#include "core/effective_rank.h"
#include "core/guardband.h"
#include "core/hybrid_selection.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "core/subset_select.h"
#include "linalg/gemm.h"

namespace repro::core {
namespace {

ExperimentConfig cfg(const std::string& bench, std::size_t paths = 250) {
  ExperimentConfig c;
  c.benchmark = bench;
  c.max_target_paths = paths;
  c.max_candidates = 4000;
  c.yield_mc_samples = 300;
  return c;
}

TEST(Integration, Table1PipelineSmall) {
  const Experiment e(cfg("s1196"));
  const auto& a = e.model().a();

  // Exact selection.
  const SubsetSelector selector =
      make_subset_selector(a, linalg::gram(a));
  const std::size_t rank = selector.rank();
  EXPECT_GT(rank, 0u);
  EXPECT_LT(rank, e.target_paths().size());  // shared segments -> low rank

  // Approximate selection at eps = 5%.
  PathSelectionOptions psel;
  psel.epsilon = 0.05;
  const linalg::Matrix w = linalg::gram(a);
  const PathSelectionResult sel =
      select_representative_paths(selector, w, e.t_cons_ps(), psel);
  EXPECT_LT(sel.representatives.size(), rank);
  EXPECT_LE(sel.eps_r, 0.05);

  // Monte-Carlo validation: observed errors below the analytic guard-band.
  const LinearPredictor pred = make_path_predictor(a, e.model().mu_paths(),
                                                   sel.representatives);
  McOptions mc;
  mc.samples = 1500;
  const McMetrics m = evaluate_predictor(e.model(), pred, mc);
  EXPECT_LT(m.e1, psel.epsilon);        // e1 below tolerance (Sec 6.3)
  EXPECT_LT(m.e2, m.e1);
  // The analytic band uses kappa=3 against Tcons; observed maxima over 1500
  // samples x hundreds of paths divide by the (smaller) true delay and the
  // extreme can reach ~4 sigma, so allow 1.8x slack on the band.
  EXPECT_LE(m.worst_eps, sel.eps_r * 1.8 + 0.01);
}

SubsetSelector selector_of(const Experiment& e) {
  return make_subset_selector(e.model().a(), linalg::gram(e.model().a()));
}

TEST(Integration, EffectiveRankFarBelowRank) {
  const Experiment e(cfg("s1423", 400));
  const SubsetSelector selector = selector_of(e);
  const std::size_t rank = selector.rank();
  const std::size_t eff = effective_rank(selector.singular_values(), 0.05);
  // Paper Figure 2(a): the effective rank is a small fraction of rank(A)
  // (~30 of 122 for their S1423 pool).
  EXPECT_LT(eff, rank / 2);
  EXPECT_LT(eff, 120u);
  // Pinned to the rank and effective rank a Golub-Reinsch SVD of A gives.
  EXPECT_EQ(rank, 107u);
  EXPECT_EQ(eff, 18u);
}

TEST(Integration, Table2PipelineHybridBeatsPathOnly) {
  ExperimentConfig c = cfg("s1196", 300);  // Table-2-style larger pool
  const Experiment e(c);
  const auto& m = e.model();

  const SubsetSelector selector = selector_of(e);
  PathSelectionOptions psel;
  psel.epsilon = 0.08;
  const PathSelectionResult path_sel = select_representative_paths(
      selector, selector.gram(), e.t_cons_ps(), psel);

  HybridOptions hopt;
  hopt.epsilon = 0.08;
  const HybridResult hybrid = sweep_hybrid_selection(
      selector, path_sel, m, e.t_cons_ps(), {0.03, 0.05}, hopt);

  // Both meet the tolerance analytically.
  EXPECT_LE(path_sel.eps_r, 0.08);
  EXPECT_LE(hybrid.eps_achieved, 0.08 * 1.05);
  // Hybrid total measurements below exact rank (the paper's headline).
  EXPECT_LT(hybrid.rep_paths.size() + hybrid.rep_segments.size(),
            hybrid.exact_rank);

  // MC-validate the hybrid predictor.
  McOptions mc;
  mc.samples = 1000;
  const McMetrics mm = evaluate_predictor(e.model(), hybrid.predictor, mc);
  EXPECT_LT(mm.e1, 0.08);
}

TEST(Integration, GuardbandDetectionEndToEnd) {
  ExperimentConfig c = cfg("s1196", 200);
  c.tcons_factor = 1.02;
  const Experiment e(c);
  PathSelectionOptions psel;
  psel.epsilon = 0.05;
  const PathSelectionResult sel =
      select_representative_paths(e.model().a(), e.t_cons_ps(), psel);
  const LinearPredictor pred = make_path_predictor(
      e.model().a(), e.model().mu_paths(), sel.representatives);
  McOptions mc;
  mc.samples = 1000;
  const GuardbandReport rep =
      guardband_analysis(e.model(), pred, sel.errors.per_path_eps,
                         e.t_cons_ps(), psel.epsilon, mc);
  EXPECT_LE(rep.missed, rep.observations / 10000 + 1);
  EXPECT_LE(rep.avg_guardband, psel.epsilon);
}

TEST(Integration, Figure2TrendRandomScaleSlowsDecay) {
  // Fig 2(b): scaling random sensitivities 3x flattens the singular-value
  // decay, i.e. raises the effective rank.
  ExperimentConfig base = cfg("s1196", 250);
  ExperimentConfig scaled = base;
  scaled.random_scale = 3.0;
  const Experiment e1(base);
  const Experiment e3(scaled);
  const std::size_t eff1 =
      effective_rank(selector_of(e1).singular_values(), 0.05);
  const std::size_t eff3 =
      effective_rank(selector_of(e3).singular_values(), 0.05);
  EXPECT_GT(eff3, eff1);
  // Pinned to the effective ranks a Golub-Reinsch SVD of A gives.
  EXPECT_EQ(eff1, 28u);
  EXPECT_EQ(eff3, 44u);
}

// Sizes of the REPRO_FAST Table 1 pools (default_experiment_config).
ExperimentConfig fast_config(const std::string& bench) {
  const char* saved = std::getenv("REPRO_FAST");
  const std::string saved_value = saved ? saved : "";
  setenv("REPRO_FAST", "1", 1);
  ExperimentConfig c = default_experiment_config(bench);
  if (saved) {
    setenv("REPRO_FAST", saved_value.c_str(), 1);
  } else {
    unsetenv("REPRO_FAST");
  }
  return c;
}

TEST(Integration, Algorithm1BisectionMatchesLinearDecrementOnFastTable1) {
  // DESIGN.md §5: bisection assumes eps_r(r) is non-increasing in r, which
  // is not guaranteed.  On the three REPRO_FAST Table 1 circuits it must
  // still return the paper's linear-decrement |Pr|, each within epsilon.
  // Each driver gets a fresh selector, as in the bench.
  for (const char* name : {"s1196", "s1423", "s1488"}) {
    const Experiment e(fast_config(name));
    const auto& a = e.model().a();
    std::vector<std::size_t> sizes;
    for (SelectionStrategy strategy : {SelectionStrategy::kLinearDecrement,
                                       SelectionStrategy::kBisection}) {
      const SubsetSelector selector = make_subset_selector(a, linalg::gram(a));
      PathSelectionOptions opt;
      opt.strategy = strategy;
      const PathSelectionResult r = select_representative_paths(
          selector, selector.gram(), e.t_cons_ps(), opt);
      EXPECT_LE(r.eps_r, opt.epsilon) << name;
      sizes.push_back(r.representatives.size());
    }
    EXPECT_EQ(sizes[0], sizes[1]) << name << ": linear decrement vs bisection";
  }
}

}  // namespace
}  // namespace repro::core
