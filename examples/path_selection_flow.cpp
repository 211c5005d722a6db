// Full benchmark-scale flow (the Table-1 recipe) on one circuit:
//
//   generate -> place -> STA -> candidate enumeration -> yield filter ->
//   segment decomposition -> variation model -> Algorithm 1 selection ->
//   Theorem-2 predictor -> Monte-Carlo validation.
//
// Usage: example_path_selection_flow [benchmark] [epsilon%]
//        defaults: s1423 5
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/benchmarks.h"
#include "core/effective_rank.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "linalg/gemm.h"
#include "util/stopwatch.h"

using namespace repro;

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  const std::string bench = argc > 1 ? argv[1] : "s1423";
  const double eps = (argc > 2 ? std::atof(argv[2]) : 5.0) / 100.0;

  std::printf("=== Representative path selection flow: %s (eps = %.1f%%) ===\n\n",
              bench.c_str(), eps * 100.0);
  util::Stopwatch sw;

  core::ExperimentConfig cfg = core::default_experiment_config(bench);
  const core::Experiment e(cfg);
  std::printf("circuit: %zu gates, %zu launch / %zu capture points\n",
              e.total_gates(), e.netlist().inputs().size(),
              e.netlist().outputs().size());
  std::printf("nominal delay %.1f ps, Tcons %.1f ps, estimated yield %.3f\n",
              e.nominal_delay_ps(), e.t_cons_ps(), e.circuit_yield());
  std::printf("candidates enumerated: %zu -> statistically-critical targets: "
              "%zu\n",
              e.candidates_enumerated(), e.target_paths().size());
  std::printf("covered gates %zu, covered regions %zu (of %zu), parameters "
              "%zu\n",
              e.covered_gates(), e.covered_regions(), e.total_regions(),
              e.model().num_params());
  std::printf("segments: %zu\n\n", e.model().num_segments());

  // Selection.
  const core::SubsetSelector selector =
      core::make_subset_selector(e.model().a(), linalg::gram(e.model().a()));
  const linalg::Matrix& gram = selector.gram();
  std::printf("rank(A) = %zu (exact selection size, Theorem 1)\n",
              selector.rank());
  std::printf("effective rank at 5%% energy: %zu\n",
              core::effective_rank(selector.singular_values(), 0.05));

  core::PathSelectionOptions opt;
  opt.epsilon = eps;
  const core::PathSelectionResult sel =
      core::select_representative_paths(selector, gram, e.t_cons_ps(), opt);
  std::printf("Algorithm 1 at eps = %.1f%%: |Pr| = %zu "
              "(analytic eps_r = %.2f%%, %zu candidate sizes evaluated)\n",
              eps * 100.0, sel.representatives.size(), sel.eps_r * 100.0,
              sel.candidates_evaluated);

  // Validation.
  const core::LinearPredictor pred = core::make_path_predictor(
      e.model().a(), e.model().mu_paths(), sel.representatives);
  core::McOptions mc;
  mc.samples = core::default_mc_samples();
  const core::McMetrics m = core::evaluate_predictor(e.model(), pred, mc);
  std::printf("\nMonte-Carlo validation over %zu samples:\n", m.samples);
  std::printf("  e1 (avg of per-path max rel err)  = %.2f%%\n", m.e1 * 100.0);
  std::printf("  e2 (avg of per-path mean rel err) = %.2f%%\n", m.e2 * 100.0);
  std::printf("  worst observed rel err            = %.2f%%  (analytic bound "
              "%.2f%%)\n",
              m.worst_eps * 100.0, sel.eps_r * 100.0);
  std::printf("\ntotal %.1f s\n", sw.seconds());
  return 0;
}
