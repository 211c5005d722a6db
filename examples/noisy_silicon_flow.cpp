// Noisy-silicon flow: what changes when measurements stop being exact.
//
// Walks the robustness layer end to end on a benchmark-scale circuit:
//   1. select representative paths (the clean paper flow);
//   2. inject measurement faults on a single die and watch the naive linear
//      predictor absorb an outlier while the robust one screens it;
//   3. kill a representative path outright and show graceful degradation —
//      the predictor is rebuilt on the survivors, a backup is promoted from
//      the Algorithm-2 pivot order, and the structured PredictorStatus says
//      exactly what happened;
//   4. compare clean / robust / naive e1 over a fault-injected Monte Carlo.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/benchmarks.h"
#include "core/measurement.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "core/predictor.h"
#include "linalg/gemm.h"
#include "util/rng.h"
#include "util/text.h"

using namespace repro;

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main() {
  std::printf("=== Noisy-silicon flow: robust prediction under measurement "
              "faults ===\n\n");

  // 1. Clean selection, as in examples/path_selection_flow.
  const core::Experiment e(core::default_experiment_config("s1196"));
  const auto& model = e.model();
  const core::SubsetSelector selector =
      core::make_subset_selector(model.a(), linalg::gram(model.a()));
  const linalg::Matrix& gram = selector.gram();
  core::PathSelectionOptions popt;
  popt.epsilon = 0.05;
  const core::PathSelectionResult sel =
      core::select_representative_paths(selector, gram, e.t_cons_ps(), popt);
  const std::vector<int>& rep = sel.representatives;
  std::printf("s1196: %zu target paths, %zu representatives (eps = 5%%)\n\n",
              e.target_paths().size(), rep.size());

  // 2. One die, one absurd tester reading.
  const core::FaultSpec spec = core::default_fault_spec();
  core::RobustOptions ropt;
  ropt.measurement_sigma_ps =
      core::expected_noise_sigma(spec, model.mu_paths());
  const core::RobustPredictor robust = core::make_robust_path_predictor(
      model.a(), model.mu_paths(), rep, /*dead=*/{}, ropt);

  util::Rng rng(2026);
  linalg::Vector x(model.num_params());
  for (double& v : x) v = rng.normal();
  const linalg::Vector d = model.path_delays(x);
  linalg::Vector meas(rep.size());
  for (std::size_t k = 0; k < rep.size(); ++k) {
    meas[k] = d[static_cast<std::size_t>(rep[k])];
  }
  linalg::Vector faulty = meas;
  faulty[1] += 40.0 * ropt.measurement_sigma_ps;  // stuck-at-ish outlier

  const linalg::Vector naive_pred = robust.base.predict(faulty);
  const core::RobustPrediction robust_pred = robust.predict(faulty);
  const linalg::Vector true_pred = robust.base.predict(meas);
  double naive_err = 0.0, robust_err = 0.0;
  for (std::size_t i = 0; i < true_pred.size(); ++i) {
    naive_err = std::max(naive_err, std::abs(naive_pred[i] - true_pred[i]));
    robust_err =
        std::max(robust_err, std::abs(robust_pred.values[i] - true_pred[i]));
  }
  std::printf("single die, slot 1 corrupted by %+0.f ps:\n",
              40.0 * ropt.measurement_sigma_ps);
  std::printf("  naive  max prediction shift: %8.3f ps\n", naive_err);
  std::printf("  robust max prediction shift: %8.3f ps  (screened %zu slot(s),"
              " health %s)\n\n",
              robust_err, robust_pred.screened.size(),
              core::to_string(robust_pred.health));

  // 3. Kill the most informative representative path.
  core::RobustOptions dopt = ropt;
  dopt.backup_order =
      selector.select(std::min(selector.rank(), rep.size() + 8));
  const core::RobustPredictor degraded = core::make_robust_path_predictor(
      model.a(), model.mu_paths(), rep, /*dead=*/{rep[0]}, dopt);
  const core::PredictorStatus& st = degraded.status;
  std::printf("representative path %d declared unmeasurable:\n", rep[0]);
  std::printf("  health:          %s\n", core::to_string(st.health));
  std::printf("  message:         %s\n", st.message.c_str());
  std::printf("  dropped paths:   %zu\n", st.dropped_paths.size());
  std::printf("  promoted backup: %s\n",
              st.promoted_paths.empty()
                  ? "(none)"
                  : std::to_string(st.promoted_paths.front()).c_str());
  std::printf("  gram condition:  %.3e (ridge %.3e)\n", st.gram_condition,
              st.ridge);
  std::printf("  sigma inflation: %.4f\n\n", st.sigma_inflation);

  // 4. Population view: fault-injected Monte Carlo, robust vs naive.
  const core::LinearPredictor clean_pred =
      core::make_path_predictor(model.a(), model.mu_paths(), rep);
  core::McOptions cmc;
  cmc.samples = 1000;
  const core::McMetrics clean = core::evaluate_predictor(model, clean_pred, cmc);

  core::FaultyMcOptions rmc;
  rmc.mc.samples = 1000;
  rmc.faults = core::without_dead_slots(spec);
  const core::FaultyMcMetrics rob =
      core::evaluate_predictor_under_faults(model, degraded, rmc);
  core::FaultyMcOptions nmc;
  nmc.mc.samples = 1000;
  nmc.faults = spec;
  nmc.naive = true;
  const core::FaultyMcMetrics nai =
      core::evaluate_predictor_under_faults(model, robust, nmc);

  std::printf("Monte Carlo over 1000 dies (default fault spec):\n");
  std::printf("  clean  e1 = %s   (exact measurements)\n",
              util::fmt_percent(clean.e1, 2).c_str());
  std::printf("  robust e1 = %s   (screened %.2f slots/die, %zu failed dies)\n",
              util::fmt_percent(rob.metrics.e1, 2).c_str(), rob.mean_screened,
              rob.failed_dies);
  std::printf("  naive  e1 = %s   (outliers absorbed into predictions)\n",
              util::fmt_percent(nai.metrics.e1, 2).c_str());
  std::printf("\nDone. Next: bench/bench_robustness for the full sweep on "
              "s1423.\n");
  return 0;
}
