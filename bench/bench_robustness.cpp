// Noisy-silicon robustness protocol on the Figure-2 circuit (s1423).
//
// Compares three evaluation regimes:
//
//   clean   — the paper protocol: the eps = 5% representative selection,
//             exact measurements, Theorem-2 predictor;
//   robust  — the noisy-silicon protocol: the same pivot-order selection
//             plus kGuardPaths redundant guard measurements (next paths in
//             the Algorithm-2 column-pivot order); measurements pass the
//             core/measurement.h fault model (sensor noise, outliers,
//             dead/dropped slots) and prediction uses the IRLS/Huber robust
//             calibration with dead-path degradation.  The guards matter:
//             with a minimal (rank-matching) measured set every slot has
//             leverage ~1, so an outlier is absorbed instead of detected and
//             sensor noise propagates unaveraged;
//   naive   — the same faulty measurements (same guarded slot set) pushed
//             through the plain linear map, i.e. a pipeline unaware of
//             measurement faults.
//
// Acceptance target: under the default fault spec (1% sensor noise, 5%
// outliers at 10x, one dead representative path) the robust e1 stays below
// 2x the clean baseline while the naive e1 is demonstrably worse.  Also
// sweeps the noise sigma and the dropout rate, and records everything as
// JSON (argv[1], default BENCH_robustness.json).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/benchmarks.h"
#include "core/measurement.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "core/predictor.h"
#include "linalg/gemm.h"
#include "util/stopwatch.h"
#include "util/text.h"

namespace {

using namespace repro;

struct RegimePair {
  std::string label;
  core::FaultyMcMetrics robust;
  core::FaultyMcMetrics naive;
  core::PredictorStatus status;  // of the robust-flow predictor
};

// Robust flow: dead representative paths are excluded at build time (backups
// promoted from the pivot order) and the surviving predictor is evaluated
// with the dead slots stripped from the schedule — its measurement vector no
// longer contains them.  Naive flow: the original predictor sees the full
// fault schedule, dead slots included.
RegimePair run_regime(const core::Experiment& e, const std::vector<int>& rep,
                      const std::vector<int>& backup_order,
                      const core::FaultSpec& spec, std::string label,
                      std::size_t samples) {
  RegimePair out;
  out.label = std::move(label);
  const auto& model = e.model();

  std::vector<int> dead_paths;
  for (int slot : spec.dead_slots) {
    if (slot >= 0 && static_cast<std::size_t>(slot) < rep.size()) {
      dead_paths.push_back(rep[static_cast<std::size_t>(slot)]);
    }
  }
  core::RobustOptions ropt;
  ropt.backup_order = backup_order;
  ropt.measurement_sigma_ps =
      core::expected_noise_sigma(spec, model.mu_paths());

  const core::RobustPredictor robust = core::make_robust_path_predictor(
      model.a(), model.mu_paths(), rep, dead_paths, ropt);
  out.status = robust.status;
  core::FaultyMcOptions rmc;
  rmc.mc.samples = samples;
  rmc.faults = core::without_dead_slots(spec);
  out.robust = core::evaluate_predictor_under_faults(model, robust, rmc);

  const core::RobustPredictor plain =
      core::make_robust_path_predictor(model.a(), model.mu_paths(), rep);
  core::FaultyMcOptions nmc;
  nmc.mc.samples = samples;
  nmc.faults = spec;
  nmc.naive = true;
  out.naive = core::evaluate_predictor_under_faults(model, plain, nmc);
  return out;
}

void add_table_row(util::TextTable& table, const RegimePair& r) {
  table.add_row({r.label, util::fmt_percent(r.robust.metrics.e1, 2),
                 util::fmt_percent(r.robust.metrics.e2, 2),
                 util::fmt_percent(r.naive.metrics.e1, 2),
                 util::fmt_percent(r.naive.metrics.e2, 2),
                 util::fmt_double(r.robust.mean_screened, 2),
                 util::fmt_double(r.robust.mean_missing, 2),
                 std::to_string(r.robust.failed_dies),
                 core::to_string(r.status.health)});
}

void json_metrics(std::string& js, const char* key,
                  const core::FaultyMcMetrics& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"%s\": {\"e1\": %.9e, \"e2\": %.9e, \"worst_eps\": %.9e, "
                "\"failed_dies\": %zu, \"mean_screened\": %.4f, "
                "\"mean_missing\": %.4f, \"mean_outliers\": %.4f}",
                key, m.metrics.e1, m.metrics.e2, m.metrics.worst_eps,
                m.failed_dies, m.mean_screened, m.mean_missing,
                m.mean_outliers);
  js += buf;
}

std::string json_regime(const RegimePair& r) {
  std::string js = "    {\"label\": \"" + r.label + "\", ";
  json_metrics(js, "robust", r.robust);
  js += ", ";
  json_metrics(js, "naive", r.naive);
  char buf[192];
  std::snprintf(buf, sizeof buf,
                ", \"status\": {\"health\": \"%s\", \"gram_condition\": %.3e, "
                "\"ridge\": %.3e, \"dropped\": %zu, \"promoted\": %zu, "
                "\"sigma_inflation\": %.4f}}",
                core::to_string(r.status.health), r.status.gram_condition,
                r.status.ridge, r.status.dropped_paths.size(),
                r.status.promoted_paths.size(), r.status.sigma_inflation);
  js += buf;
  return js;
}

}  // namespace

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  bench::Harness h("robustness", argc, argv);
  std::printf("=== Robustness: fault-injected e1/e2 on s1423 (Figure-2 "
              "circuit) ===\n\n");

  const core::Experiment e(core::default_experiment_config("s1423"));
  const auto& a = e.model().a();
  const core::SubsetSelector selector =
      core::make_subset_selector(a, linalg::gram(a));
  const linalg::Matrix& gram = selector.gram();
  core::PathSelectionOptions popt;
  popt.epsilon = 0.05;
  const core::PathSelectionResult sel =
      core::select_representative_paths(selector, gram, e.t_cons_ps(), popt);
  const std::vector<int>& rep = sel.representatives;
  // Guarded measured set for the fault regimes: the pivot-order selection of
  // size |Pr| + kGuardPaths.  Its prefix plays the role of the eps-selection
  // (same Algorithm-2 ranking); the tail adds the redundancy the robust
  // calibration needs to detect outliers and average sensor noise.
  constexpr std::size_t kGuardPaths = 8;
  const std::vector<int> guarded = selector.select(
      std::min(selector.rank(), rep.size() + kGuardPaths));
  const std::vector<int> backup_order = selector.select(
      std::min(selector.rank(), guarded.size() + 8));
  const std::size_t samples = core::default_mc_samples();
  std::printf("|Ptar| = %zu, |Pr| = %zu (eps = 5%%), guarded |Pr|+%zu = %zu, "
              "rank(A) = %zu, MC samples = %zu\n\n",
              e.target_paths().size(), rep.size(), kGuardPaths,
              guarded.size(), sel.exact_rank, samples);

  // Clean baseline: the exact-measurement paper protocol.
  const core::LinearPredictor clean_pred =
      core::make_path_predictor(a, e.model().mu_paths(), rep);
  core::McOptions cmc;
  cmc.samples = samples;
  const core::McMetrics clean =
      core::evaluate_predictor(e.model(), clean_pred, cmc);
  std::printf("clean baseline: e1 = %s, e2 = %s\n\n",
              util::fmt_percent(clean.e1, 2).c_str(),
              util::fmt_percent(clean.e2, 2).c_str());

  util::TextTable table({"regime", "e1(robust)", "e2(robust)", "e1(naive)",
                         "e2(naive)", "scr/die", "miss/die", "failed",
                         "health"});

  // Default noisy-silicon regime (the acceptance criterion).
  const core::FaultSpec def = core::default_fault_spec();
  const RegimePair base =
      run_regime(e, guarded, backup_order, def, "default(1%,5%outl,1dead)",
                 samples);
  add_table_row(table, base);

  // Noise-sigma sweep (5% outliers, no dead slots).
  std::vector<RegimePair> noise_sweep;
  for (double frac : {0.0, 0.005, 0.01, 0.02, 0.05}) {
    core::FaultSpec spec;
    spec.noise_sigma_frac = frac;
    spec.outlier_rate = 0.05;
    char label[64];
    std::snprintf(label, sizeof label, "noise sigma %.1f%%", 100.0 * frac);
    noise_sweep.push_back(
        run_regime(e, guarded, backup_order, spec, label, samples));
    add_table_row(table, noise_sweep.back());
  }

  // Dropout-rate sweep (1% noise, 5% outliers).
  std::vector<RegimePair> dropout_sweep;
  for (double rate : {0.0, 0.05, 0.1, 0.2}) {
    core::FaultSpec spec;
    spec.noise_sigma_frac = 0.01;
    spec.outlier_rate = 0.05;
    spec.dropout_rate = rate;
    char label[64];
    std::snprintf(label, sizeof label, "dropout %.0f%%", 100.0 * rate);
    dropout_sweep.push_back(
        run_regime(e, guarded, backup_order, spec, label, samples));
    add_table_row(table, dropout_sweep.back());
  }

  std::printf("%s\nCSV\n%s\n", table.render().c_str(),
              table.render_csv().c_str());

  // Acceptance: the robust predictor keeps e1 within this factor of clean
  // and beats the naive one on the default regime.
  constexpr double kRobustBudget = 2.0;
  const double robust_factor =
      clean.e1 > 0.0 ? base.robust.metrics.e1 / clean.e1 : 0.0;
  const double naive_factor =
      clean.e1 > 0.0 ? base.naive.metrics.e1 / clean.e1 : 0.0;
  std::printf("default regime: robust e1 = %.2fx clean (target < %gx), "
              "naive e1 = %.2fx clean\n",
              robust_factor, kRobustBudget, naive_factor);

  // Scalars go through the harness; the per-regime records (objects the
  // schema does not know about) ride along as pre-rendered JSON values.
  h.metric("benchmark", "s1423");
  h.metric("targets", e.target_paths().size());
  h.metric("representatives", rep.size());
  h.metric("rank", sel.exact_rank);
  h.metric("mc_samples", samples);
  h.metric("clean_e1", clean.e1);
  h.metric("clean_e2", clean.e2);
  h.metric("robust_vs_clean", robust_factor);
  h.metric("naive_vs_clean", naive_factor);
  h.metric("naive_minus_robust_e1",
           base.naive.metrics.e1 - base.robust.metrics.e1);
  h.gate("robust_vs_clean", "<", kRobustBudget);
  h.gate("naive_minus_robust_e1", ">", 0.0);
  h.metric_json("default_regime", json_regime(base));
  std::string sweep = "[\n";
  for (std::size_t i = 0; i < noise_sweep.size(); ++i) {
    sweep += json_regime(noise_sweep[i]);
    sweep += (i + 1 < noise_sweep.size()) ? ",\n" : "\n";
  }
  sweep += "    ]";
  h.metric_json("noise_sweep", sweep);
  sweep = "[\n";
  for (std::size_t i = 0; i < dropout_sweep.size(); ++i) {
    sweep += json_regime(dropout_sweep[i]);
    sweep += (i + 1 < dropout_sweep.size()) ? ",\n" : "\n";
  }
  sweep += "    ]";
  h.metric_json("dropout_sweep", sweep);
  return h.finish();
}
