// Ablation A: effective-rank threshold eta.
//
// DESIGN.md calls out the eta = 5% energy threshold as the knob linking the
// singular-value decay to the selection size.  This ablation sweeps eta and
// reports the effective rank, the matching selection size from Algorithm 1
// run at the corresponding tolerance, and the observed e1 — showing the
// smooth accuracy/effort trade-off the paper's Figure 2 implies.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/benchmarks.h"
#include "core/effective_rank.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "linalg/gemm.h"
#include "util/telemetry.h"
#include "util/text.h"

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  using namespace repro;
  bench::Harness h("ablation_eta", argc, argv);
  const int scale = util::repro_scale_mode();
  std::vector<std::string> benches{"s1423"};
  if (scale == 2) benches = {"s1423", "s9234"};

  std::printf("=== Ablation A: effective-rank threshold eta ===\n\n");
  util::TextTable table({"BENCH", "eta%", "effrank", "eps_tol%", "|Pr|",
                         "e1%", "e2%"});
  std::size_t points = 0;
  double worst_e1 = 0.0;
  for (const std::string& name : benches) {
    const util::telemetry::Span bench_span("bench.circuit");
    const core::Experiment e(core::default_experiment_config(name));
    const auto& a = e.model().a();
    const core::SubsetSelector selector =
        core::make_subset_selector(a, linalg::gram(a));
    const linalg::Matrix& gram = selector.gram();

    for (double eta : {0.01, 0.02, 0.05, 0.10, 0.20}) {
      const std::size_t eff = core::effective_rank(
          selector.singular_values(), eta);
      // Pair each eta with a proportional selection tolerance.
      core::PathSelectionOptions opt;
      opt.epsilon = eta;
      const core::PathSelectionResult sel =
          core::select_representative_paths(selector, gram, e.t_cons_ps(),
                                            opt);
      const core::LinearPredictor pred = core::make_path_predictor(
          a, e.model().mu_paths(), sel.representatives);
      core::McOptions mc;
      mc.samples = core::default_mc_samples() / 2;
      const core::McMetrics m = core::evaluate_predictor(e.model(), pred, mc);
      table.add_row({name, util::fmt_percent(eta, 0), std::to_string(eff),
                     util::fmt_percent(opt.epsilon, 0),
                     std::to_string(sel.representatives.size()),
                     util::fmt_percent(m.e1, 2), util::fmt_percent(m.e2, 2)});
      worst_e1 = std::max(worst_e1, m.e1);
      ++points;
      std::fflush(stdout);
    }
  }
  std::printf("%s\nCSV\n%s", table.render().c_str(),
              table.render_csv().c_str());
  h.metric("sweep_points", points);
  h.metric("worst_e1", worst_e1);
  h.gate("sweep_points", ">", 0);
  return h.finish();
}
