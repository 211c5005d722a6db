// Ablation B: independent random-variation share.
//
// Figure 2(b) shows the singular-value decay flattening when the random
// sensitivities triple.  This ablation turns that single comparison into a
// curve: scale in {1, 2, 3, 4}, reporting effective rank, selection size at
// eps = 5%, and observed errors — the paper's claim that "the number of
// representative paths would dramatically grow" with random variation.
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
  bench::Harness h("ablation_random_scale", argc, argv);
  const int scale_mode = util::repro_scale_mode();
  const std::string bench = "s1423";
  std::vector<double> scales{1.0, 2.0, 3.0, 4.0};
  if (scale_mode == 0) scales = {1.0, 3.0};

  std::printf(
      "=== Ablation B: random-variation scale (Figure 2 trend as curve) "
      "===\n\n");
  util::TextTable table({"scale", "|Ptar|", "m", "rank(A)", "effrank(5%)",
                         "|Pr|(eps=5%)", "e1%", "e2%"});
  // One experiment per scale, built concurrently on the shared pool; the
  // per-scale analysis below then runs in input order.
  std::vector<core::ExperimentConfig> cfgs;
  for (double s : scales) {
    cfgs.push_back(core::default_experiment_config(bench));
    cfgs.back().random_scale = s;
  }
  const auto experiments = [&] {
    const util::telemetry::Span span("bench.build_experiment");
    return core::build_experiments(cfgs);
  }();
  std::size_t first_pr = 0, last_pr = 0;
  for (std::size_t ei = 0; ei < experiments.size(); ++ei) {
    const double s = scales[ei];
    const core::Experiment& e = *experiments[ei];
    const auto& a = e.model().a();
    const core::SubsetSelector selector =
        core::make_subset_selector(a, linalg::gram(a));
    const linalg::Matrix& gram = selector.gram();
    core::PathSelectionOptions opt;
    opt.epsilon = 0.05;
    const core::PathSelectionResult sel =
        core::select_representative_paths(selector, gram, e.t_cons_ps(), opt);
    const core::LinearPredictor pred = core::make_path_predictor(
        a, e.model().mu_paths(), sel.representatives);
    core::McOptions mc;
    mc.samples = core::default_mc_samples() / 2;
    const core::McMetrics m = core::evaluate_predictor(e.model(), pred, mc);
    table.add_row({util::fmt_double(s, 1),
                   std::to_string(e.target_paths().size()),
                   std::to_string(e.model().num_params()),
                   std::to_string(selector.rank()),
                   std::to_string(core::effective_rank(
                       selector.singular_values(), 0.05)),
                   std::to_string(sel.representatives.size()),
                   util::fmt_percent(m.e1, 2), util::fmt_percent(m.e2, 2)});
    if (ei == 0) first_pr = sel.representatives.size();
    last_pr = sel.representatives.size();
    std::fflush(stdout);
  }
  std::printf("%s\nCSV\n%s", table.render().c_str(),
              table.render_csv().c_str());
  h.metric("sweep_points", experiments.size());
  h.metric("pr_at_min_scale", first_pr);
  h.metric("pr_at_max_scale", last_pr);
  h.metric("pr_growth",
           static_cast<int>(last_pr) - static_cast<int>(first_pr));
  h.gate("sweep_points", ">", 0);
  // The paper's claim: more random variation needs more representatives.
  h.gate("pr_growth", ">=", 0);
  return h.finish();
}
