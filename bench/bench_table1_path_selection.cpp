// Table 1: exact vs approximate representative path selection (eps = 5%).
//
// Columns follow the paper: benchmark, |G| (gates), |R| (regions), |Ptar|
// (target paths), |Pr| exact (= rank(A)), |Pr| approximate, and the
// Monte-Carlo prediction errors e1/e2 (%) of the approximate selection.
#include <cstdio>

#include "bench_common.h"
#include "core/benchmarks.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "linalg/gemm.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/text.h"

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  using namespace repro;
  bench::Harness h("table1_path_selection", argc, argv);
  const int scale = util::repro_scale_mode();
  std::vector<std::string> benches = circuit::known_benchmarks();
  if (scale == 0) {
    benches = {"s1196", "s1423", "s1488"};  // REPRO_FAST smoke subset
  }

  std::printf(
      "=== Table 1: Results for Approximate Path Selection (eps = 5%%) ===\n");
  std::printf("(scale mode: %s; see EXPERIMENTS.md)\n\n",
              scale == 0 ? "REPRO_FAST" : scale == 2 ? "REPRO_FULL" : "default");

  util::TextTable table({"BENCH", "|G|", "|R|", "|Ptar|", "|Pr|(exact)",
                         "|Pr|(eps=5%)", "e1%", "e2%", "sec"});
  double sum_e1 = 0.0, sum_e2 = 0.0;
  double sum_exact = 0.0, sum_approx = 0.0;
  int rows = 0;

  for (const std::string& name : benches) {
    util::Stopwatch sw;
    const core::Experiment e = [&] {
      const util::telemetry::Span span("bench.build_experiment");
      return core::Experiment(core::default_experiment_config(name));
    }();
    const auto& a = e.model().a();

    const core::SubsetSelector selector = core::make_subset_selector(a, [&] {
      const util::telemetry::Span span("bench.gram");
      return linalg::gram(a);
    }());
    const linalg::Matrix& gram = selector.gram();
    core::PathSelectionOptions opt;
    opt.epsilon = 0.05;
    const core::PathSelectionResult sel =
        core::select_representative_paths(selector, gram, e.t_cons_ps(), opt);

    const core::LinearPredictor pred = core::make_path_predictor(
        a, e.model().mu_paths(), sel.representatives);
    core::McOptions mc;
    mc.samples = core::default_mc_samples();
    const core::McMetrics m = core::evaluate_predictor(e.model(), pred, mc);

    table.add_row({name, std::to_string(e.total_gates()),
                   std::to_string(e.total_regions()),
                   std::to_string(e.target_paths().size()),
                   std::to_string(sel.exact_rank),
                   std::to_string(sel.representatives.size()),
                   util::fmt_percent(m.e1, 2), util::fmt_percent(m.e2, 2),
                   util::fmt_double(sw.seconds(), 1)});
    sum_e1 += m.e1;
    sum_e2 += m.e2;
    sum_exact += static_cast<double>(sel.exact_rank);
    sum_approx += static_cast<double>(sel.representatives.size());
    ++rows;
    std::fflush(stdout);
  }
  if (rows > 0) {
    const double n = rows;
    table.add_row({"Ave", "", "", "", util::fmt_double(sum_exact / n, 1),
                   util::fmt_double(sum_approx / n, 1),
                   util::fmt_percent(sum_e1 / n, 2),
                   util::fmt_percent(sum_e2 / n, 2), ""});
  }
  std::printf("%s\nCSV\n%s", table.render().c_str(),
              table.render_csv().c_str());

  if (rows > 0) {
    const double n = rows;
    h.metric("benches", static_cast<std::size_t>(rows));
    h.metric("avg_exact_rank", sum_exact / n);
    h.metric("avg_approx_size", sum_approx / n);
    h.metric("avg_e1", sum_e1 / n);
    h.metric("avg_e2", sum_e2 / n);
  }
  return h.finish(rows > 0);
}
