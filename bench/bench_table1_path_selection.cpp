// Table 1: exact vs approximate representative path selection (eps = 5%).
//
// Columns follow the paper: benchmark, |G| (gates), |R| (regions), |Ptar|
// (target paths), |Pr| exact (= rank(A)), |Pr| approximate, and the
// Monte-Carlo prediction errors e1/e2 (%) of the approximate selection.
#include <cstdio>
#include <span>

#include "bench_common.h"
#include "core/benchmarks.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "linalg/gemm.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/text.h"

namespace {

// Golden Table 1 rows: exact rank and |Pr| must match exactly, e1 (a
// fraction) within kE1Tolerance.  One table per gated scale; REPRO_FULL runs
// are not pinned.
struct GoldenRow {
  const char* circuit;
  std::size_t exact_rank;
  std::size_t approx_size;
  double e1;
};
constexpr GoldenRow kFastGolden[] = {{"s1196", 133, 8, 0.026590},
                                     {"s1423", 132, 4, 0.021199},
                                     {"s1488", 132, 8, 0.030812}};
constexpr GoldenRow kDefaultGolden[] = {
    {"s1196", 211, 12, 0.021042},  {"s1423", 251, 4, 0.024792},
    {"s1488", 236, 8, 0.047172},   {"s5378", 539, 17, 0.038001},
    {"s9234", 615, 8, 0.044186},   {"s13207", 652, 13, 0.043634},
    {"s15850", 723, 4, 0.039107},  {"s35932", 824, 26, 0.037938},
    {"s38417", 943, 20, 0.035890}, {"s38584", 866, 20, 0.036532},
};
// 0.05 percentage points.
constexpr double kE1Tolerance = 5e-4;

}  // namespace

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
  h.gate("benches", ">", 0);
  std::span<const GoldenRow> golden;
  if (scale == 0) golden = kFastGolden;
  if (scale == 1) golden = kDefaultGolden;
  for (const GoldenRow& row : golden) {
    const std::string c = row.circuit;
    h.gate(c + ".exact_rank", "==", row.exact_rank);
    h.gate(c + ".approx_size", "==", row.approx_size);
    h.gate(c + ".e1", ">=", row.e1 - kE1Tolerance);
    h.gate(c + ".e1", "<=", row.e1 + kE1Tolerance);
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
    h.metric(name + ".exact_rank", sel.exact_rank);
    h.metric(name + ".approx_size", sel.representatives.size());
    h.metric(name + ".e1", m.e1);
    h.metric(name + ".e2", m.e2);
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
  return h.finish();
}
