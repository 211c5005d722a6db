// Table 2: hybrid path/segment selection vs approximate path selection at
// eps = 8% under a enlarged target-path pools (the paper relaxes the synthesis constraint).
//
// Columns follow the paper: benchmark, |G|, |R|, |G_C|, |R_C|, |Ptar|, then
// approximate path selection (|Pr|, e1, e2), then the hybrid approach
// (|Pr|, |Sr|, |Pr|+|Sr|, e1, e2).  eps' is swept and the minimum
// |Pr|+|Sr| kept, as in the paper.
#include <algorithm>
#include <cstdio>
#include <span>

#include "bench_common.h"
#include "core/benchmarks.h"
#include "core/hybrid_selection.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "linalg/gemm.h"
#include "util/stopwatch.h"
#include "util/text.h"

namespace {

// Golden hybrid |Pr|+|Sr| per circuit, exact, and Algorithm 3's own total
// before the path-only fallback, in [alg3_lo, alg3_hi].  One table per gated
// scale; REPRO_FULL runs are not pinned.  alg3_total is exact except on
// default-scale s15850: two of its target paths have identical rows of A,
// their Gram diagonals differ in the last bit depending on the build flags
// and the SIMD tier, so the first pivot of P_r1 takes either path and
// Algorithm 3 keeps 11 or 12 segments.
struct GoldenRow {
  const char* circuit;
  std::size_t hybrid_total;
  std::size_t alg3_lo;
  std::size_t alg3_hi;
};
constexpr GoldenRow kFastGolden[] = {
    {"s1196", 3, 9, 9}, {"s1423", 1, 7, 7}, {"s1488", 3, 12, 12}};
constexpr GoldenRow kDefaultGolden[] = {
    {"s1196", 2, 9, 9},     {"s1423", 1, 7, 7},     {"s1488", 3, 13, 13},
    {"s5378", 4, 23, 23},   {"s9234", 2, 18, 18},   {"s13207", 2, 18, 18},
    {"s15850", 2, 11, 12},  {"s35932", 3, 24, 24},  {"s38417", 3, 19, 19},
    {"s38584", 3, 19, 19},
};

}  // namespace

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  using namespace repro;
  bench::Harness h("table2_hybrid", argc, argv);
  const int scale = util::repro_scale_mode();
  std::vector<std::string> benches = circuit::known_benchmarks();
  if (scale == 0) benches = {"s1196", "s1423", "s1488"};
  h.gate("benches", ">", 0);
  std::span<const GoldenRow> golden;
  if (scale == 0) golden = kFastGolden;
  if (scale == 1) golden = kDefaultGolden;
  for (const GoldenRow& row : golden) {
    const std::string c = row.circuit;
    h.gate(c + ".hybrid_total", "==", row.hybrid_total);
    if (row.alg3_lo == row.alg3_hi) {
      h.gate(c + ".alg3_total", "==", row.alg3_lo);
    } else {
      h.gate(c + ".alg3_total", ">=", row.alg3_lo);
      h.gate(c + ".alg3_total", "<=", row.alg3_hi);
    }
  }

  constexpr double kEps = 0.08;
  // eps' sweep: the paper parallelizes this at design stage; serially we
  // sweep 3 values at full scale and 2 in the default mode.
  const std::vector<double> eps_prime_sweep =
      (scale == 2) ? std::vector<double>{0.02, 0.04, 0.06}
                   : std::vector<double>{0.05};

  std::printf(
      "=== Table 2: Hybrid Path/Segment Selection (eps = 8%%, enlarged pool) "
      "===\n\n");

  util::TextTable table({"BENCH", "|G|", "|R|", "|G_C|", "|R_C|", "|Ptar|",
                         "P:|Pr|", "P:e1%", "P:e2%", "H:|Pr|", "H:|Sr|",
                         "H:|Pr|+|Sr|", "H:e1%", "H:e2%", "sec"});
  double s_pe1 = 0, s_pe2 = 0, s_he1 = 0, s_he2 = 0;
  double s_ppr = 0, s_hpr = 0, s_hsr = 0;
  int rows = 0;

  for (const std::string& name : benches) {
    util::Stopwatch sw;
    const util::telemetry::Span bench_span("bench.circuit");
    core::ExperimentConfig cfg = core::default_experiment_config(name);
    // The paper obtains its larger Table-2 pools by re-synthesizing under a
    // relaxed timing constraint; our substitute is a larger extraction cap
    // over the same netlist (see EXPERIMENTS.md).  The 2x pool runs at full
    // scale; the gated scales keep the pool their golden rows were pinned on.
    if (scale == 2) {
      cfg.max_target_paths *= 2;
    } else {
      // The golden rows above are pinned on this capped pool.
      cfg.max_target_paths = std::min<std::size_t>(cfg.max_target_paths, 1200);
    }
    const core::Experiment e(cfg);
    const auto& m = e.model();

    // Approximate path selection at eps = 8%.
    const core::SubsetSelector selector =
        core::make_subset_selector(m.a(), linalg::gram(m.a()));
    const linalg::Matrix& gram = selector.gram();
    core::PathSelectionOptions popt;
    popt.epsilon = kEps;
    const core::PathSelectionResult psel =
        core::select_representative_paths(selector, gram, e.t_cons_ps(),
                                          popt);
    const core::LinearPredictor ppred = core::make_path_predictor(
        m.a(), m.mu_paths(), psel.representatives);
    core::McOptions mc;
    mc.samples = core::default_mc_samples() / (scale == 2 ? 1 : 2);
    const core::McMetrics pmet = core::evaluate_predictor(m, ppred, mc);

    // Hybrid selection with eps' sweep.
    core::HybridOptions hopt;
    hopt.epsilon = kEps;
    const core::HybridResult hyb = core::sweep_hybrid_selection(
        selector, psel, m, e.t_cons_ps(), eps_prime_sweep, hopt);
    // A fallback to psel's path set measures what ppred measures and
    // predicts with the same bits, so its Monte Carlo is pmet.
    const bool same_set = hyb.rep_segments.empty() &&
                          hyb.rep_paths == psel.representatives;
    const core::McMetrics hmet =
        same_set ? pmet : core::evaluate_predictor(m, hyb.predictor, mc);

    table.add_row(
        {name, std::to_string(e.total_gates()),
         std::to_string(e.total_regions()), std::to_string(e.covered_gates()),
         std::to_string(e.covered_regions()),
         std::to_string(e.target_paths().size()),
         std::to_string(psel.representatives.size()),
         util::fmt_percent(pmet.e1, 2), util::fmt_percent(pmet.e2, 2),
         std::to_string(hyb.rep_paths.size()),
         std::to_string(hyb.rep_segments.size()),
         std::to_string(hyb.rep_paths.size() + hyb.rep_segments.size()),
         util::fmt_percent(hmet.e1, 2), util::fmt_percent(hmet.e2, 2),
         util::fmt_double(sw.seconds(), 1)});
    h.metric(name + ".path_pr", psel.representatives.size());
    h.metric(name + ".path_e1", pmet.e1);
    h.metric(name + ".hybrid_pr", hyb.rep_paths.size());
    h.metric(name + ".hybrid_sr", hyb.rep_segments.size());
    h.metric(name + ".hybrid_total",
             hyb.rep_paths.size() + hyb.rep_segments.size());
    h.metric(name + ".hybrid_e1", hmet.e1);
    h.metric(name + ".alg3_total", hyb.alg3_total);
    h.metric(name + ".alg3_eps", hyb.alg3_eps);
    s_pe1 += pmet.e1;
    s_pe2 += pmet.e2;
    s_he1 += hmet.e1;
    s_he2 += hmet.e2;
    s_ppr += static_cast<double>(psel.representatives.size());
    s_hpr += static_cast<double>(hyb.rep_paths.size());
    s_hsr += static_cast<double>(hyb.rep_segments.size());
    ++rows;
    std::fflush(stdout);
  }
  if (rows > 0) {
    const double n = rows;
    table.add_row({"Ave", "", "", "", "", "", util::fmt_double(s_ppr / n, 1),
                   util::fmt_percent(s_pe1 / n, 2),
                   util::fmt_percent(s_pe2 / n, 2),
                   util::fmt_double(s_hpr / n, 1),
                   util::fmt_double(s_hsr / n, 1),
                   util::fmt_double((s_hpr + s_hsr) / n, 1),
                   util::fmt_percent(s_he1 / n, 2),
                   util::fmt_percent(s_he2 / n, 2), ""});
  }
  std::printf("%s\nCSV\n%s", table.render().c_str(),
              table.render_csv().c_str());
  if (rows > 0) {
    const double n = rows;
    h.metric("benches", static_cast<std::size_t>(rows));
    h.metric("avg_path_pr", s_ppr / n);
    h.metric("avg_path_e1", s_pe1 / n);
    h.metric("avg_path_e2", s_pe2 / n);
    h.metric("avg_hybrid_pr", s_hpr / n);
    h.metric("avg_hybrid_sr", s_hsr / n);
    h.metric("avg_hybrid_e1", s_he1 / n);
    h.metric("avg_hybrid_e2", s_he2 / n);
  }
  return h.finish();
}
