// Ablation D: subset-selection heuristic.
//
// DESIGN.md calls out the choice of row-selection heuristic inside
// Algorithm 1.  This ablation compares, for a range of r on two benchmarks:
//   * Algorithm 2 (paper): QR-with-column-pivoting on U_r^T (SVD-truncated)
//   * greedy residual variance: pivoted-Cholesky order of A A^T
// reporting the achieved analytic worst-case error at each budget.  The SVD
// route aims the pivots at the dominant subspace; the greedy route is
// factorization-cheap but slightly less targeted at small r.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/benchmarks.h"
#include "core/error_model.h"
#include "core/subset_select.h"
#include "linalg/gemm.h"
#include "util/telemetry.h"
#include "util/text.h"

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  using namespace repro;
  bench::Harness h("ablation_selection", argc, argv);
  const int scale = util::repro_scale_mode();
  std::vector<std::string> benches{"s1423", "s5378"};
  if (scale == 0) benches = {"s1423"};

  std::printf("=== Ablation D: Algorithm-2 (SVD+QRCP) vs greedy pivot "
              "selection ===\n\n");
  util::TextTable table({"BENCH", "r", "eps_r(alg2)%", "eps_r(greedy)%"});
  std::size_t points = 0, alg2_wins = 0;
  for (const std::string& name : benches) {
    const util::telemetry::Span bench_span("bench.circuit");
    const core::Experiment e(core::default_experiment_config(name));
    const auto& a = e.model().a();
    const core::SubsetSelector selector(a, linalg::gram(a));
    const linalg::Matrix& gram = selector.gram();
    const std::size_t rank = selector.rank();
    const std::vector<int>& order = selector.greedy_order(gram);
    for (double frac : {0.02, 0.05, 0.1, 0.2, 0.4}) {
      const std::size_t r = std::max<std::size_t>(
          1, static_cast<std::size_t>(frac * static_cast<double>(rank)));
      const auto alg2 = selector.select(r);
      const std::vector<int> greedy(
          order.begin(), order.begin() + static_cast<std::ptrdiff_t>(r));
      const core::SelectionErrors e2 = core::selection_errors_from_gram(
          gram, alg2, e.t_cons_ps(), 3.0);
      const core::SelectionErrors eg = core::selection_errors_from_gram(
          gram, greedy, e.t_cons_ps(), 3.0);
      table.add_row({name, std::to_string(r), util::fmt_percent(e2.eps_r, 2),
                     util::fmt_percent(eg.eps_r, 2)});
      if (e2.eps_r <= eg.eps_r) ++alg2_wins;
      ++points;
      std::fflush(stdout);
    }
  }
  std::printf("%s\nCSV\n%s", table.render().c_str(),
              table.render_csv().c_str());
  h.metric("sweep_points", points);
  h.metric("alg2_wins", alg2_wins);
  h.gate("sweep_points", ">", 0);
  return h.finish();
}
