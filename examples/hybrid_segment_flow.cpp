// Hybrid path/segment selection flow (the Table-2 recipe): when the random
// variation dimension is high, measuring a few *segments* via custom test
// structures beats measuring paths alone.
//
// Usage: example_hybrid_segment_flow [benchmark] [epsilon%]
//        defaults: s1423 8
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/benchmarks.h"
#include "core/hybrid_selection.h"
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
  const double eps = (argc > 2 ? std::atof(argv[2]) : 8.0) / 100.0;

  std::printf("=== Hybrid path/segment selection: %s (eps = %.1f%%) ===\n\n",
              bench.c_str(), eps * 100.0);
  util::Stopwatch sw;

  core::ExperimentConfig cfg = core::default_experiment_config(bench);
  cfg.max_target_paths *= 2;  // Table-2-style larger target pool
  const core::Experiment e(cfg);
  const auto& m = e.model();
  std::printf("targets %zu paths / %zu segments / %zu parameters\n\n",
              m.num_paths(), m.num_segments(), m.num_params());

  // Baseline: path-only approximate selection.  Algorithm 3 runs on the
  // same selector and falls back to this set when it is smaller.
  const core::SubsetSelector selector =
      core::make_subset_selector(m.a(), linalg::gram(m.a()));
  core::PathSelectionOptions popt;
  popt.epsilon = eps;
  const core::PathSelectionResult psel = core::select_representative_paths(
      selector, selector.gram(), e.t_cons_ps(), popt);
  std::printf("path-only Algorithm 1: |Pr| = %zu (rank(A) = %zu)\n",
              psel.representatives.size(), psel.exact_rank);

  // Hybrid Algorithm 3 with eps' sweep.
  core::HybridOptions hopt;
  hopt.epsilon = eps;
  const core::HybridResult hyb = core::sweep_hybrid_selection(
      selector, psel, m, e.t_cons_ps(), {0.03, 0.05}, hopt);
  std::printf("hybrid Algorithm 3 (best eps' = %.1f%%):\n",
              hyb.eps_prime * 100.0);
  std::printf("  measured paths    |Pr| = %zu\n", hyb.rep_paths.size());
  std::printf("  measured segments |Sr| = %zu\n", hyb.rep_segments.size());
  std::printf("  total measurements      = %zu  (vs %zu path-only, %zu "
              "exact)\n",
              hyb.rep_paths.size() + hyb.rep_segments.size(),
              psel.representatives.size(), hyb.exact_rank);
  std::printf("  analytic worst-case error = %.2f%% (tolerance %.1f%%)\n",
              hyb.eps_achieved * 100.0, eps * 100.0);
  std::printf("  Algorithm 3 alone: %zu measurements, error %.2f%% "
              "(%zu paths detected in step 3)\n",
              hyb.alg3_total, hyb.alg3_eps * 100.0, hyb.detected_paths);

  // The selected segments are the ones to instrument with custom test
  // structures; print the first few as a design hint.
  std::printf("\nsegments to instrument (first 10 of %zu):\n",
              hyb.rep_segments.size());
  for (std::size_t k = 0; k < std::min<std::size_t>(10, hyb.rep_segments.size());
       ++k) {
    const auto& seg = e.segments().segments[
        static_cast<std::size_t>(hyb.rep_segments[k])];
    std::printf("  segment %d: %s .. %s (%zu gates)\n", hyb.rep_segments[k],
                e.netlist().gate(seg.gates.front()).name.c_str(),
                e.netlist().gate(seg.gates.back()).name.c_str(),
                seg.gates.size());
  }

  // Monte-Carlo validation of the joint predictor.
  core::McOptions mc;
  mc.samples = core::default_mc_samples();
  const core::McMetrics met = core::evaluate_predictor(m, hyb.predictor, mc);
  std::printf("\nMonte-Carlo (%zu samples): e1 = %.2f%%, e2 = %.2f%%\n",
              met.samples, met.e1 * 100.0, met.e2 * 100.0);
  std::printf("\ntotal %.1f s\n", sw.seconds());
  return 0;
}
