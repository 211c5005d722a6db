// Figure 2: normalized singular values of the transformation matrix A for
// S1423, (a) under the base configuration and (b) with the random-variation
// sensitivity scaled 3x.  The paper reads the effective rank off the decay:
// a steep drop means few representative paths suffice; scaling the random
// component flattens the decay.
#include <cstdio>

#include "bench_common.h"
#include "core/benchmarks.h"
#include "core/effective_rank.h"
#include "core/subset_select.h"
#include "linalg/gemm.h"
#include "util/telemetry.h"
#include "util/text.h"

namespace {

using namespace repro;

struct Series {
  std::string label;
  linalg::Vector normalized;
  std::size_t rank;
  std::size_t eff_rank_5;
  std::size_t eff_rank_1;
  std::size_t paths;
  std::size_t params;
};

Series summarize(const core::Experiment& e, const char* label) {
  const linalg::Matrix& a = e.model().a();
  const core::SubsetSelector selector =
      core::make_subset_selector(a, linalg::gram(a));
  const linalg::Vector& sv = selector.singular_values();
  Series s;
  s.label = label;
  s.normalized = core::normalized_singular_values(sv);
  s.rank = selector.rank();
  s.eff_rank_5 = core::effective_rank(sv, 0.05);
  s.eff_rank_1 = core::effective_rank(sv, 0.01);
  s.paths = e.model().num_paths();
  s.params = e.model().num_params();
  return s;
}

// Golden Fig. 2 summary per gated scale, exact; REPRO_FULL runs are not
// pinned.
struct Golden {
  std::size_t paths, params;
  std::size_t rank_base, rank_random_x3;
  std::size_t eff_rank_5_base, eff_rank_5_random_x3;
  std::size_t eff_rank_1_base, eff_rank_1_random_x3;
};
constexpr Golden kFastGolden{500, 381, 132, 132, 23, 56, 81, 106};
constexpr Golden kDefaultGolden{2000, 582, 251, 251, 30, 85, 136, 186};

}  // namespace

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  using namespace repro;
  bench::Harness h("fig2_singular_values", argc, argv);
  // The paper's qualitative claim: scaling the random component flattens
  // the singular-value decay, so the effective rank must not shrink.
  h.gate("eff_rank_5_growth", ">=", 0);
  const int scale = util::repro_scale_mode();
  if (scale == 0 || scale == 1) {
    const Golden& g = scale == 0 ? kFastGolden : kDefaultGolden;
    h.gate("paths", "==", g.paths);
    h.gate("params", "==", g.params);
    h.gate("rank_base", "==", g.rank_base);
    h.gate("rank_random_x3", "==", g.rank_random_x3);
    h.gate("eff_rank_5_base", "==", g.eff_rank_5_base);
    h.gate("eff_rank_5_random_x3", "==", g.eff_rank_5_random_x3);
    h.gate("eff_rank_1_base", "==", g.eff_rank_1_base);
    h.gate("eff_rank_1_random_x3", "==", g.eff_rank_1_random_x3);
  }
  std::printf("=== Figure 2: normalized singular values of A (s1423) ===\n\n");

  // Both configurations build concurrently on the shared pool.
  std::vector<core::ExperimentConfig> cfgs(2,
      core::default_experiment_config("s1423"));
  cfgs[0].random_scale = 1.0;
  cfgs[1].random_scale = 3.0;
  const auto experiments = [&] {
    const util::telemetry::Span span("bench.build_experiment");
    return core::build_experiments(cfgs);
  }();
  const Series a = summarize(*experiments[0], "fig2a_base");
  const Series b = summarize(*experiments[1], "fig2b_random_x3");

  std::printf("config            |Ptar|  m(params)  rank(A)  effrank(5%%)  "
              "effrank(1%%)\n");
  for (const Series* s : {&a, &b}) {
    std::printf("%-16s  %6zu  %9zu  %7zu  %11zu  %11zu\n", s->label.c_str(),
                s->paths, s->params, s->rank, s->eff_rank_5, s->eff_rank_1);
  }

  std::printf("\nFirst 30 normalized singular values (lambda_i / sum):\n");
  std::printf("%5s  %14s  %14s\n", "index", a.label.c_str(), b.label.c_str());
  for (std::size_t i = 0; i < 30; ++i) {
    const double va = i < a.normalized.size() ? a.normalized[i] : 0.0;
    const double vb = i < b.normalized.size() ? b.normalized[i] : 0.0;
    std::printf("%5zu  %14.6e  %14.6e\n", i + 1, va, vb);
  }

  // CSV block for plotting.
  std::printf("\nCSV,index,%s,%s\n", a.label.c_str(), b.label.c_str());
  const std::size_t n = std::max(a.normalized.size(), b.normalized.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 100); ++i) {
    const double va = i < a.normalized.size() ? a.normalized[i] : 0.0;
    const double vb = i < b.normalized.size() ? b.normalized[i] : 0.0;
    std::printf("CSV,%zu,%.9e,%.9e\n", i + 1, va, vb);
  }
  h.metric("paths", a.paths);
  h.metric("params", a.params);
  h.metric("rank_base", a.rank);
  h.metric("rank_random_x3", b.rank);
  h.metric("eff_rank_5_base", a.eff_rank_5);
  h.metric("eff_rank_5_random_x3", b.eff_rank_5);
  h.metric("eff_rank_1_base", a.eff_rank_1);
  h.metric("eff_rank_1_random_x3", b.eff_rank_1);
  h.metric("eff_rank_5_growth", static_cast<int>(b.eff_rank_5) -
                                    static_cast<int>(a.eff_rank_5));
  return h.finish();
}
