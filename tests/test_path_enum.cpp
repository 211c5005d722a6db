#include "timing/path_enum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <queue>
#include <set>

#include "circuit/generator.h"
#include "circuit/placement.h"
#include "test_helpers.h"
#include "timing/sizing.h"
#include "timing/sta.h"
#include "util/thread_pool.h"

namespace repro::timing {
namespace {

// Serial reference for enumerate_worst_paths_per_endpoint: one full reverse
// sweep per sink over the netlist's own fanout lists, then a best-first
// search with a fresh heap, then the merge.  Kept here, independent of the
// sink-batched CSR sweep, so the production code is checked against it.
namespace reference {

constexpr double kNegInf = -1e300;

struct ArenaNode {
  circuit::GateId gate;
  int parent;
};

struct HeapEntry {
  double bound;
  double prefix;
  int arena_idx;
  bool operator<(const HeapEntry& other) const { return bound < other.bound; }
};

std::vector<double> suffix_bounds(const TimingGraph& graph,
                                  const std::vector<double>& score,
                                  const std::vector<char>& is_sink) {
  const circuit::Netlist& nl = graph.netlist();
  std::vector<double> suffix(nl.size(), kNegInf);
  const auto& topo = graph.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const auto i = static_cast<std::size_t>(*it);
    if (is_sink[i]) {
      suffix[i] = 0.0;
      continue;
    }
    double best = kNegInf;
    for (circuit::GateId s : nl.gate(*it).fanout) {
      const double sfx = suffix[static_cast<std::size_t>(s)];
      if (sfx <= kNegInf) continue;
      best = std::max(best, score[static_cast<std::size_t>(s)] + sfx);
    }
    suffix[i] = best;
  }
  return suffix;
}

std::vector<Path> best_first(const TimingGraph& graph,
                             const std::vector<double>& score,
                             const std::vector<double>& suffix,
                             const std::vector<char>& is_sink,
                             std::size_t max_paths,
                             double min_score_fraction) {
  const circuit::Netlist& nl = graph.netlist();
  std::vector<ArenaNode> arena;
  std::priority_queue<HeapEntry> heap;
  for (circuit::GateId id : nl.inputs()) {
    if (suffix[static_cast<std::size_t>(id)] <= kNegInf) continue;
    const double prefix = score[static_cast<std::size_t>(id)];
    arena.push_back({id, -1});
    heap.push({prefix + suffix[static_cast<std::size_t>(id)], prefix,
               static_cast<int>(arena.size()) - 1});
  }
  std::vector<Path> out;
  double best_score = -1.0;
  while (!heap.empty() && out.size() < max_paths) {
    const HeapEntry e = heap.top();
    heap.pop();
    const circuit::GateId gid =
        arena[static_cast<std::size_t>(e.arena_idx)].gate;
    if (is_sink[static_cast<std::size_t>(gid)]) {
      Path p;
      p.score = e.prefix;
      for (int cur = e.arena_idx; cur >= 0;
           cur = arena[static_cast<std::size_t>(cur)].parent) {
        p.gates.push_back(arena[static_cast<std::size_t>(cur)].gate);
      }
      std::reverse(p.gates.begin(), p.gates.end());
      if (best_score < 0.0) best_score = p.score;
      if (min_score_fraction > 0.0 &&
          p.score < min_score_fraction * best_score) {
        break;
      }
      out.push_back(std::move(p));
      continue;
    }
    for (circuit::GateId s : nl.gate(gid).fanout) {
      const double sfx = suffix[static_cast<std::size_t>(s)];
      if (sfx <= kNegInf) continue;
      const double prefix = e.prefix + score[static_cast<std::size_t>(s)];
      arena.push_back({s, e.arena_idx});
      heap.push({prefix + sfx, prefix, static_cast<int>(arena.size()) - 1});
    }
  }
  return out;
}

std::vector<Path> per_endpoint(const TimingGraph& graph,
                               const PathEnumOptions& options,
                               std::size_t min_quota = 8) {
  const circuit::Netlist& nl = graph.netlist();
  const auto& outputs = nl.outputs();
  std::vector<double> score(nl.size());
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<circuit::GateId>(i);
    score[i] = graph.gate_delay_ps(id) +
               options.sigma_weight * graph.gate_sigma_total_ps(id);
  }
  const std::size_t quota = std::max(
      min_quota, options.max_paths / std::max<std::size_t>(outputs.size(), 1));
  std::vector<Path> all;
  for (circuit::GateId sink : outputs) {
    std::vector<char> is_sink(nl.size(), 0);
    is_sink[static_cast<std::size_t>(sink)] = 1;
    const std::vector<double> suffix = suffix_bounds(graph, score, is_sink);
    std::vector<Path> paths = best_first(graph, score, suffix, is_sink, quota,
                                         options.min_score_fraction);
    all.insert(all.end(), std::make_move_iterator(paths.begin()),
               std::make_move_iterator(paths.end()));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Path& a, const Path& b) { return a.score > b.score; });
  if (all.size() > options.max_paths) all.resize(options.max_paths);
  return all;
}

}  // namespace reference

void expect_same_paths(const std::vector<Path>& got,
                       const std::vector<Path>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].gates, want[i].gates) << "path " << i;
    ASSERT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)), 0)
        << "path " << i << ": " << got[i].score << " vs " << want[i].score;
  }
}

TEST(PathEnum, CountPathsChain) {
  const circuit::Netlist nl = test::chain_netlist(6);
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  EXPECT_DOUBLE_EQ(count_paths(tg), 1.0);
}

TEST(PathEnum, CountPathsDiamond) {
  const circuit::Netlist nl = test::diamond_netlist(7);
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  EXPECT_DOUBLE_EQ(count_paths(tg), 7.0);
}

TEST(PathEnum, CountPathsFigure1) {
  const circuit::Netlist nl = test::figure1_netlist();
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  EXPECT_DOUBLE_EQ(count_paths(tg), 4.0);
}

TEST(PathEnum, EnumeratesAllPathsWhenBudgetAllows) {
  const circuit::Netlist nl = test::figure1_netlist();
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = enumerate_worst_paths(tg, {.max_paths = 100});
  EXPECT_EQ(paths.size(), 4u);
  // All distinct.
  std::set<std::vector<circuit::GateId>> uniq;
  for (const Path& p : paths) uniq.insert(p.gates);
  EXPECT_EQ(uniq.size(), 4u);
}

TEST(PathEnum, PathsAreValidLaunchToCaptureWalks) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = enumerate_worst_paths(tg, {.max_paths = 200});
  ASSERT_FALSE(paths.empty());
  for (const Path& p : paths) {
    ASSERT_GE(p.gates.size(), 2u);
    EXPECT_EQ(nl.gate(p.gates.front()).type, circuit::GateType::kInput);
    EXPECT_EQ(nl.gate(p.gates.back()).type, circuit::GateType::kOutput);
    for (std::size_t i = 0; i + 1 < p.gates.size(); ++i) {
      const auto& fo = nl.gate(p.gates[i]).fanout;
      EXPECT_NE(std::find(fo.begin(), fo.end(), p.gates[i + 1]), fo.end());
    }
  }
}

TEST(PathEnum, ScoresNonIncreasing) {
  circuit::Netlist nl = circuit::generate_benchmark("s1423");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = enumerate_worst_paths(tg, {.max_paths = 500});
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i - 1].score, paths[i].score - 1e-9);
  }
}

TEST(PathEnum, FirstPathIsNominalCriticalAtZeroSigmaWeight) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  PathEnumOptions opt;
  opt.max_paths = 1;
  opt.sigma_weight = 0.0;
  const auto paths = enumerate_worst_paths(tg, opt);
  ASSERT_EQ(paths.size(), 1u);
  const StaResult sta = run_sta(tg);
  EXPECT_NEAR(paths.front().score, sta.circuit_delay, 1e-9);
  EXPECT_NEAR(path_delay_ps(tg, paths.front().gates), sta.circuit_delay,
              1e-9);
}

TEST(PathEnum, ScoreEqualsSumOfGateScores) {
  const circuit::Netlist nl = test::figure1_netlist();
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  PathEnumOptions opt;
  opt.sigma_weight = 2.0;
  const auto paths = enumerate_worst_paths(tg, opt);
  for (const Path& p : paths) {
    double expect = 0.0;
    for (circuit::GateId id : p.gates) {
      expect += tg.gate_delay_ps(id) + 2.0 * tg.gate_sigma_total_ps(id);
    }
    EXPECT_NEAR(p.score, expect, 1e-9);
  }
}

TEST(PathEnum, MaxPathsRespected) {
  circuit::Netlist nl = circuit::generate_benchmark("s1423");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = enumerate_worst_paths(tg, {.max_paths = 37});
  EXPECT_EQ(paths.size(), 37u);
}

TEST(PathEnum, PerEndpointBalancesCoverage) {
  circuit::Netlist nl = circuit::generate_benchmark("s1423");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  PathEnumOptions opt;
  opt.max_paths = 790;  // 10 per endpoint for 79 captures
  const auto global_paths = enumerate_worst_paths(tg, opt);
  const auto balanced = enumerate_worst_paths_per_endpoint(tg, opt);
  auto distinct_endpoints = [&](const std::vector<Path>& ps) {
    std::set<circuit::GateId> eps;
    for (const Path& p : ps) eps.insert(p.gates.back());
    return eps.size();
  };
  // Global enumeration drowns in the worst cone; the balanced variant must
  // reach (nearly) every capture point.
  EXPECT_GT(distinct_endpoints(balanced), distinct_endpoints(global_paths));
  EXPECT_GE(distinct_endpoints(balanced), nl.outputs().size() / 2);
}

TEST(PathEnum, PerEndpointScoresSortedAndValid) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = enumerate_worst_paths_per_endpoint(tg, {.max_paths = 300});
  ASSERT_FALSE(paths.empty());
  EXPECT_LE(paths.size(), 300u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i - 1].score, paths[i].score - 1e-9);
  }
  for (const Path& p : paths) {
    double expect = 0.0;
    for (circuit::GateId id : p.gates) {
      expect += tg.gate_delay_ps(id) + 3.0 * tg.gate_sigma_total_ps(id);
    }
    EXPECT_NEAR(p.score, expect, 1e-9);
  }
}

TEST(PathEnum, PerEndpointMatchesSerialReference) {
  struct Case {
    const char* bench;
    bool sized;  // placed and area-recovered, as an Experiment builds it
    PathEnumOptions options;
  };
  const Case cases[] = {
      {"s1196", false, {.max_paths = 3000}},
      {"s1423", true, {.max_paths = 20000}},
      {"s5378", true, {.max_paths = 20000}},
      {"s1423", true,
       {.max_paths = 20000, .sigma_weight = 2.0, .min_score_fraction = 0.97}},
  };
  const std::size_t saved_threads = util::thread_count();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.bench);
    circuit::Netlist nl = circuit::generate_benchmark(c.bench);
    const circuit::GateLibrary lib;
    if (c.sized) circuit::place(nl, {});
    TimingGraph tg(nl, lib);
    if (c.sized) emulate_area_recovery(tg);
    const std::vector<Path> want = reference::per_endpoint(tg, c.options);
    ASSERT_FALSE(want.empty());
    for (std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      util::set_threads(threads);
      expect_same_paths(enumerate_worst_paths_per_endpoint(tg, c.options),
                        want);
    }
  }
  util::set_threads(saved_threads);
}

TEST(PathEnum, GlobalEnumerationMatchesSerialReference) {
  circuit::Netlist nl = circuit::generate_benchmark("s1423");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const PathEnumOptions opt{.max_paths = 500};
  std::vector<double> score(nl.size());
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<circuit::GateId>(i);
    score[i] = tg.gate_delay_ps(id) + 3.0 * tg.gate_sigma_total_ps(id);
  }
  std::vector<char> is_sink(nl.size(), 0);
  for (circuit::GateId id : nl.outputs()) {
    is_sink[static_cast<std::size_t>(id)] = 1;
  }
  const std::vector<double> suffix =
      reference::suffix_bounds(tg, score, is_sink);
  expect_same_paths(enumerate_worst_paths(tg, opt),
                    reference::best_first(tg, score, suffix, is_sink,
                                          opt.max_paths, 0.0));
}

TEST(PathEnum, CoveragePathsTouchEveryGate) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = worst_path_through_each_gate(tg);
  std::set<circuit::GateId> covered;
  for (const Path& p : paths) {
    for (circuit::GateId g : p.gates) covered.insert(g);
  }
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<circuit::GateId>(i);
    if (circuit::is_combinational(nl.gate(id).type)) {
      EXPECT_TRUE(covered.contains(id)) << nl.gate(id).name;
    }
  }
}

TEST(PathEnum, CoveragePathsAreValidAndDeduplicated) {
  circuit::Netlist nl = circuit::generate_benchmark("s1423");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = worst_path_through_each_gate(tg);
  EXPECT_LE(paths.size(), nl.combinational_count());
  std::set<std::vector<circuit::GateId>> uniq;
  for (const Path& p : paths) {
    EXPECT_EQ(nl.gate(p.gates.front()).type, circuit::GateType::kInput);
    EXPECT_EQ(nl.gate(p.gates.back()).type, circuit::GateType::kOutput);
    for (std::size_t i = 0; i + 1 < p.gates.size(); ++i) {
      const auto& fo = nl.gate(p.gates[i]).fanout;
      ASSERT_NE(std::find(fo.begin(), fo.end(), p.gates[i + 1]), fo.end());
    }
    uniq.insert(p.gates);
  }
  EXPECT_EQ(uniq.size(), paths.size());
}

TEST(PathEnum, CoverageWorstPathMatchesGlobalWorst) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto coverage = worst_path_through_each_gate(tg);
  const auto global_paths = enumerate_worst_paths(tg, {.max_paths = 1});
  ASSERT_FALSE(coverage.empty());
  ASSERT_FALSE(global_paths.empty());
  // The best coverage path is the overall worst path.
  EXPECT_NEAR(coverage.front().score, global_paths.front().score, 1e-9);
}

TEST(PathEnum, MinScoreFractionStopsEarly) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  PathEnumOptions opt;
  opt.max_paths = 100000;
  opt.min_score_fraction = 0.98;
  const auto paths = enumerate_worst_paths(tg, opt);
  ASSERT_FALSE(paths.empty());
  for (const Path& p : paths) {
    EXPECT_GE(p.score, 0.98 * paths.front().score - 1e-9);
  }
  EXPECT_LT(paths.size(), 100000u);
}

}  // namespace
}  // namespace repro::timing
