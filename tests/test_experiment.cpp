#include "core/benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/gemm.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::core {
namespace {

ExperimentConfig small_config(const std::string& bench = "s1196") {
  ExperimentConfig cfg;
  cfg.benchmark = bench;
  cfg.max_target_paths = 300;
  cfg.max_candidates = 3000;
  cfg.yield_mc_samples = 300;
  return cfg;
}

// Serial reference for estimate_circuit_yield: one die at a time, delays
// computed gate by gate from the graph and the spatial model while drawing,
// then a forward arrival pass over the netlist's own fanin lists.  Returns
// each die's worst capture arrival.
std::vector<double> reference_worst_delays(
    const timing::TimingGraph& graph, const variation::SpatialModel& spatial,
    std::size_t samples, std::uint64_t seed, double random_scale) {
  const circuit::Netlist& nl = graph.netlist();
  std::vector<std::vector<std::size_t>> gate_regions(nl.size());
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const circuit::Gate& g = nl.gate(static_cast<circuit::GateId>(i));
    if (!circuit::is_combinational(g.type)) continue;
    gate_regions[i] = spatial.covering_regions(g.x, g.y);
  }
  std::vector<double> leff(spatial.num_regions()), vt(spatial.num_regions());
  std::vector<double> delay(nl.size()), arrival(nl.size());
  std::vector<double> worst_per_die(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    util::Rng rng = util::Rng::stream(seed, s);
    for (double& v : leff) v = rng.normal();
    for (double& v : vt) v = rng.normal();
    for (std::size_t i = 0; i < nl.size(); ++i) {
      const auto id = static_cast<circuit::GateId>(i);
      const circuit::Gate& g = nl.gate(id);
      if (!circuit::is_combinational(g.type)) {
        delay[i] = 0.0;
        continue;
      }
      const auto& sig = graph.gate_sigmas(id);
      double dl = 0.0, dv = 0.0;
      for (int l = 0; l < spatial.levels(); ++l) {
        const double w = spatial.level_weight(l);
        dl += w * leff[gate_regions[i][static_cast<std::size_t>(l)]];
        dv += w * vt[gate_regions[i][static_cast<std::size_t>(l)]];
      }
      delay[i] = graph.gate_delay_ps(id) + sig.leff * dl + sig.vt * dv +
                 sig.random * random_scale * rng.normal();
    }
    double worst = 0.0;
    for (circuit::GateId id : graph.topological_order()) {
      const circuit::Gate& g = nl.gate(id);
      double arr = 0.0;
      for (circuit::GateId d : g.fanin) {
        arr = std::max(arr, arrival[static_cast<std::size_t>(d)]);
      }
      arrival[static_cast<std::size_t>(id)] =
          arr + delay[static_cast<std::size_t>(id)];
      if (g.type == circuit::GateType::kOutput) {
        worst = std::max(worst, arrival[static_cast<std::size_t>(id)]);
      }
    }
    worst_per_die[s] = worst;
  }
  return worst_per_die;
}

double reference_yield(const std::vector<double>& worst_per_die,
                       double t_cons) {
  std::size_t pass = 0;
  for (double w : worst_per_die) pass += w <= t_cons ? 1 : 0;
  return static_cast<double>(pass) /
         static_cast<double>(worst_per_die.size());
}

TEST(Experiment, YieldMatchesReferenceSampler) {
  // 203 dies: six full 32-die chunks and a short 11-die chunk whose last
  // lane group holds three dies.
  constexpr std::size_t kSamples = 203;
  constexpr std::uint64_t kSeed = 0x5eed;
  const std::size_t saved_threads = util::thread_count();
  for (const char* bench : {"s1196", "s1423", "s5378"}) {
    for (double random_scale : {1.0, 3.0}) {
      SCOPED_TRACE(std::string(bench) + " random_scale " +
                   std::to_string(random_scale));
      ExperimentConfig cfg = small_config(bench);
      cfg.random_scale = random_scale;
      const Experiment e(cfg);
      const std::vector<double> worst = reference_worst_delays(
          e.graph(), e.spatial(), kSamples, kSeed, random_scale);
      // Tcons around nominal, plus probes on both sides of a few dies' exact
      // worst delays: a one-ulp move of any probed die flips its verdict.
      std::vector<double> t_cons;
      for (double f : {0.97, 1.0, 1.03}) t_cons.push_back(f * e.nominal_delay_ps());
      for (std::size_t s : {0u, 7u, 8u, 31u, 100u, 202u}) {
        t_cons.push_back(worst[s]);
        t_cons.push_back(std::nextafter(worst[s], 0.0));
      }
      for (std::size_t threads : {1u, 4u}) {
        util::set_threads(threads);
        for (double t : t_cons) {
          EXPECT_EQ(estimate_circuit_yield(e.graph(), e.spatial(), t, kSamples,
                                           kSeed, random_scale),
                    reference_yield(worst, t))
              << "threads " << threads << ", t_cons " << t;
        }
      }
    }
  }
  util::set_threads(saved_threads);
}

TEST(Experiment, RecordsOneSpanPerStage) {
  const bool was_enabled = util::telemetry::enabled();
  util::telemetry::set_enabled(true);
  util::telemetry::reset();
  const Experiment first(small_config());
  const Experiment second(small_config("s1423"));
  const util::telemetry::Snapshot snap = util::telemetry::snapshot();
  util::telemetry::reset();
  util::telemetry::set_enabled(was_enabled);
  for (const char* stage : {"generate", "sta", "yield_mc", "enumerate",
                            "filter", "model"}) {
    const std::string name = std::string("core.experiment.") + stage;
    const auto it = std::find_if(
        snap.spans.begin(), snap.spans.end(),
        [&](const util::telemetry::SpanSample& sp) { return sp.name == name; });
    ASSERT_NE(it, snap.spans.end()) << name;
    EXPECT_EQ(it->count, 2u) << name;
  }
}

std::uint64_t span_count(const util::telemetry::Snapshot& snap,
                         const std::string& name) {
  for (const util::telemetry::SpanSample& sp : snap.spans) {
    if (sp.name == name) return sp.count;
  }
  return 0;
}

TEST(Experiment, BuildExperimentsMatchesSerialInInputOrder) {
  const std::vector<ExperimentConfig> cfgs{small_config("s1423"),
                                           small_config(), small_config()};
  const std::size_t saved_threads = util::thread_count();
  util::set_threads(4);
  const std::vector<std::unique_ptr<Experiment>> built =
      build_experiments(cfgs);
  util::set_threads(saved_threads);
  ASSERT_EQ(built.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const Experiment serial(cfgs[i]);
    EXPECT_EQ(built[i]->config().benchmark, cfgs[i].benchmark) << i;
    EXPECT_EQ(built[i]->circuit_yield(), serial.circuit_yield()) << i;
    EXPECT_EQ(built[i]->target_paths().size(), serial.target_paths().size());
    EXPECT_EQ(linalg::max_abs_diff(built[i]->model().a(), serial.model().a()),
              0.0)
        << i;
  }
}

TEST(Experiment, BuildExperimentsRethrowsAfterTheOthersFinish) {
  // The failing configs come first: the good ones after them must still be
  // built, at any thread count, and the first failure in input order is the
  // one rethrown.
  const std::vector<ExperimentConfig> cfgs{
      small_config("no_such_circuit_a"), small_config(),
      small_config("no_such_circuit_b"), small_config()};
  const bool was_enabled = util::telemetry::enabled();
  const std::size_t saved_threads = util::thread_count();
  util::telemetry::set_enabled(true);
  for (std::size_t threads : {1u, 4u}) {
    util::set_threads(threads);
    util::telemetry::reset();
    try {
      (void)build_experiments(cfgs);
      ADD_FAILURE() << "no exception, threads=" << threads;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("no_such_circuit_a"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(span_count(util::telemetry::snapshot(), "core.experiment.model"),
              2u)
        << "threads=" << threads;
  }
  util::telemetry::reset();
  util::telemetry::set_enabled(was_enabled);
  util::set_threads(saved_threads);
}

TEST(Experiment, BuildsSmallBenchmark) {
  const Experiment e(small_config());
  EXPECT_GT(e.nominal_delay_ps(), 0.0);
  EXPECT_DOUBLE_EQ(e.t_cons_ps(), e.nominal_delay_ps());
  EXPECT_GT(e.target_paths().size(), 10u);
  EXPECT_LE(e.target_paths().size(), 300u);
  EXPECT_GT(e.candidates_enumerated(), e.target_paths().size());
}

TEST(Experiment, AutoHierarchySmallUses21Regions) {
  const Experiment e(small_config());
  EXPECT_EQ(e.total_regions(), 21u);
}

TEST(Experiment, ModelShapesConsistent) {
  const Experiment e(small_config());
  const auto& m = e.model();
  EXPECT_EQ(m.num_paths(), e.target_paths().size());
  EXPECT_EQ(m.num_segments(), e.segments().segments.size());
  EXPECT_EQ(m.num_params(), 2 * e.covered_regions() + e.covered_gates());
  EXPECT_LE(e.covered_gates(), e.total_gates());
  EXPECT_LE(e.covered_regions(), e.total_regions());
}

TEST(Experiment, TargetsSortedByFailProbability) {
  // The first target path must not have lower mean+3sigma criticality than
  // the last one (sorted by yield loss).
  const Experiment e(small_config());
  const auto& m = e.model();
  const double first =
      1.0 - util::normal_cdf((e.t_cons_ps() - m.path_mu(0)) / m.path_sigma(0));
  const std::size_t last_i = m.num_paths() - 1;
  const double last =
      1.0 - util::normal_cdf((e.t_cons_ps() - m.path_mu(last_i)) /
                             m.path_sigma(last_i));
  EXPECT_GE(first, last - 1e-12);
}

TEST(Experiment, TargetsExceedYieldLossThreshold) {
  const Experiment e(small_config());
  const auto& m = e.model();
  const double threshold = kYieldLossFactor * (1.0 - e.circuit_yield());
  for (std::size_t p = 0; p < m.num_paths(); ++p) {
    const double q =
        1.0 -
        util::normal_cdf((e.t_cons_ps() - m.path_mu(p)) / m.path_sigma(p));
    EXPECT_GT(q, threshold);
  }
}

TEST(Experiment, DeterministicAcrossRuns) {
  const Experiment a(small_config());
  const Experiment b(small_config());
  EXPECT_EQ(a.target_paths().size(), b.target_paths().size());
  EXPECT_DOUBLE_EQ(a.circuit_yield(), b.circuit_yield());
  EXPECT_LT(linalg::max_abs_diff(a.model().a(), b.model().a()), 0.0 + 1e-15);
}

TEST(Experiment, RelaxedTconsRaisesYieldAndTightensFilter) {
  ExperimentConfig tight = small_config("s1488");
  // A large candidate pool so the yield-loss filter (not the cap) binds.
  tight.max_candidates = 20000;
  tight.max_target_paths = 100000;
  ExperimentConfig relaxed = tight;
  relaxed.tcons_factor = 1.08;
  const Experiment et(tight);
  const Experiment er(relaxed);
  // Relaxing Tcons raises circuit yield.  Under the linear delay model each
  // path's fail probability drops faster than the 0.01*(1-Y) threshold, so
  // fewer candidates qualify.  (The paper's larger Table-2 pools come from
  // re-synthesizing with a relaxed constraint, which changes the netlist —
  // see EXPERIMENTS.md; we model that by raising the extraction cap.)
  EXPECT_GT(er.circuit_yield(), et.circuit_yield());
  EXPECT_LT(er.target_paths().size(), et.target_paths().size());
}

TEST(Experiment, YieldEstimatorSanity) {
  const Experiment e(small_config());
  // Tcons = nominal delay and zero-mean variations: yield must be strictly
  // between 0 and 1 and typically below ~0.6 (max over many paths).
  EXPECT_GT(e.circuit_yield(), 0.0);
  EXPECT_LT(e.circuit_yield(), 1.0);
}

TEST(Experiment, RandomScalePropagates) {
  ExperimentConfig cfg = small_config();
  cfg.random_scale = 3.0;
  const Experiment e3(cfg);
  const Experiment e1(small_config());
  // Same circuit: the 3x model has strictly larger total sensitivity mass.
  EXPECT_GT(e3.model().a().frobenius_norm(),
            e1.model().a().frobenius_norm());
}

TEST(Experiment, DefaultConfigRespectsScaleMode) {
  unsetenv("REPRO_FAST");
  unsetenv("REPRO_FULL");
  const ExperimentConfig def = default_experiment_config("s1423");
  EXPECT_EQ(def.benchmark, "s1423");
  EXPECT_EQ(def.max_target_paths, 2000u);
  setenv("REPRO_FAST", "1", 1);
  EXPECT_LT(default_experiment_config("s1423").max_target_paths, 2000u);
  unsetenv("REPRO_FAST");
}

}  // namespace
}  // namespace repro::core
