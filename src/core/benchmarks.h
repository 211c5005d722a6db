// End-to-end experiment pipeline (paper Section 6 configuration):
//
//   benchmark name -> synthetic ISCAS'89-scale netlist -> placement ->
//   timing graph -> nominal STA (Tcons) -> k-worst candidate paths ->
//   circuit-yield Monte Carlo -> statistical target-path extraction
//   (yield-loss > factor * (1 - Y), after [Xie ASPDAC'09]) ->
//   segment decomposition -> variation model (A, Sigma, G, mu).
//
// Everything downstream (Tables 1-2, Figure 2, guard-band analysis, the
// ablations) consumes an Experiment built here, so all experiments share
// one deterministic, documented configuration path.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "circuit/generator.h"
#include "circuit/netlist.h"
#include "timing/path_enum.h"
#include "timing/segments.h"
#include "timing/sta.h"
#include "timing/timing_graph.h"
#include "variation/spatial_model.h"
#include "variation/variation_model.h"

namespace repro::core {

// Target-path extraction keeps the candidates with yield loss
// q_p > kYieldLossFactor * (1 - Y).
inline constexpr double kYieldLossFactor = 0.01;

struct ExperimentConfig {
  std::string benchmark = "s1423";
  double tcons_factor = 1.0;       // Tcons = factor * nominal circuit delay
  std::size_t max_target_paths = 2000;
  std::size_t max_candidates = 20000;
  std::size_t yield_mc_samples = 2000;
  double random_scale = 1.0;       // Figure 2(b): 3.0
  double enum_sigma_weight = 3.0;
  // Emulate the paper's min-area synthesis (area recovery toward the slack
  // wall) so that many cones are near-critical, as in real synthesized
  // netlists.  See timing/sizing.h.
  bool emulate_synthesis = true;
  std::uint64_t seed = 0;          // 0 = derive from benchmark name
};

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);

  const ExperimentConfig& config() const { return config_; }
  const circuit::Netlist& netlist() const { return netlist_; }
  const timing::TimingGraph& graph() const { return *graph_; }
  const variation::SpatialModel& spatial() const { return *spatial_; }
  const variation::VariationModel& model() const { return *model_; }
  const std::vector<timing::Path>& target_paths() const { return targets_; }
  const timing::SegmentDecomposition& segments() const { return segments_; }

  double nominal_delay_ps() const { return nominal_delay_; }
  double t_cons_ps() const { return t_cons_; }
  double circuit_yield() const { return yield_; }
  std::size_t candidates_enumerated() const { return candidates_; }

  // Table columns: |G|, |R| (total), |G_C|, |R_C| (covered).
  std::size_t total_gates() const;
  std::size_t total_regions() const { return spatial_->num_regions(); }
  std::size_t covered_gates() const { return model_->covered_gates(); }
  std::size_t covered_regions() const { return model_->covered_regions(); }

 private:
  ExperimentConfig config_;
  circuit::GateLibrary library_;
  circuit::Netlist netlist_;
  std::unique_ptr<timing::TimingGraph> graph_;
  std::unique_ptr<variation::SpatialModel> spatial_;
  double nominal_delay_ = 0.0;
  double t_cons_ = 0.0;
  double yield_ = 0.0;
  std::size_t candidates_ = 0;
  std::vector<timing::Path> targets_;
  timing::SegmentDecomposition segments_;
  std::unique_ptr<variation::VariationModel> model_;
};

// Scale-aware defaults: REPRO_FAST shrinks pools ~4x, REPRO_FULL lifts the
// caps to (beyond) paper scale.  See util::repro_scale_mode().
ExperimentConfig default_experiment_config(const std::string& benchmark);
std::size_t default_mc_samples();

// Builds one Experiment per config concurrently, one config per
// util::parallel_for chunk with the calling thread building too (the sweep
// fan-out of the Fig. 2 and ablation drivers); results come back in input
// order and each build is internally deterministic, so the output is
// independent of the thread count.  The first construction failure, in
// input order, is rethrown after all builds finish.
std::vector<std::unique_ptr<Experiment>> build_experiments(
    const std::vector<ExperimentConfig>& configs);

// Circuit timing yield P(circuit delay <= t_cons) by sampling correlated
// gate delays and running a forward arrival pass per sample (exact over all
// paths, not just enumerated candidates).  Parallel over sample chunks with
// one deterministic RNG stream per sample: the returned yield is
// bit-identical for any thread count.
double estimate_circuit_yield(const timing::TimingGraph& graph,
                              const variation::SpatialModel& spatial,
                              double t_cons, std::size_t samples,
                              std::uint64_t seed, double random_scale = 1.0);

}  // namespace repro::core
