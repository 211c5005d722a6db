// Builds the paper's linear delay model (Eqn (1)/(2)) from a placed netlist,
// the spatial correlation model, and a set of target paths:
//
//   d_S    = mu_S    + Sigma x        (segments)
//   d_Ptar = mu_Ptar + A x,  A = G * Sigma
//
// The normalized parameter vector x ~ N(0, I_m) stacks, in order:
//   [ Leff region variables | Vt region variables | per-gate random terms ]
// where only regions / gates *covered by the target paths* get a variable
// (matching the paper's parameter counting, e.g. S38417 Table 2:
// m = |G_C| + 2 |R_C| = 1386 + 2*157 = 1700).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "timing/segments.h"
#include "timing/timing_graph.h"
#include "variation/spatial_model.h"

namespace repro::variation {

struct VariationOptions {
  // Multiplier on the per-gate random sensitivities; Figure 2(b) uses 3x.
  double random_scale = 1.0;
};

class VariationModel {
 public:
  VariationModel(const timing::TimingGraph& graph, const SpatialModel& spatial,
                 const std::vector<timing::Path>& paths,
                 const timing::SegmentDecomposition& segments,
                 const VariationOptions& options = {});

  std::size_t num_params() const { return num_params_; }
  std::size_t num_paths() const { return a_.rows(); }
  std::size_t num_segments() const { return sigma_.rows(); }
  std::size_t covered_regions() const { return covered_regions_; }
  std::size_t covered_gates() const { return covered_gates_; }

  // Sensitivity matrices and nominal delays (ps).
  const linalg::Matrix& a() const { return a_; }            // paths x m
  const linalg::Matrix& sigma() const { return sigma_; }    // segments x m
  const linalg::Matrix& g() const { return *incidence_; }   // paths x segments
  const linalg::Vector& mu_paths() const { return mu_paths_; }
  const linalg::Vector& mu_segments() const { return mu_segments_; }

  // Delay realizations for a parameter sample x (length num_params()).
  linalg::Vector path_delays(std::span<const double> x) const;
  linalg::Vector segment_delays(std::span<const double> x) const;

  // Per-path delay mean / sigma under the model (sigma = ||A row||).
  double path_mu(std::size_t path) const { return mu_paths_[path]; }
  double path_sigma(std::size_t path) const;

  // Parameter layout maps (for diagnosis / reporting):
  //   x = [ Leff slots | Vt slots | per-gate random slots ].
  // region_slots()[k] is the global spatial-model region id of Leff slot k
  // (and of Vt slot covered_regions()+k); gate_slots()[k] is the gate of
  // random slot 2*covered_regions()+k.
  const std::vector<std::size_t>& region_slots() const { return region_slots_; }
  const std::vector<circuit::GateId>& gate_slots() const { return gate_slots_; }

 private:
  const timing::SegmentDecomposition* segments_;
  const linalg::Matrix* incidence_;
  linalg::Matrix sigma_;
  linalg::Matrix a_;
  linalg::Vector mu_paths_;
  linalg::Vector mu_segments_;
  std::size_t num_params_ = 0;
  std::size_t covered_regions_ = 0;
  std::size_t covered_gates_ = 0;
  std::vector<std::size_t> region_slots_;
  std::vector<circuit::GateId> gate_slots_;
};

}  // namespace repro::variation
