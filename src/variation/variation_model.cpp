#include "variation/variation_model.h"

#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "linalg/gemm.h"

namespace repro::variation {

VariationModel::VariationModel(const timing::TimingGraph& graph,
                               const SpatialModel& spatial,
                               const std::vector<timing::Path>& paths,
                               const timing::SegmentDecomposition& segments,
                               const VariationOptions& options)
    : segments_(&segments) {
  const circuit::Netlist& nl = graph.netlist();

  // --- Covered gates (combinational, delay-bearing) and covered regions ---
  std::unordered_set<circuit::GateId> covered;
  for (const timing::Path& p : paths) {
    for (circuit::GateId id : p.gates) {
      if (circuit::is_combinational(nl.gate(id).type)) covered.insert(id);
    }
  }
  covered_gates_ = covered.size();

  std::unordered_map<std::size_t, std::size_t> region_param;  // region -> slot
  for (circuit::GateId id : covered) {
    const circuit::Gate& g = nl.gate(id);
    for (std::size_t r : spatial.covering_regions(g.x, g.y)) {
      region_param.emplace(r, region_param.size());
    }
  }
  covered_regions_ = region_param.size();

  std::unordered_map<circuit::GateId, std::size_t> gate_param;  // gate -> slot
  for (circuit::GateId id : covered) gate_param.emplace(id, gate_param.size());

  // Record the slot -> region / gate maps for diagnosis and reporting.
  region_slots_.resize(covered_regions_);
  for (const auto& [region, slot] : region_param) region_slots_[slot] = region;
  gate_slots_.resize(covered_gates_);
  for (const auto& [gate, slot] : gate_param) gate_slots_[slot] = gate;

  // Parameter layout: [Leff regions | Vt regions | per-gate random].
  const std::size_t leff_base = 0;
  const std::size_t vt_base = covered_regions_;
  const std::size_t rand_base = 2 * covered_regions_;
  num_params_ = 2 * covered_regions_ + covered_gates_;

  // --- Per-gate sensitivity rows, accumulated into segment rows ---
  const std::size_t ns = segments.segments.size();
  sigma_ = linalg::Matrix(ns, num_params_);
  mu_segments_.assign(ns, 0.0);
  for (std::size_t s = 0; s < ns; ++s) {
    const timing::Segment& seg = segments.segments[s];
    double mu = 0.0;
    for (std::size_t k = 1; k < seg.gates.size(); ++k) {
      const circuit::GateId id = seg.gates[k];
      const circuit::Gate& g = nl.gate(id);
      if (!circuit::is_combinational(g.type)) continue;
      mu += graph.gate_delay_ps(id);
      const auto& sig = graph.gate_sigmas(id);
      for (int l = 0; l < spatial.levels(); ++l) {
        const std::size_t region = spatial.region_index(l, g.x, g.y);
        const std::size_t slot = region_param.at(region);
        const double w = spatial.level_weight(l);
        sigma_(s, leff_base + slot) += sig.leff * w;
        sigma_(s, vt_base + slot) += sig.vt * w;
      }
      sigma_(s, rand_base + gate_param.at(id)) +=
          sig.random * options.random_scale;
    }
    mu_segments_[s] = mu;
  }

  // --- Path-level model: A = G Sigma, mu_Ptar = G mu_S (exact by
  // construction; G is 0/1 so this is sparse accumulation). ---
  const std::size_t np = paths.size();
  a_ = linalg::Matrix(np, num_params_);
  mu_paths_.assign(np, 0.0);
  for (std::size_t p = 0; p < np; ++p) {
    auto arow = a_.row(p);
    for (int sid : segments.path_segments[p]) {
      const auto s = static_cast<std::size_t>(sid);
      linalg::axpy(1.0, sigma_.row(s), arow);
      mu_paths_[p] += mu_segments_[s];
    }
  }
}

linalg::Vector VariationModel::path_delays(std::span<const double> x) const {
  if (x.size() != num_params_) {
    throw std::invalid_argument("path_delays: sample size mismatch");
  }
  linalg::Vector d = linalg::matvec(a_, x);
  for (std::size_t i = 0; i < d.size(); ++i) d[i] += mu_paths_[i];
  return d;
}

linalg::Vector VariationModel::segment_delays(std::span<const double> x) const {
  if (x.size() != num_params_) {
    throw std::invalid_argument("segment_delays: sample size mismatch");
  }
  linalg::Vector d = linalg::matvec(sigma_, x);
  for (std::size_t i = 0; i < d.size(); ++i) d[i] += mu_segments_[i];
  return d;
}

double VariationModel::path_sigma(std::size_t path) const {
  return linalg::norm2(a_.row(path));
}

}  // namespace repro::variation
