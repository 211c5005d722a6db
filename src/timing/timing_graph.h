// Timing graph: per-gate nominal delays plus cached topological structure.
//
// Delay model: each combinational gate contributes one delay from its input
// pins to its output (no pin-dependent arcs), sized by cell type and fanout
// load.  Launch (Input) and capture (Output) gates contribute zero delay, so
// a path delay is the sum of the delays of its combinational gates — the
// linear structure the paper's Eqn (1)/(2) relies on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/gate_library.h"
#include "circuit/netlist.h"

namespace repro::timing {

class TimingGraph {
 public:
  TimingGraph(const circuit::Netlist& netlist,
              const circuit::GateLibrary& library);

  const circuit::Netlist& netlist() const { return *netlist_; }
  const circuit::GateLibrary& library() const { return *library_; }

  double gate_delay_ps(circuit::GateId id) const {
    return nominal_delay_[static_cast<std::size_t>(id)];
  }
  const std::vector<double>& gate_delays_ps() const { return nominal_delay_; }

  // Overrides one gate's nominal delay (used by the synthesis-emulation
  // sizing pass) and rescales its variation sigmas, which are proportional
  // to the nominal delay.
  void set_gate_delay_ps(circuit::GateId id, double delay_ps);

  // One-sigma delay deviations per normalized variation source (see
  // GateLibrary::delay_sigmas_ps), cached per gate.
  const circuit::GateLibrary::DelaySigmas& gate_sigmas(
      circuit::GateId id) const {
    return sigmas_[static_cast<std::size_t>(id)];
  }

  // Total standalone delay sigma of a gate (all sources, uncorrelated view);
  // used only as a path-enumeration scoring heuristic.
  double gate_sigma_total_ps(circuit::GateId id) const;

  const std::vector<circuit::GateId>& topological_order() const {
    return topo_;
  }

  // Topological-order CSR adjacency for the sweeps that visit every gate
  // per sample or per sink group (yield Monte Carlo, suffix bounds): gate
  // topological_order()[t] sits at position t, and fanin_positions(t) /
  // fanout_positions(t) list its drivers' / sinks' positions in the
  // netlist's pin order.  Built once; sizing changes only delays.
  std::size_t topo_position(circuit::GateId id) const {
    return position_[static_cast<std::size_t>(id)];
  }
  std::span<const std::uint32_t> fanin_positions(std::size_t t) const {
    return {fanin_.data() + fanin_begin_[t],
            fanin_begin_[t + 1] - fanin_begin_[t]};
  }
  std::span<const std::uint32_t> fanout_positions(std::size_t t) const {
    return {fanout_.data() + fanout_begin_[t],
            fanout_begin_[t + 1] - fanout_begin_[t]};
  }

 private:
  const circuit::Netlist* netlist_;
  const circuit::GateLibrary* library_;
  std::vector<double> nominal_delay_;
  std::vector<circuit::GateLibrary::DelaySigmas> sigmas_;
  std::vector<circuit::GateId> topo_;
  std::vector<std::uint32_t> position_;  // gate id -> topological position
  std::vector<std::uint32_t> fanin_begin_, fanin_;
  std::vector<std::uint32_t> fanout_begin_, fanout_;
};

}  // namespace repro::timing
