#include "timing/timing_graph.h"

#include <cmath>

namespace repro::timing {

TimingGraph::TimingGraph(const circuit::Netlist& netlist,
                         const circuit::GateLibrary& library)
    : netlist_(&netlist), library_(&library) {
  const std::size_t n = netlist.size();
  nominal_delay_.resize(n);
  sigmas_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const circuit::Gate& g = netlist.gate(static_cast<circuit::GateId>(i));
    nominal_delay_[i] = library.nominal_delay_ps(g.type, g.fanout.size());
    sigmas_[i] = library.delay_sigmas_ps(g.type, nominal_delay_[i]);
  }
  topo_ = netlist.topological_order();

  position_.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    position_[static_cast<std::size_t>(topo_[t])] =
        static_cast<std::uint32_t>(t);
  }
  fanin_begin_.assign(1, 0);
  fanout_begin_.assign(1, 0);
  for (circuit::GateId id : topo_) {
    const circuit::Gate& g = netlist.gate(id);
    for (circuit::GateId d : g.fanin) {
      fanin_.push_back(position_[static_cast<std::size_t>(d)]);
    }
    for (circuit::GateId s : g.fanout) {
      fanout_.push_back(position_[static_cast<std::size_t>(s)]);
    }
    fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_.size()));
    fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_.size()));
  }
}

void TimingGraph::set_gate_delay_ps(circuit::GateId id, double delay_ps) {
  const auto i = static_cast<std::size_t>(id);
  nominal_delay_[i] = delay_ps;
  sigmas_[i] = library_->delay_sigmas_ps(netlist_->gate(id).type, delay_ps);
}

double TimingGraph::gate_sigma_total_ps(circuit::GateId id) const {
  const auto& s = sigmas_[static_cast<std::size_t>(id)];
  return std::sqrt(s.leff * s.leff + s.vt * s.vt + s.random * s.random);
}

}  // namespace repro::timing
