#include "timing/sizing.h"

#include <algorithm>

#include "timing/sta.h"

namespace repro::timing {
namespace {

double mean_comb_slack(const TimingGraph& graph, const StaResult& sta) {
  const circuit::Netlist& nl = graph.netlist();
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    if (!circuit::is_combinational(
            nl.gate(static_cast<circuit::GateId>(i)).type)) {
      continue;
    }
    sum += sta.slack[i];
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

SizingReport emulate_area_recovery(TimingGraph& graph) {
  const circuit::Netlist& nl = graph.netlist();
  SizingReport rep;
  {
    const StaResult base = run_sta(graph);
    rep.t_cons = base.circuit_delay;
    rep.mean_slack_before = mean_comb_slack(graph, base);
  }
  const StaResult sta = run_sta(graph, rep.t_cons);
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<circuit::GateId>(i);
    if (!circuit::is_combinational(nl.gate(id).type)) continue;
    const double slack = sta.slack[i];
    if (slack <= 0.0) continue;
    // Per-path safety: every path through this gate has slack >= `slack`,
    // and the summed growth along any path is < its slack, so the circuit
    // delay never exceeds Tcons.
    const double delay = graph.gate_delay_ps(id);
    const double grown = delay * (1.0 + kSizingStrength * slack / rep.t_cons);
    const double capped = std::min(grown, delay * kSizingMaxScale);
    if (capped > delay * (1.0 + 1e-12)) {
      graph.set_gate_delay_ps(id, capped);
    }
  }

  const StaResult after = run_sta(graph, rep.t_cons);
  rep.mean_slack_after = mean_comb_slack(graph, after);
  rep.circuit_delay_after = after.circuit_delay;
  return rep;
}

}  // namespace repro::timing
