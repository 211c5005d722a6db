#include "timing/timing_graph.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/generator.h"
#include "test_helpers.h"
#include "timing/sizing.h"

namespace repro::timing {
namespace {

TEST(TimingGraph, LaunchCaptureZeroDelay) {
  const circuit::Netlist nl = test::figure1_netlist();
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  for (circuit::GateId id : nl.inputs()) {
    EXPECT_DOUBLE_EQ(tg.gate_delay_ps(id), 0.0);
  }
  for (circuit::GateId id : nl.outputs()) {
    EXPECT_DOUBLE_EQ(tg.gate_delay_ps(id), 0.0);
  }
}

TEST(TimingGraph, DelayDependsOnFanout) {
  const circuit::Netlist nl = test::figure1_netlist();
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  // G5 drives two sinks; G6 drives one.  Both delays follow the library.
  const auto g5 = *nl.find("G5");
  const auto g6 = *nl.find("G6");
  EXPECT_DOUBLE_EQ(tg.gate_delay_ps(g5),
                   lib.nominal_delay_ps(circuit::GateType::kAnd, 2));
  EXPECT_DOUBLE_EQ(tg.gate_delay_ps(g6),
                   lib.nominal_delay_ps(circuit::GateType::kBuf, 1));
}

TEST(TimingGraph, SigmasCachedConsistently) {
  const circuit::Netlist nl = test::figure1_netlist();
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto g5 = *nl.find("G5");
  const auto expect =
      lib.delay_sigmas_ps(circuit::GateType::kAnd, tg.gate_delay_ps(g5));
  EXPECT_DOUBLE_EQ(tg.gate_sigmas(g5).leff, expect.leff);
  EXPECT_DOUBLE_EQ(tg.gate_sigmas(g5).vt, expect.vt);
  EXPECT_DOUBLE_EQ(tg.gate_sigmas(g5).random, expect.random);
}

TEST(TimingGraph, SigmaTotalIsEuclidean) {
  const circuit::Netlist nl = test::figure1_netlist();
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto g5 = *nl.find("G5");
  const auto& s = tg.gate_sigmas(g5);
  EXPECT_NEAR(tg.gate_sigma_total_ps(g5),
              std::sqrt(s.leff * s.leff + s.vt * s.vt + s.random * s.random),
              1e-12);
}

TEST(TimingGraph, TopologicalOrderCached) {
  const circuit::Netlist nl = test::chain_netlist(10);
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  EXPECT_EQ(tg.topological_order().size(), nl.size());
}

TEST(TimingGraph, TopologicalCsrMirrorsNetlistPins) {
  const circuit::Netlist nl = circuit::generate_benchmark("s1423");
  const circuit::GateLibrary lib;
  TimingGraph tg(nl, lib);
  // Sizing rewrites delays only; the adjacency built in the constructor
  // must still describe the netlist.
  emulate_area_recovery(tg);
  const auto& topo = tg.topological_order();
  for (std::size_t t = 0; t < topo.size(); ++t) {
    ASSERT_EQ(tg.topo_position(topo[t]), t);
    const circuit::Gate& g = nl.gate(topo[t]);
    const auto fanin = tg.fanin_positions(t);
    const auto fanout = tg.fanout_positions(t);
    ASSERT_EQ(fanin.size(), g.fanin.size());
    ASSERT_EQ(fanout.size(), g.fanout.size());
    for (std::size_t k = 0; k < fanin.size(); ++k) {
      EXPECT_EQ(topo[fanin[k]], g.fanin[k]);
      EXPECT_LT(fanin[k], t);
    }
    for (std::size_t k = 0; k < fanout.size(); ++k) {
      EXPECT_EQ(topo[fanout[k]], g.fanout[k]);
      EXPECT_GT(fanout[k], t);
    }
  }
}

}  // namespace
}  // namespace repro::timing
