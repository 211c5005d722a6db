#include "timing/sizing.h"

#include <gtest/gtest.h>

#include "circuit/generator.h"
#include "test_helpers.h"
#include "timing/sta.h"

namespace repro::timing {
namespace {

TEST(Sizing, CircuitDelayPreserved) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  TimingGraph tg(nl, lib);
  const double before = run_sta(tg).circuit_delay;
  const SizingReport rep = emulate_area_recovery(tg);
  EXPECT_DOUBLE_EQ(rep.t_cons, before);
  // Area recovery must never push the circuit past the constraint.
  EXPECT_LE(rep.circuit_delay_after, before * (1.0 + 1e-9));
  // And the critical path is untouched, so the delay stays at the wall.
  EXPECT_NEAR(rep.circuit_delay_after, before, before * 1e-6);
}

TEST(Sizing, MeanSlackShrinks) {
  circuit::Netlist nl = circuit::generate_benchmark("s1423");
  const circuit::GateLibrary lib;
  TimingGraph tg(nl, lib);
  const SizingReport rep = emulate_area_recovery(tg);
  EXPECT_LT(rep.mean_slack_after, rep.mean_slack_before);
}

TEST(Sizing, DelaysOnlyGrow) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  TimingGraph tg(nl, lib);
  const std::vector<double> before = tg.gate_delays_ps();
  emulate_area_recovery(tg);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_GE(tg.gate_delay_ps(static_cast<circuit::GateId>(i)),
              before[i] - 1e-12);
  }
}

TEST(Sizing, MaxScaleRespected) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  TimingGraph tg(nl, lib);
  const std::vector<double> before = tg.gate_delays_ps();
  emulate_area_recovery(tg);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_LE(tg.gate_delay_ps(static_cast<circuit::GateId>(i)),
              before[i] * kSizingMaxScale + 1e-9);
  }
}

TEST(Sizing, SigmasRescaleWithDelay) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  TimingGraph tg(nl, lib);
  emulate_area_recovery(tg);
  // After sizing, each gate's sigmas must match the library formula for its
  // new nominal delay.
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<circuit::GateId>(i);
    const auto expect =
        lib.delay_sigmas_ps(nl.gate(id).type, tg.gate_delay_ps(id));
    EXPECT_DOUBLE_EQ(tg.gate_sigmas(id).leff, expect.leff);
    EXPECT_DOUBLE_EQ(tg.gate_sigmas(id).random, expect.random);
  }
}

TEST(Sizing, SlackWallForms) {
  circuit::Netlist nl = circuit::generate_benchmark("s1423");
  const circuit::GateLibrary lib;
  TimingGraph tg(nl, lib);
  const SizingReport rep = emulate_area_recovery(tg);
  const StaResult sta = run_sta(tg, rep.t_cons);
  // A majority of combinational gates end up within 10% slack of Tcons
  // (min-area synthesis pushes cells to the wall).
  std::size_t near = 0, total = 0;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    if (!circuit::is_combinational(
            nl.gate(static_cast<circuit::GateId>(i)).type)) {
      continue;
    }
    ++total;
    if (sta.slack[i] < 0.10 * rep.t_cons) ++near;
  }
  EXPECT_GT(near, total / 2);
}

TEST(Sizing, ChainIsAlreadyAtWall) {
  // A single chain has zero slack everywhere; sizing must not change it.
  circuit::Netlist nl = test::chain_netlist(8);
  const circuit::GateLibrary lib;
  TimingGraph tg(nl, lib);
  const std::vector<double> before = tg.gate_delays_ps();
  const SizingReport rep = emulate_area_recovery(tg);
  EXPECT_EQ(tg.gate_delays_ps(), before);
  EXPECT_NEAR(rep.mean_slack_before, 0.0, 1e-9);
}

}  // namespace
}  // namespace repro::timing
