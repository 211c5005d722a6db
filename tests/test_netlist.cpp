#include "circuit/netlist.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_helpers.h"

namespace repro::circuit {
namespace {

// Builds the Figure-1 subcircuit of the paper: G1..G9 with four designated
// paths merging at G5.
Netlist figure1_netlist() {
  Netlist nl("figure1");
  const GateId i1 = nl.add_gate("pi1", GateType::kInput);
  const GateId i2 = nl.add_gate("pi2", GateType::kInput);
  const GateId g1 = nl.add_gate("G1", GateType::kBuf);
  const GateId g2 = nl.add_gate("G2", GateType::kBuf);
  const GateId g3 = nl.add_gate("G3", GateType::kBuf);
  const GateId g4 = nl.add_gate("G4", GateType::kBuf);
  const GateId g5 = nl.add_gate("G5", GateType::kAnd);
  const GateId g6 = nl.add_gate("G6", GateType::kBuf);
  const GateId g7 = nl.add_gate("G7", GateType::kBuf);
  const GateId g8 = nl.add_gate("G8", GateType::kNot);
  const GateId g9 = nl.add_gate("G9", GateType::kNot);
  const GateId o1 = nl.add_gate("po1", GateType::kOutput);
  const GateId o2 = nl.add_gate("po2", GateType::kOutput);
  nl.connect(i1, g1);
  nl.connect(i2, g2);
  nl.connect(g1, g3);
  nl.connect(g2, g4);
  nl.connect(g3, g5);
  nl.connect(g4, g5);
  nl.connect(g5, g6);
  nl.connect(g5, g7);
  nl.connect(g6, g8);
  nl.connect(g7, g9);
  nl.connect(g8, o1);
  nl.connect(g9, o2);
  return nl;
}

TEST(Netlist, AddAndFind) {
  Netlist nl;
  const GateId a = nl.add_gate("a", GateType::kInput);
  EXPECT_EQ(nl.find("a"), std::optional<GateId>(a));
  EXPECT_EQ(nl.find("missing"), std::nullopt);
}

TEST(Netlist, DuplicateNameThrows) {
  Netlist nl;
  nl.add_gate("x", GateType::kInput);
  EXPECT_THROW((void)nl.add_gate("x", GateType::kNand), std::invalid_argument);
}

TEST(Netlist, DffMustBeSplit) {
  Netlist nl;
  EXPECT_THROW((void)nl.add_gate("q", GateType::kDff), std::invalid_argument);
}

TEST(Netlist, ConnectUpdatesBothSides) {
  Netlist nl;
  const GateId a = nl.add_gate("a", GateType::kInput);
  const GateId b = nl.add_gate("b", GateType::kBuf);
  nl.connect(a, b);
  EXPECT_EQ(nl.gate(a).fanout.size(), 1u);
  EXPECT_EQ(nl.gate(b).fanin.front(), a);
}

TEST(Netlist, ConnectBadIdThrows) {
  Netlist nl;
  nl.add_gate("a", GateType::kInput);
  EXPECT_THROW(nl.connect(0, 5), std::out_of_range);
}

TEST(Netlist, InputsOutputsTracked) {
  const Netlist nl = figure1_netlist();
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.combinational_count(), 9u);
}

TEST(Netlist, TopologicalOrderRespectsEdges) {
  const Netlist nl = figure1_netlist();
  const auto order = nl.topological_order();
  ASSERT_EQ(order.size(), nl.size());
  std::vector<std::size_t> pos(nl.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = i;
  }
  for (const Gate& g : nl.gates()) {
    const auto gid = *nl.find(g.name);
    for (GateId d : g.fanin) {
      EXPECT_LT(pos[static_cast<std::size_t>(d)],
                pos[static_cast<std::size_t>(gid)]);
    }
  }
}

TEST(Netlist, CycleDetected) {
  Netlist nl;
  const GateId a = nl.add_gate("a", GateType::kAnd);
  const GateId b = nl.add_gate("b", GateType::kAnd);
  nl.connect(a, b);
  nl.connect(b, a);
  EXPECT_THROW((void)nl.topological_order(), std::runtime_error);
}

TEST(Netlist, ValidateCleanCircuit) {
  EXPECT_TRUE(figure1_netlist().validate().empty());
}

TEST(Netlist, ValidateFlagsDanglingGate) {
  Netlist nl;
  nl.add_gate("orphan", GateType::kNand);  // combinational, no fanin
  const auto problems = nl.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("no fanin"), std::string::npos);
}

TEST(Netlist, ValidateFlagsMultiInputInverter) {
  Netlist nl;
  const GateId a = nl.add_gate("a", GateType::kInput);
  const GateId b = nl.add_gate("b", GateType::kInput);
  const GateId inv = nl.add_gate("inv", GateType::kNot);
  nl.connect(a, inv);
  nl.connect(b, inv);
  const auto problems = nl.validate();
  ASSERT_FALSE(problems.empty());
}

TEST(Netlist, ValidateFlagsOutputWithTwoFanins) {
  Netlist nl;
  const GateId a = nl.add_gate("a", GateType::kInput);
  const GateId b = nl.add_gate("b", GateType::kInput);
  const GateId o = nl.add_gate("o", GateType::kOutput);
  nl.connect(a, o);
  nl.connect(b, o);
  EXPECT_FALSE(nl.validate().empty());
}

TEST(Netlist, DepthOfChain) {
  Netlist nl;
  GateId prev = nl.add_gate("in", GateType::kInput);
  for (int i = 0; i < 5; ++i) {
    const GateId g = nl.add_gate(test::numbered("g", i), GateType::kBuf);
    nl.connect(prev, g);
    prev = g;
  }
  const GateId o = nl.add_gate("o", GateType::kOutput);
  nl.connect(prev, o);
  EXPECT_EQ(nl.depth(), 5u);
}

TEST(Netlist, DepthOfFigure1) {
  EXPECT_EQ(figure1_netlist().depth(), 5u);
}

}  // namespace
}  // namespace repro::circuit
