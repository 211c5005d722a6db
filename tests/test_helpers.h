// Shared fixtures for the test suite.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.h"

namespace repro::test {

// prefix followed by i, built by appending: GCC 12's -Wrestrict misfires on
// the inlined "literal" + std::string operator.
inline std::string numbered(const char* prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

// The paper's Figure-1 subcircuit: two launch points, gates G1..G9, two
// capture points; four designated launch-to-capture paths merging at G5:
//   p1: G1 G3 G5 G7 G9,  p2: G1 G3 G5 G6 G8,
//   p3: G2 G4 G5 G6 G8,  p4: G2 G4 G5 G7 G9.
inline circuit::Netlist figure1_netlist() {
  using circuit::GateType;
  circuit::Netlist nl("figure1");
  const auto i1 = nl.add_gate("pi1", GateType::kInput);
  const auto i2 = nl.add_gate("pi2", GateType::kInput);
  const auto g1 = nl.add_gate("G1", GateType::kBuf);
  const auto g2 = nl.add_gate("G2", GateType::kBuf);
  const auto g3 = nl.add_gate("G3", GateType::kBuf);
  const auto g4 = nl.add_gate("G4", GateType::kBuf);
  const auto g5 = nl.add_gate("G5", GateType::kAnd);
  const auto g6 = nl.add_gate("G6", GateType::kBuf);
  const auto g7 = nl.add_gate("G7", GateType::kBuf);
  const auto g8 = nl.add_gate("G8", GateType::kNot);
  const auto g9 = nl.add_gate("G9", GateType::kNot);
  const auto o1 = nl.add_gate("po1", GateType::kOutput);
  const auto o2 = nl.add_gate("po2", GateType::kOutput);
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

// A simple chain: in -> g0 -> g1 -> ... -> g{n-1} -> out.
inline circuit::Netlist chain_netlist(int n) {
  using circuit::GateType;
  circuit::Netlist nl("chain");
  auto prev = nl.add_gate("in", GateType::kInput);
  for (int i = 0; i < n; ++i) {
    const auto g = nl.add_gate(numbered("g", i), GateType::kBuf);
    nl.connect(prev, g);
    prev = g;
  }
  const auto o = nl.add_gate("out", GateType::kOutput);
  nl.connect(prev, o);
  return nl;
}

// A diamond with `width` parallel two-gate branches between a fork and a
// join (used for path-count and segment tests).
inline circuit::Netlist diamond_netlist(int width) {
  using circuit::GateType;
  circuit::Netlist nl("diamond");
  const auto in = nl.add_gate("in", GateType::kInput);
  const auto fork = nl.add_gate("fork", GateType::kBuf);
  nl.connect(in, fork);
  const auto join = nl.add_gate("join", GateType::kOr);
  for (int i = 0; i < width; ++i) {
    const auto a = nl.add_gate(numbered("a", i), GateType::kNot);
    const auto b = nl.add_gate(numbered("b", i), GateType::kNot);
    nl.connect(fork, a);
    nl.connect(a, b);
    nl.connect(b, join);
  }
  const auto o = nl.add_gate("out", GateType::kOutput);
  nl.connect(join, o);
  return nl;
}

}  // namespace repro::test
