// Synthetic benchmark-circuit generator.
//
// The paper's experiments run on ISCAS'89 netlists synthesized with a TSMC
// 90 nm library.  Neither artifact is redistributable, so this module
// generates layered, reconvergent DAGs with the published per-benchmark
// scale (gate / input / output / register counts and logic depth taken from
// the ISCAS'89 suite).  The generator is deterministic per benchmark name.
//
// What matters for the paper's algorithms is that many statistically
// critical paths share segments (that is what makes rank(A) and the
// effective rank small relative to the path count); the generator achieves
// this with a tapering level-width profile and fanin selection biased toward
// adjacent levels, which yields deep trunks shared by many launch-to-capture
// paths, as in the funnel-shaped critical cones of real synthesized logic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/netlist.h"

namespace repro::circuit {

struct GeneratorConfig {
  std::string name = "synthetic";
  std::size_t num_inputs = 16;    // launch points (PIs + DFF outputs)
  std::size_t num_outputs = 16;   // capture points (POs + DFF inputs)
  std::size_t num_gates = 500;    // combinational gates
  std::size_t depth = 20;         // target logic depth (levels of gates)
  std::uint64_t seed = 1;
};

// ISCAS'89-style named configurations (s1196 ... s38584) with the published
// sizes.  Throws for unknown names.  `known_benchmarks()` lists them in the
// order used by the paper's tables.
GeneratorConfig benchmark_config(const std::string& name);
std::vector<std::string> known_benchmarks();

Netlist generate(const GeneratorConfig& cfg);
// Convenience: generate the named ISCAS'89-scale benchmark.
Netlist generate_benchmark(const std::string& name);

}  // namespace repro::circuit
