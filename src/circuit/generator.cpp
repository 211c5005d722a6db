#include "circuit/generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace repro::circuit {
namespace {

// Published ISCAS'89 sizes: primary inputs/outputs, flip-flops, gates, and
// (approximate) logic depth.  Launch points = PI + FF, captures = PO + FF.
struct IscasSize {
  const char* name;
  int pi, po, ff, gates, depth;
};

constexpr IscasSize kIscas[] = {
    {"s1196", 14, 14, 18, 529, 24},   {"s1423", 17, 5, 74, 657, 59},
    {"s1488", 8, 19, 6, 653, 17},     {"s5378", 35, 49, 179, 2779, 25},
    {"s9234", 36, 39, 211, 5597, 38}, {"s13207", 62, 152, 638, 7951, 32},
    {"s15850", 77, 150, 534, 9772, 44}, {"s35932", 35, 320, 1728, 16065, 29},
    {"s38417", 28, 106, 1636, 22179, 33}, {"s38584", 38, 304, 1426, 19253, 31},
};

// prefix followed by i, built by appending: GCC 12's -Wrestrict misfires on
// the inlined "literal" + std::string operator.
std::string numbered(const char* prefix, std::size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

}  // namespace

GeneratorConfig benchmark_config(const std::string& name) {
  for (const IscasSize& s : kIscas) {
    if (name == s.name) {
      GeneratorConfig cfg;
      cfg.name = s.name;
      cfg.num_inputs = static_cast<std::size_t>(s.pi + s.ff);
      cfg.num_outputs = static_cast<std::size_t>(s.po + s.ff);
      cfg.num_gates = static_cast<std::size_t>(s.gates);
      cfg.depth = static_cast<std::size_t>(s.depth);
      cfg.seed = util::Rng::seed_from(name);
      return cfg;
    }
  }
  throw std::invalid_argument("unknown benchmark: " + name);
}

std::vector<std::string> known_benchmarks() {
  std::vector<std::string> out;
  for (const IscasSize& s : kIscas) out.emplace_back(s.name);
  return out;
}

Netlist generate(const GeneratorConfig& cfg) {
  if (cfg.depth < 2 || cfg.num_gates < cfg.depth ||
      cfg.num_inputs == 0 || cfg.num_outputs == 0) {
    throw std::invalid_argument("generate: degenerate configuration");
  }
  util::Rng rng(cfg.seed);
  Netlist nl(cfg.name);

  // --- Level widths: linear taper from w0 down to w0 * taper, normalized to
  // sum to num_gates. ---
  const std::size_t levels = cfg.depth;
  std::vector<double> raw(levels);
  for (std::size_t l = 0; l < levels; ++l) {
    const double t = levels == 1 ? 0.0
                                 : static_cast<double>(l) /
                                       static_cast<double>(levels - 1);
    raw[l] = 1.0 + (cfg.taper - 1.0) * t;
  }
  double raw_sum = 0.0;
  for (double w : raw) raw_sum += w;
  std::vector<std::size_t> width(levels);
  std::size_t assigned = 0;
  for (std::size_t l = 0; l < levels; ++l) {
    width[l] = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(
               raw[l] / raw_sum * static_cast<double>(cfg.num_gates))));
    assigned += width[l];
  }
  // Distribute the rounding remainder (or trim) front-to-back.
  std::size_t l = 0;
  while (assigned < cfg.num_gates) {
    ++width[l % levels];
    ++assigned;
    ++l;
  }
  while (assigned > cfg.num_gates) {
    const std::size_t idx = l % levels;
    if (width[idx] > 1) {
      --width[idx];
      --assigned;
    }
    ++l;
  }

  // --- Create gates ---
  std::vector<GateId> prev_levels_flat;  // all gates in levels < current
  std::vector<std::size_t> level_start;  // index into prev_levels_flat
  std::vector<GateId> inputs;
  inputs.reserve(cfg.num_inputs);
  for (std::size_t i = 0; i < cfg.num_inputs; ++i) {
    inputs.push_back(nl.add_gate(numbered("in", i), GateType::kInput));
  }
  level_start.push_back(0);
  prev_levels_flat.insert(prev_levels_flat.end(), inputs.begin(), inputs.end());
  level_start.push_back(prev_levels_flat.size());

  auto pick_fanin_level = [&](std::size_t cur_level) -> std::size_t {
    // Geometric preference for the immediately previous level; cur_level is
    // the index into level_start of the level being built (>= 1).
    std::size_t back = 1;
    while (back < cur_level && rng.uniform() > cfg.locality) ++back;
    return cur_level - back;
  };

  std::vector<GateId> current;
  int gate_counter = 0;
  for (std::size_t lvl = 0; lvl < levels; ++lvl) {
    current.clear();
    for (std::size_t k = 0; k < width[lvl]; ++k) {
      // Fanin count: mostly 2-input gates, some 1- and 3-input.
      const double u = rng.uniform();
      const std::size_t nin = (u < 0.22) ? 1 : (u < 0.88) ? 2 : 3;
      GateType type;
      if (nin == 1) {
        type = rng.uniform() < 0.7 ? GateType::kNot : GateType::kBuf;
      } else {
        const double v = rng.uniform();
        if (v < 0.35) type = GateType::kNand;
        else if (v < 0.60) type = GateType::kNor;
        else if (v < 0.75) type = GateType::kAnd;
        else if (v < 0.90) type = GateType::kOr;
        else type = (nin == 2 && rng.uniform() < 0.5) ? GateType::kXor
                                                      : GateType::kXnor;
      }
      const GateId g = nl.add_gate(
          numbered("g", static_cast<std::size_t>(gate_counter++)), type);
      // Choose distinct fanins.
      std::vector<GateId> chosen;
      const std::size_t cur_level_index = lvl + 1;  // into level_start
      for (std::size_t f = 0; f < nin; ++f) {
        GateId cand = kInvalidGate;
        for (int attempt = 0; attempt < 8; ++attempt) {
          const std::size_t src_level = pick_fanin_level(cur_level_index);
          const std::size_t b = level_start[src_level];
          const std::size_t e = level_start[src_level + 1];
          cand = prev_levels_flat[b + rng.uniform_index(e - b)];
          if (std::find(chosen.begin(), chosen.end(), cand) == chosen.end()) {
            break;
          }
          cand = kInvalidGate;
        }
        if (cand != kInvalidGate) chosen.push_back(cand);
      }
      if (chosen.empty()) {
        chosen.push_back(
            prev_levels_flat[rng.uniform_index(prev_levels_flat.size())]);
      }
      for (GateId d : chosen) nl.connect(d, g);
      current.push_back(g);
    }
    prev_levels_flat.insert(prev_levels_flat.end(), current.begin(),
                            current.end());
    level_start.push_back(prev_levels_flat.size());
  }

  // --- Wire dangling gates forward so (almost) every gate reaches a capture
  // point: any gate without fanout either feeds a capture point directly or
  // becomes an extra fanin of a random later gate. ---
  std::vector<GateId> dangling;
  for (const Gate& g : nl.gates()) {
    if (is_combinational(g.type) && g.fanout.empty()) {
      dangling.push_back(*nl.find(g.name));
    }
  }
  // Capture points: prefer the deepest dangling gates, then fill with random
  // deep gates until num_outputs is reached.
  std::sort(dangling.begin(), dangling.end());  // ids grow with level
  std::vector<GateId> capture_drivers;
  for (auto it = dangling.rbegin();
       it != dangling.rend() &&
       capture_drivers.size() < cfg.num_outputs;
       ++it) {
    capture_drivers.push_back(*it);
  }
  // Remaining dangling gates become extra fanins of later gates (max arity 4).
  for (GateId id : dangling) {
    if (std::find(capture_drivers.begin(), capture_drivers.end(), id) !=
        capture_drivers.end()) {
      continue;
    }
    // Find a later gate to absorb this signal.
    bool wired = false;
    for (int attempt = 0; attempt < 16 && !wired; ++attempt) {
      const GateId tgt = static_cast<GateId>(
          rng.uniform_index(nl.size()));
      const Gate& tg = nl.gate(tgt);
      if (tgt > id && is_combinational(tg.type) && tg.fanin.size() < 4 &&
          tg.type != GateType::kNot && tg.type != GateType::kBuf) {
        nl.connect(id, tgt);
        wired = true;
      }
    }
    if (!wired) capture_drivers.push_back(id);
  }
  std::size_t attempts = 0;
  while (capture_drivers.size() < cfg.num_outputs) {
    // Prefer distinct deep gates; after enough attempts allow a driver to
    // feed several capture points (legal, and common in real netlists).
    const std::size_t deep_begin = level_start[levels / 2];
    const GateId cand = prev_levels_flat[deep_begin + rng.uniform_index(
                                             prev_levels_flat.size() -
                                             deep_begin)];
    const bool fresh =
        std::find(capture_drivers.begin(), capture_drivers.end(), cand) ==
        capture_drivers.end();
    if (is_combinational(nl.gate(cand).type) &&
        (fresh || attempts > 4 * cfg.num_outputs)) {
      capture_drivers.push_back(cand);
    }
    ++attempts;
  }
  int po_counter = 0;
  for (GateId drv : capture_drivers) {
    const GateId po = nl.add_gate(
        numbered("out", static_cast<std::size_t>(po_counter++)),
        GateType::kOutput);
    nl.connect(drv, po);
  }
  return nl;
}

Netlist generate_benchmark(const std::string& name) {
  return generate(benchmark_config(name));
}

}  // namespace repro::circuit
