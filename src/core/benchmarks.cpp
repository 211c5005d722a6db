#include "core/benchmarks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "circuit/placement.h"
#include "timing/sizing.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/telemetry.h"
#include "util/text.h"
#include "util/thread_pool.h"

namespace repro::core {
namespace {

// Per-combinational-gate variation table, rows in gate-id order, resolved
// against the global (all-regions) parameter indexing used for yield
// estimation and candidate filtering:
//   [ Leff regions | Vt regions | one random slot per gate ].
// Gates covered by the same regions at every level share a cell (at most
// one per finest-level region), so a die's spatial sums are formed once per
// cell.  Built once per Experiment after sizing (the delays are final then).
struct GateTable {
  std::size_t num_regions = 0;
  std::size_t levels = 0;
  std::vector<double> level_weight;       // per level
  std::vector<std::int32_t> row_of_gate;  // gate id -> row, -1 if none
  std::vector<std::uint32_t> position;    // row -> topological position
  std::vector<std::uint32_t> cell;        // row -> cell
  std::vector<double> nominal;            // ps
  std::vector<double> sigma_leff, sigma_vt;
  std::vector<double> sigma_random;       // already times random_scale
  // cell * levels + l -> region id.  Kept std::size_t, the width of
  // SpatialModel::covering_regions: under -march=native GCC vectorizes the
  // sampler's level loop (products in lanes, sums in order, the remainder
  // FMA-contracted) the same way as a loop over that vector, and with 32-bit
  // ids it contracts every term instead, which moves the last bit of some
  // dies.
  std::vector<std::size_t> cell_region;
  std::size_t num_cells() const { return cell_region.size() / levels; }
  const std::size_t* regions(std::size_t row) const {
    return cell_region.data() + cell[row] * levels;
  }
  std::size_t param_count(std::size_t num_gates) const {
    return 2 * num_regions + num_gates;
  }
};

GateTable gate_table(const timing::TimingGraph& graph,
                     const variation::SpatialModel& spatial,
                     double random_scale) {
  const circuit::Netlist& nl = graph.netlist();
  GateTable t;
  t.num_regions = spatial.num_regions();
  t.levels = static_cast<std::size_t>(spatial.levels());
  for (int l = 0; l < spatial.levels(); ++l) {
    t.level_weight.push_back(spatial.level_weight(l));
  }
  t.row_of_gate.assign(nl.size(), -1);
  std::map<std::vector<std::size_t>, std::uint32_t> cell_of;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<circuit::GateId>(i);
    const circuit::Gate& g = nl.gate(id);
    if (!circuit::is_combinational(g.type)) continue;
    t.row_of_gate[i] = static_cast<std::int32_t>(t.nominal.size());
    t.position.push_back(static_cast<std::uint32_t>(graph.topo_position(id)));
    const auto& sig = graph.gate_sigmas(id);
    t.nominal.push_back(graph.gate_delay_ps(id));
    t.sigma_leff.push_back(sig.leff);
    t.sigma_vt.push_back(sig.vt);
    t.sigma_random.push_back(sig.random * random_scale);
    std::vector<std::size_t> regions = spatial.covering_regions(g.x, g.y);
    const auto [it, fresh] = cell_of.try_emplace(
        regions, static_cast<std::uint32_t>(cell_of.size()));
    if (fresh) {
      t.cell_region.insert(t.cell_region.end(), regions.begin(), regions.end());
    }
    t.cell.push_back(it->second);
  }
  return t;
}

// Statistical moments of one candidate path under the full correlated model
// (scratch accumulates the path's sensitivity row sparsely).
struct PathStats {
  double mu;
  double sigma;
};

class PathStatAccumulator {
 public:
  explicit PathStatAccumulator(const GateTable& table)
      : table_(&table),
        scratch_(table.param_count(table.row_of_gate.size()), 0.0) {}

  PathStats stats(const timing::Path& p) {
    double mu = 0.0;
    for (std::size_t idx : touched_) scratch_[idx] = 0.0;
    touched_.clear();
    const GateTable& t = *table_;
    for (circuit::GateId id : p.gates) {
      const std::int32_t row = t.row_of_gate[static_cast<std::size_t>(id)];
      if (row < 0) continue;
      const auto r = static_cast<std::size_t>(row);
      mu += t.nominal[r];
      const std::size_t* regions = t.regions(r);
      for (std::size_t l = 0; l < t.levels; ++l) {
        const double w = t.level_weight[l];
        add(regions[l], t.sigma_leff[r] * w);
        add(t.num_regions + regions[l], t.sigma_vt[r] * w);
      }
      add(2 * t.num_regions + static_cast<std::size_t>(id),
          t.sigma_random[r]);
    }
    double var = 0.0;
    for (std::size_t idx : touched_) var += scratch_[idx] * scratch_[idx];
    return {mu, std::sqrt(var)};
  }

 private:
  void add(std::size_t idx, double v) {
    if (scratch_[idx] == 0.0) touched_.push_back(idx);
    scratch_[idx] += v;
  }
  const GateTable* table_;
  std::vector<double> scratch_;
  std::vector<std::size_t> touched_;
};

// The yield sampler pushes this many dies through one topological sweep,
// one lane each (a 512-bit vector of doubles).
constexpr std::size_t kDieLanes = 8;

double yield_from_table(const timing::TimingGraph& graph,
                        const GateTable& table, double t_cons,
                        std::size_t samples, std::uint64_t seed) {
  const circuit::Netlist& nl = graph.netlist();
  const std::size_t n = nl.size();
  const std::size_t rows = table.nominal.size();
  const std::size_t cells = table.num_cells();
  const std::size_t levels = table.levels;
  // By topological position; only combinational gates have a delay.
  enum Role : std::uint8_t { kLaunch, kGate, kCapture };
  std::vector<Role> role(n, kLaunch);
  for (std::size_t r = 0; r < rows; ++r) role[table.position[r]] = kGate;
  for (circuit::GateId id : nl.outputs()) {
    role[graph.topo_position(id)] = kCapture;
  }

  // Sample s draws from the deterministic stream (seed, s) in the order
  // Leff regions, Vt regions, one normal per combinational gate by gate id,
  // and the pass count is an integer sum, so the estimate is bit-identical
  // for any thread count or chunk partitioning.  Each die's gate delays are
  // computed one die at a time by the scalar expression; the topological
  // sweep then only takes max and adds, so each lane holds that die's bits.
  constexpr std::size_t kChunk = 32;
  const std::size_t nchunks = (samples + kChunk - 1) / kChunk;
  std::vector<std::size_t> chunk_pass(nchunks, 0);
  util::parallel_for(0, nchunks, 1, [&](std::size_t cb, std::size_t ce) {
    std::vector<double> leff(table.num_regions), vt(table.num_regions);
    std::vector<double> cell_leff(cells), cell_vt(cells);
    // Lane-interleaved by topological position, [t * kDieLanes + lane]: a
    // gate's delay until the sweep replaces it by the gate's arrival.
    std::vector<double> arrival(n * kDieLanes);
    for (std::size_t ci = cb; ci < ce; ++ci) {
      const std::size_t s0 = ci * kChunk;
      const std::size_t s1 = std::min(samples, s0 + kChunk);
      std::size_t pass = 0;
      for (std::size_t d0 = s0; d0 < s1; d0 += kDieLanes) {
        // A short last group sweeps stale values in its upper lanes; their
        // verdicts are not counted.
        const std::size_t dies = std::min(kDieLanes, s1 - d0);
        for (std::size_t lane = 0; lane < dies; ++lane) {
          util::Rng rng = util::Rng::stream(seed, d0 + lane);
          for (double& v : leff) v = rng.normal();
          for (double& v : vt) v = rng.normal();
          for (std::size_t c = 0; c < cells; ++c) {
            const std::size_t* region = table.cell_region.data() + c * levels;
            double dl = 0.0, dv = 0.0;
            for (std::size_t l = 0; l < levels; ++l) {
              const double w = table.level_weight[l];
              dl += w * leff[region[l]];
              dv += w * vt[region[l]];
            }
            cell_leff[c] = dl;
            cell_vt[c] = dv;
          }
          for (std::size_t r = 0; r < rows; ++r) {
            const std::uint32_t c = table.cell[r];
            arrival[table.position[r] * kDieLanes + lane] =
                table.nominal[r] + table.sigma_leff[r] * cell_leff[c] +
                table.sigma_vt[r] * cell_vt[c] +
                table.sigma_random[r] * rng.normal();
          }
        }
        double worst[kDieLanes] = {};
        for (std::size_t t = 0; t < n; ++t) {
          double arr[kDieLanes] = {};
          for (std::uint32_t q : graph.fanin_positions(t)) {
            const double* a = arrival.data() + q * kDieLanes;
            for (std::size_t l = 0; l < kDieLanes; ++l) {
              arr[l] = std::max(arr[l], a[l]);
            }
          }
          // Launch and capture points add no delay (arr + 0 is arr: arr is
          // never -0).
          double* out = arrival.data() + t * kDieLanes;
          if (role[t] == kGate) {
            for (std::size_t l = 0; l < kDieLanes; ++l) out[l] += arr[l];
          } else {
            for (std::size_t l = 0; l < kDieLanes; ++l) out[l] = arr[l];
          }
          if (role[t] == kCapture) {
            for (std::size_t l = 0; l < kDieLanes; ++l) {
              worst[l] = std::max(worst[l], out[l]);
            }
          }
        }
        for (std::size_t lane = 0; lane < dies; ++lane) {
          if (worst[lane] <= t_cons) ++pass;
        }
      }
      chunk_pass[ci] = pass;
    }
  });
  std::size_t pass = 0;
  for (std::size_t p : chunk_pass) pass += p;
  return static_cast<double>(pass) / static_cast<double>(samples);
}

}  // namespace

double estimate_circuit_yield(const timing::TimingGraph& graph,
                              const variation::SpatialModel& spatial,
                              double t_cons, std::size_t samples,
                              std::uint64_t seed, double random_scale) {
  return yield_from_table(graph, gate_table(graph, spatial, random_scale),
                          t_cons, samples, seed);
}

std::vector<std::unique_ptr<Experiment>> build_experiments(
    const std::vector<ExperimentConfig>& configs) {
  std::vector<std::unique_ptr<Experiment>> out(configs.size());
  std::vector<std::future<void>> pending;
  pending.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    pending.push_back(util::ThreadPool::instance().submit(
        [&out, &configs, i] { out[i] = std::make_unique<Experiment>(configs[i]); }));
  }
  // Wait for everything before rethrowing: the tasks capture `out`/`configs`
  // by reference, so no future may outlive this frame.
  std::exception_ptr error;
  for (auto& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  return out;
}

Experiment::Experiment(const ExperimentConfig& config) : config_(config) {
  // One span per stage, each opened and closed on the building thread (a
  // build_experiments task or the caller), never inside a parallel_for body.
  namespace telemetry = util::telemetry;
  const std::uint64_t seed =
      config_.seed != 0 ? config_.seed
                        : util::Rng::seed_from(config_.benchmark, 42);
  telemetry::Span generate_stage("core.experiment.generate");
  netlist_ = circuit::generate_benchmark(config_.benchmark);
  circuit::PlacementOptions popt;
  popt.seed = seed ^ 0x9e37;
  circuit::place(netlist_, popt);
  generate_stage.stop();

  telemetry::Span sta_stage("core.experiment.sta");
  graph_ = std::make_unique<timing::TimingGraph>(netlist_, library_);
  if (config_.emulate_synthesis) {
    timing::emulate_area_recovery(*graph_);
  }
  const timing::StaResult sta = timing::run_sta(*graph_);
  nominal_delay_ = sta.circuit_delay;
  t_cons_ = nominal_delay_ * config_.tcons_factor;
  sta_stage.stop();

  telemetry::Span yield_stage("core.experiment.yield_mc");
  int levels = config_.hierarchy_levels;
  if (levels <= 0) {
    // Paper: 3-level model (21 regions) for smaller benchmarks, 5-level
    // (341 regions) for larger ones; threshold at ~2000 gates.
    levels = (netlist_.combinational_count() < 2000) ? 3 : 5;
  }
  spatial_ = std::make_unique<variation::SpatialModel>(levels);
  // One table feeds both the yield sampler and the candidate filter.
  const GateTable table = gate_table(*graph_, *spatial_, config_.random_scale);
  yield_ = yield_from_table(*graph_, table, t_cons_, config_.yield_mc_samples,
                            seed ^ 0xA0);
  yield_stage.stop();

  // Candidate enumeration: per-gate coverage paths first (the worst path
  // through every gate, so the statistical filter sees every circuit
  // region), then endpoint-balanced k-worst enumeration for volume.
  telemetry::Span enumerate_stage("core.experiment.enumerate");
  timing::PathEnumOptions popts;
  popts.max_paths = config_.max_candidates;
  popts.sigma_weight = config_.enum_sigma_weight;
  std::vector<timing::Path> candidates =
      timing::worst_path_through_each_gate(*graph_, popts);
  const std::size_t coverage_count = candidates.size();
  {
    std::vector<timing::Path> extra =
        timing::enumerate_worst_paths_per_endpoint(*graph_, popts);
    std::unordered_set<std::size_t> seen;
    auto path_hash = [](const timing::Path& p) {
      std::size_t h = 1469598103934665603ull;
      for (circuit::GateId g : p.gates) {
        h ^= static_cast<std::size_t>(g) + 0x9e3779b9 + (h << 6) + (h >> 2);
      }
      return h;
    };
    for (const timing::Path& p : candidates) seen.insert(path_hash(p));
    for (timing::Path& p : extra) {
      if (candidates.size() >= config_.max_candidates + coverage_count) break;
      if (seen.insert(path_hash(p)).second) candidates.push_back(std::move(p));
    }
  }
  candidates_ = candidates.size();
  enumerate_stage.stop();

  telemetry::Span filter_stage("core.experiment.filter");
  PathStatAccumulator acc(table);
  const double threshold = config_.yield_loss_factor * (1.0 - yield_);
  struct Scored {
    std::size_t index;
    double fail_prob;
  };
  std::vector<Scored> scored;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const PathStats st = acc.stats(candidates[i]);
    if (st.sigma <= 0.0) continue;
    const double q = 1.0 - util::normal_cdf((t_cons_ - st.mu) / st.sigma);
    if (q > threshold) scored.push_back({i, q});
  }
  std::stable_sort(scored.begin(), scored.end(), [](const Scored& a,
                                                    const Scored& b) {
    return a.fail_prob > b.fail_prob;
  });
  if (scored.size() > config_.max_target_paths) {
    // The paper keeps *every* path above the yield-loss threshold; under a
    // budget we must truncate, and truncating purely by fail probability
    // would collapse the pool into the single worst cone.  Keep the
    // qualifying coverage paths (breadth), then fill round-robin across
    // capture points, most-critical first within each endpoint.
    std::vector<Scored> kept;
    kept.reserve(config_.max_target_paths);
    const std::size_t coverage_budget = static_cast<std::size_t>(
        config_.max_coverage_fraction *
        static_cast<double>(config_.max_target_paths));
    std::vector<Scored> rest;
    for (const Scored& s : scored) {
      if (s.index < coverage_count && kept.size() < coverage_budget) {
        kept.push_back(s);
      } else {
        rest.push_back(s);
      }
    }
    scored = std::move(rest);
    std::unordered_map<circuit::GateId, std::vector<std::size_t>> by_endpoint;
    std::vector<circuit::GateId> endpoint_order;
    for (std::size_t k = 0; k < scored.size(); ++k) {
      const circuit::GateId cap = candidates[scored[k].index].gates.back();
      auto [it, fresh] = by_endpoint.try_emplace(cap);
      if (fresh) endpoint_order.push_back(cap);
      it->second.push_back(k);
    }
    for (std::size_t round = 0; kept.size() < config_.max_target_paths;
         ++round) {
      bool any = false;
      for (circuit::GateId cap : endpoint_order) {
        const auto& list = by_endpoint[cap];
        if (round >= list.size()) continue;
        kept.push_back(scored[list[round]]);
        any = true;
        if (kept.size() >= config_.max_target_paths) break;
      }
      if (!any) break;
    }
    std::stable_sort(kept.begin(), kept.end(), [](const Scored& a,
                                                  const Scored& b) {
      return a.fail_prob > b.fail_prob;
    });
    scored = std::move(kept);
  }
  targets_.reserve(scored.size());
  for (const Scored& s : scored) targets_.push_back(std::move(candidates[s.index]));
  if (targets_.empty()) {
    throw std::runtime_error("Experiment: no target paths extracted for " +
                             config_.benchmark);
  }
  filter_stage.stop();

  const telemetry::Span model_stage("core.experiment.model");
  segments_ = timing::extract_segments(netlist_, targets_);
  variation::VariationOptions vopt;
  vopt.random_scale = config_.random_scale;
  model_ = std::make_unique<variation::VariationModel>(*graph_, *spatial_,
                                                       targets_, segments_,
                                                       vopt);
}

std::size_t Experiment::total_gates() const {
  return netlist_.combinational_count();
}

ExperimentConfig default_experiment_config(const std::string& benchmark) {
  ExperimentConfig cfg;
  cfg.benchmark = benchmark;
  switch (util::repro_scale_mode()) {
    case 0:  // REPRO_FAST
      cfg.max_target_paths = 500;
      cfg.max_candidates = 5000;
      cfg.yield_mc_samples = 500;
      break;
    case 2:  // REPRO_FULL
      cfg.max_target_paths = 4000;
      cfg.max_candidates = 40000;
      cfg.yield_mc_samples = 4000;
      break;
    default:
      cfg.max_target_paths = 2000;
      cfg.max_candidates = 20000;
      cfg.yield_mc_samples = 2000;
      break;
  }
  return cfg;
}

std::size_t default_mc_samples() {
  switch (util::repro_scale_mode()) {
    case 0: return 2000;
    case 2: return 10000;
    default: return 10000;
  }
}

}  // namespace repro::core
