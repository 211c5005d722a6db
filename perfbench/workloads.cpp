// Workload runner: runs one workload of the repository benchmark and prints
// one JSON object as the last line of stdout — raw measurements, the output
// checks, the operation counts and (traced runs) the telemetry registry.
// perfbench/run.py builds this binary, turns the raw measurements into the
// metrics named in BENCHMARK.json and prints the benchmark's result line.
//
//   perfbench_workloads --workload paper_flow|service_mix|pool_1m
//                    --seed <n> --seconds <s> --trace 0|1
//
// Every timer wraps a public call into one module (circuit, timing,
// variation, linalg, core, server, util) from the outside; the library
// itself carries no benchmark instrumentation.  A traced run executes the
// workload twice — telemetry off, then on — so the per-layer numbers come
// with the tracing overhead that produced them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/gate_library.h"
#include "circuit/generator.h"
#include "circuit/placement.h"
#include "core/benchmarks.h"
#include "core/measurement.h"
#include "core/monte_carlo.h"
#include "core/panel_source.h"
#include "core/path_selection.h"
#include "core/predictor.h"
#include "core/sharded_selection.h"
#include "core/subset_select.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session.h"
#include "timing/path_enum.h"
#include "timing/segments.h"
#include "timing/sizing.h"
#include "timing/sta.h"
#include "timing/timing_graph.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "variation/spatial_model.h"
#include "variation/variation_model.h"

namespace {

using namespace repro;
using linalg::Matrix;
using linalg::Vector;
using util::Stopwatch;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val != "0";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

// Derived input seed for one consumer of the workload seed.  Never 0:
// ExperimentConfig reads seed 0 as "derive from the benchmark name".
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return util::Rng::stream(seed, salt).next_u64() | 1u;
}

// Peak resident set size of this process (VmHWM), MiB.
double vm_hwm_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::uint64_t counter_value(std::string_view name) {
  for (const auto& c : util::telemetry::snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Measurements of one pass, in insertion order.  Checks count as attempted
// operations; a failed check also counts as failed and keeps its detail.
class Out {
 public:
  void value(const std::string& name, double v) { values_[name] = v; }
  void samples(const std::string& name, std::vector<double> v) {
    samples_[name] = std::move(v);
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    ops(1, ok ? 0 : 1);
    if (!ok) {
      failures_.push_back(name + ": " + detail);
      std::fprintf(stderr, "CHECK FAILED %s: %s\n", name.c_str(),
                   detail.c_str());
    }
  }
  void ops(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void merge_checks(const Out& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    failures_.insert(failures_.end(), other.failures_.begin(),
                     other.failures_.end());
  }
  double get(const std::string& name) const { return values_.at(name); }

  std::string json(bool with_telemetry) const {
    std::string js = "{\"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      js += (i ? ", \"" : "\"") + util::telemetry::json_escape(failures_[i]) +
            "\"";
    }
    js += "], \"values\": {";
    bool first = true;
    for (const auto& [k, v] : values_) {
      js += (first ? "\"" : ", \"") + k + "\": " + util::json::json_double(v);
      first = false;
    }
    js += "}, \"samples\": {";
    first = true;
    for (const auto& [k, v] : samples_) {
      js += (first ? "\"" : ", \"") + k + "\": [";
      for (std::size_t i = 0; i < v.size(); ++i) {
        js += (i ? ", " : "") + util::json::json_double(v[i]);
      }
      js += "]";
      first = false;
    }
    js += "}, \"telemetry\": ";
    js += with_telemetry ? util::telemetry::to_json() : "{}";
    js += "}";
    return js;
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
};

// Share of parallel_for chunks the pool workers ran (the rest ran on the
// calling thread); needs telemetry on.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double pool_worker_share() {
  const double workers =
      static_cast<double>(counter_value("util.pool.chunks_by_workers"));
  const double caller =
      static_cast<double>(counter_value("util.pool.chunks_by_caller"));
  return workers + caller > 0.0 ? workers / (workers + caller) : 0.0;
}

// ===================== paper_flow ==========================================
//
// The Table 1 flow at default scale (eps = 5%, bisection strategy) on a tall
// (SVD route) and a wide (Gram route) circuit, with the fault-injected
// robust evaluation on the first.  The circuits are the Table 1 pools at
// every seed; the seed draws the Monte-Carlo dies and the fault schedules
// (seed 0 keeps the Table 1 draws, so its e1 is the Table 1 value).

struct Table1Row {
  const char* circuit;
  std::size_t exact_rank;
  std::size_t reps;
  double e1;  // clean-MC e1 at seed 0, fraction
};
constexpr Table1Row kTable1[] = {{"s1423", 251, 4, 0.024792},
                                 {"s38417", 943, 20, 0.0356}};
// Absolute e1 tolerance of the seed-0 golden check (0.05 percentage points).
constexpr double kGoldenE1Tol = 5e-4;
constexpr double kPaperEpsilon = 0.05;
constexpr std::size_t kMcDies = 10000;
constexpr int kSetupRounds = 3;

// One pass over both circuits.  Values: flow_s, select_s, paths_measured,
// e1_pct and the per-call layer times.
void paper_flow_pass(const Args& args, Out& out) {
  double flow = 0.0, select = 0.0, experiment = 0.0, gram_s = 0.0,
         selector_s = 0.0, select_call = 0.0, mc_s = 0.0, faulty_s = 0.0;
  double gram_flops = 0.0, paths = 0.0, e1_sum = 0.0, candidates = 0.0,
         rank_sum = 0.0, faulty_failed = 0.0, faulty_dies = 0.0;
  double setup_round = 0.0;

  for (const Table1Row& row : kTable1) {
    const std::string name = row.circuit;
    const core::ExperimentConfig cfg =
        core::default_experiment_config(row.circuit);
    Stopwatch flow_sw;

    Stopwatch sw;
    const core::Experiment e(cfg);
    const double t_experiment = sw.seconds();
    experiment += t_experiment;
    setup_round += t_experiment;
    const Matrix& a = e.model().a();

    sw = Stopwatch();
    const Matrix gram = linalg::gram(a);
    const double t_gram = sw.seconds();
    sw = Stopwatch();
    const core::SubsetSelector selector = core::make_subset_selector(a, gram);
    const double t_selector = sw.seconds();
    core::PathSelectionOptions opt;
    opt.epsilon = kPaperEpsilon;
    const std::uint64_t cand_before = counter_value("core.select.candidates");
    sw = Stopwatch();
    const core::PathSelectionResult sel =
        core::select_representative_paths(selector, gram, e.t_cons_ps(), opt);
    const double t_select = sw.seconds();
    candidates += static_cast<double>(counter_value("core.select.candidates") -
                                      cand_before);
    gram_s += t_gram;
    selector_s += t_selector;
    select_call += t_select;
    select += t_gram + t_selector + t_select;
    gram_flops += static_cast<double>(a.rows()) *
                  static_cast<double>(a.rows() + 1) *
                  static_cast<double>(a.cols());

    const core::LinearPredictor pred = core::make_path_predictor(
        a, e.model().mu_paths(), sel.representatives);
    core::McOptions mc;
    mc.samples = kMcDies;
    if (args.seed != 0) mc.seed = mix_seed(args.seed, 2);
    sw = Stopwatch();
    const core::McMetrics m = core::evaluate_predictor(e.model(), pred, mc);
    mc_s += sw.seconds();

    if (&row == &kTable1[0]) {
      // Fault-injected robust evaluation: the dead representative slots are
      // excluded at build time and backups promoted from the greedy order.
      core::FaultSpec spec = core::default_fault_spec();
      if (args.seed != 0) spec.seed = mix_seed(args.seed, 3);
      std::vector<int> dead;
      for (int slot : spec.dead_slots) {
        if (slot >= 0 &&
            static_cast<std::size_t>(slot) < sel.representatives.size()) {
          dead.push_back(sel.representatives[static_cast<std::size_t>(slot)]);
        }
      }
      core::RobustOptions ropt;
      ropt.backup_order = selector.greedy_order(gram);
      ropt.measurement_sigma_ps =
          core::expected_noise_sigma(spec, e.model().mu_paths());
      const core::RobustPredictor robust = core::make_robust_path_predictor(
          a, e.model().mu_paths(), sel.representatives, dead, ropt);
      core::FaultyMcOptions fmc;
      fmc.mc = mc;
      fmc.faults = core::without_dead_slots(spec);
      sw = Stopwatch();
      const core::FaultyMcMetrics fm =
          core::evaluate_predictor_under_faults(e.model(), robust, fmc);
      faulty_s += sw.seconds();
      faulty_failed += static_cast<double>(fm.failed_dies);
      faulty_dies += static_cast<double>(fm.metrics.samples);
      out.check(name + ".faulty_mc", fm.metrics.samples == kMcDies &&
                                         std::isfinite(fm.metrics.e1) &&
                                         fm.failed_dies < kMcDies,
                "robust e1 " + std::to_string(fm.metrics.e1) + ", failed " +
                    std::to_string(fm.failed_dies));
    }
    flow += flow_sw.seconds();

    paths += static_cast<double>(sel.representatives.size());
    e1_sum += m.e1;
    rank_sum += static_cast<double>(sel.exact_rank);
    out.check(name + ".eps_r", sel.eps_r <= kPaperEpsilon,
              "eps_r " + std::to_string(sel.eps_r));
    out.check(name + ".mc_e1", m.samples == kMcDies && m.e1 <= kPaperEpsilon,
              "e1 " + std::to_string(m.e1));
    out.check(name + ".table1_rank", sel.exact_rank == row.exact_rank,
              std::to_string(sel.exact_rank) + " != " +
                  std::to_string(row.exact_rank));
    out.check(name + ".table1_reps", sel.representatives.size() == row.reps,
              std::to_string(sel.representatives.size()) + " != " +
                  std::to_string(row.reps));
    if (args.seed == 0) {
      out.check(name + ".table1_e1", std::abs(m.e1 - row.e1) <= kGoldenE1Tol,
                std::to_string(m.e1) + " vs " + std::to_string(row.e1));
    }
  }

  out.value("flow_s", flow);
  out.value("select_s", select);
  out.value("paths_measured", paths);
  out.value("e1_pct", 100.0 * e1_sum / std::size(kTable1));
  out.value("core.experiment_s", experiment);
  out.value("linalg.gram_s", gram_s);
  out.value("linalg.gram_gflops", gram_flops / gram_s * 1e-9);
  out.value("core.selector_s", selector_s);
  out.value("core.select_s", select_call);
  out.value("core.select.candidates", candidates);
  out.value("core.select.rank", rank_sum);
  out.value("core.mc_s", mc_s);
  out.value("core.mc.dies_per_s",
            static_cast<double>(kMcDies * std::size(kTable1)) / mc_s);
  out.value("core.mc_faulty_s", faulty_s);
  out.value("core.mc_faulty.dies_per_s", faulty_dies / faulty_s);
  out.value("core.mc_faulty.failed_frac", faulty_failed / faulty_dies);
  out.value("setup_round_s", setup_round);
}

// Extra set-up rounds (the Experiment builds alone), so setup_s is a median.
void paper_flow_setup_rounds(std::vector<double>& rounds) {
  for (std::size_t r = 1; r < rounds.size(); ++r) {
    for (const Table1Row& row : kTable1) {
      const core::ExperimentConfig cfg =
          core::default_experiment_config(row.circuit);
      Stopwatch sw;
      const core::Experiment e(cfg);
      rounds[r] += sw.seconds();
    }
  }
}

// The stages of core::Experiment, each timed around its public call (same
// inputs as the Experiment build; the target-path filter is internal, so
// the model stage reuses the built Experiment's targets).
void paper_flow_stages(Out& out) {
  double generate = 0.0, sta = 0.0, yield = 0.0, enumerate = 0.0,
         model = 0.0, enumerated = 0.0;
  for (const Table1Row& row : kTable1) {
    const core::ExperimentConfig cfg =
        core::default_experiment_config(row.circuit);
    const core::Experiment built(cfg);
    const std::uint64_t seed =
        cfg.seed != 0 ? cfg.seed : util::Rng::seed_from(cfg.benchmark, 42);

    Stopwatch sw;
    circuit::Netlist nl = circuit::generate_benchmark(cfg.benchmark);
    circuit::PlacementOptions popt;
    popt.seed = seed ^ 0x9e37;
    circuit::place(nl, popt);
    generate += sw.seconds();

    const circuit::GateLibrary library;
    sw = Stopwatch();
    timing::TimingGraph graph(nl, library);
    if (cfg.emulate_synthesis) timing::emulate_area_recovery(graph);
    const timing::StaResult st = timing::run_sta(graph);
    sta += sw.seconds();

    const int levels = nl.combinational_count() < 2000 ? 3 : 5;
    const variation::SpatialModel spatial(levels);
    sw = Stopwatch();
    (void)core::estimate_circuit_yield(graph, spatial,
                                       st.circuit_delay * cfg.tcons_factor,
                                       cfg.yield_mc_samples, seed ^ 0xA0,
                                       cfg.random_scale);
    yield += sw.seconds();

    timing::PathEnumOptions eopt;
    eopt.max_paths = cfg.max_candidates;
    eopt.sigma_weight = cfg.enum_sigma_weight;
    sw = Stopwatch();
    const auto coverage = timing::worst_path_through_each_gate(graph, eopt);
    const auto per_endpoint =
        timing::enumerate_worst_paths_per_endpoint(graph, eopt);
    enumerate += sw.seconds();
    enumerated += static_cast<double>(coverage.size() + per_endpoint.size());

    sw = Stopwatch();
    const timing::SegmentDecomposition segs =
        timing::extract_segments(nl, built.target_paths());
    variation::VariationOptions vopt;
    vopt.random_scale = cfg.random_scale;
    const variation::VariationModel vm(graph, spatial, built.target_paths(),
                                       segs, vopt);
    model += sw.seconds();
    out.check(std::string(row.circuit) + ".stage_model",
              vm.a().rows() == built.model().a().rows() &&
                  vm.a().cols() == built.model().a().cols(),
              "staged model shape differs from the Experiment's");
  }
  out.value("circuit.generate_s", generate);
  out.value("timing.sta_s", sta);
  out.value("core.yield_mc_s", yield);
  out.value("timing.enumerate_s", enumerate);
  out.value("timing.paths_enumerated", enumerated);
  out.value("variation.model_s", model);
}

void run_paper_flow(const Args& args, Out& out) {
  if (!args.trace) {
    paper_flow_pass(args, out);
    out.value("peak_rss_mib", vm_hwm_mib());
    std::vector<double> rounds(kSetupRounds, 0.0);
    rounds[0] = out.get("setup_round_s");
    paper_flow_setup_rounds(rounds);
    out.samples("setup_s", rounds);
    return;
  }
  Out untraced;
  paper_flow_pass(args, untraced);
  out.merge_checks(untraced);
  util::telemetry::set_enabled(true);
  util::telemetry::reset();
  paper_flow_pass(args, out);
  out.value("util.pool.worker_share", pool_worker_share());
  out.value("trace_overhead_frac",
            out.get("flow_s") / untraced.get("flow_s") - 1.0);
  paper_flow_stages(out);
}

// ===================== service_mix =========================================
//
// One shared s1423 session (default pool) in an in-process server::Server,
// driven through server::Client over socket pairs: three predict clients
// keep a window of predicts in flight while one observe client streams
// fault-injected dies.  The session is seed-independent; the seed draws the
// dies and the fault schedules.

constexpr int kPredictClients = 3;
constexpr std::size_t kPredictWindow = 8;
constexpr std::size_t kPredictDiesPerClient = 256;
// Observes per round.  Rounds repeat until the loop has run for --seconds
// and p99 has ten samples beyond it (1000 observes); flow_s is the median
// round, so one slow stretch of the host does not move it.
constexpr std::size_t kObserveDies = 250;
constexpr std::size_t kMinObserves = 1000;
constexpr std::size_t kMaxObserveRounds = 12;
constexpr int kWarmOpens = 50;

bool connect_client(server::Server& srv, server::Client& client) {
  auto [ours, theirs] = util::socket_pair();
  if (!ours.valid() || !theirs.valid()) return false;
  srv.serve_fd(std::move(theirs));
  return client.adopt(std::move(ours));
}

struct PredictDie {
  std::vector<double> measured;
  Vector reference;  // in-process LinearPredictor::predict
};

struct ObserveDie {
  std::vector<double> measured;
  std::vector<std::uint8_t> valid;
};

struct ColdOpen {
  std::unique_ptr<server::Server> server;
  server::Client client;
  server::SessionInfo info;
  double seconds = 0.0;
};

// Opens `cfg` on a fresh server, so the session is built from scratch.
ColdOpen cold_open(const server::SessionConfig& cfg, Out& out) {
  ColdOpen c;
  c.server = std::make_unique<server::Server>();
  if (!connect_client(*c.server, c.client)) {
    throw std::runtime_error("socket pair failed");
  }
  const Stopwatch sw;
  const bool opened = c.client.open_session(cfg, c.info);
  c.seconds = sw.seconds();
  out.check("open_session", opened && !c.info.cached,
            c.client.last_error_message());
  if (!opened) throw std::runtime_error("open_session failed");
  return c;
}

void service_mix_pass(const Args& args, Out& out) {
  // Three cold opens on fresh servers, spread over the run so one slow
  // stretch of the host moves at most one of them: the serving session
  // first, the serial reference for the observe check after the loop, and
  // one more at the end.
  const server::SessionConfig cfg;  // s1423, eps 5%, bisection, default pool
  ColdOpen serving = cold_open(cfg, out);
  server::Server& srv = *serving.server;
  server::Client& opener = serving.client;
  const server::SessionInfo& info = serving.info;
  const std::shared_ptr<server::Session> session =
      srv.sessions().find(info.session);
  const core::LinearPredictor& pred = session->predictor;
  const variation::VariationModel& model = session->experiment->model();

  // ---- inputs, drawn before timing -------------------------------------
  auto draw = [&](std::uint64_t stream, std::size_t k) {
    util::Rng rng = util::Rng::stream(stream, k);
    std::vector<double> x(model.num_params());
    for (double& v : x) v = rng.normal();
    return model.path_delays(x);
  };
  const std::uint64_t predict_seed = mix_seed(args.seed, 11);
  std::vector<std::vector<PredictDie>> predict_dies(kPredictClients);
  std::vector<double> max_rel(pred.remaining.size(), 0.0);
  for (int c = 0; c < kPredictClients; ++c) {
    for (std::size_t k = 0; k < kPredictDiesPerClient; ++k) {
      const Vector d = draw(predict_seed, c * kPredictDiesPerClient + k);
      PredictDie die;
      for (int p : pred.measured_paths) die.measured.push_back(d[p]);
      die.reference = pred.predict(die.measured);
      for (std::size_t i = 0; i < pred.remaining.size(); ++i) {
        const double truth = d[static_cast<std::size_t>(pred.remaining[i])];
        max_rel[i] = std::max(max_rel[i],
                              std::abs(die.reference[i] - truth) / truth);
      }
      predict_dies[c].push_back(std::move(die));
    }
  }
  double e1 = 0.0;
  for (double v : max_rel) e1 += v;
  e1 /= static_cast<double>(max_rel.size());

  core::FaultSpec spec = core::default_fault_spec();
  spec.seed = mix_seed(args.seed, 12);
  // Observed dies need only the measured rows: d_p = mu_p + a_p . x.
  const std::uint64_t observe_seed = mix_seed(args.seed, 13);
  std::vector<ObserveDie> observe_dies(kObserveDies * kMaxObserveRounds);
  for (std::size_t k = 0; k < observe_dies.size(); ++k) {
    util::Rng rng = util::Rng::stream(observe_seed, k);
    std::vector<double> x(model.num_params());
    for (double& v : x) v = rng.normal();
    std::vector<double> clean;
    for (int p : pred.measured_paths) {
      clean.push_back(model.path_mu(static_cast<std::size_t>(p)) +
                      linalg::dot(model.a().row(static_cast<std::size_t>(p)), x));
    }
    const core::NoisyMeasurements nm =
        core::apply_faults(clean, pred.mu_meas, spec, k);
    observe_dies[k].measured.assign(nm.values.begin(), nm.values.end());
    observe_dies[k].valid.assign(nm.valid.begin(), nm.valid.end());
  }

  // ---- closed loop -----------------------------------------------------
  std::vector<server::Client> predictors(kPredictClients);
  server::Client observer;
  for (auto& c : predictors) {
    if (!connect_client(srv, c)) throw std::runtime_error("connect failed");
  }
  if (!connect_client(srv, observer)) throw std::runtime_error("connect failed");

  const std::uint64_t panels_before = session->batcher->panels();
  const std::uint64_t batched_before = session->batcher->dies();
  std::atomic<bool> observes_done{false};
  std::vector<std::vector<double>> predict_lat(kPredictClients);
  std::vector<std::size_t> predict_in_loop(kPredictClients, 0);
  std::vector<std::size_t> predict_bad(kPredictClients, 0);
  std::vector<std::size_t> predict_sent(kPredictClients, 0);
  std::vector<double> observe_lat;
  std::vector<double> round_s;
  std::vector<server::ObserveOutcome> outcomes(observe_dies.size());
  std::size_t observed = 0, observe_errors = 0;
  using Clock = std::chrono::steady_clock;

  Stopwatch loop_sw;
  std::vector<std::thread> threads;
  for (int c = 0; c < kPredictClients; ++c) {
    threads.emplace_back([&, c] {
      server::Client& cl = predictors[c];
      const auto& dies = predict_dies[c];
      std::vector<Clock::time_point> sent_at;
      std::size_t sent = 0, received = 0;
      std::uint32_t seq = 0;
      std::vector<double> got;
      auto send_one = [&] {
        sent_at.push_back(Clock::now());
        if (!cl.send_predict(info.session,
                             dies[sent % dies.size()].measured, seq)) {
          return false;
        }
        ++sent;
        return true;
      };
      for (std::size_t w = 0; w < kPredictWindow; ++w) {
        if (!send_one()) break;
      }
      while (received < sent) {
        if (!cl.recv_predict(got, seq)) {
          predict_bad[c] += sent - received;
          break;
        }
        const auto now = Clock::now();
        predict_lat[c].push_back(
            std::chrono::duration<double, std::micro>(now - sent_at[received])
                .count());
        if (!same_bits(got, dies[received % dies.size()].reference)) {
          ++predict_bad[c];
        }
        ++received;
        if (!observes_done.load(std::memory_order_relaxed)) {
          ++predict_in_loop[c];
          if (!send_one()) {
            predict_bad[c] += 1;
            break;
          }
        }
      }
      predict_sent[c] = sent;
    });
  }
  threads.emplace_back([&] {
    for (std::size_t round = 0; round < kMaxObserveRounds; ++round) {
      const Stopwatch round_sw;
      for (std::size_t i = 0; i < kObserveDies; ++i, ++observed) {
        const ObserveDie& die = observe_dies[observed];
        const Stopwatch t;
        if (!observer.observe(info.session, die.measured, die.valid,
                              outcomes[observed])) {
          ++observe_errors;
        }
        observe_lat.push_back(t.ms());
      }
      round_s.push_back(round_sw.seconds());
      if (loop_sw.seconds() >= args.seconds && observed >= kMinObserves) break;
    }
    observes_done.store(true);
  });
  // The observe thread is the last one started; it ends the loop.
  threads.back().join();
  const double loop_s = loop_sw.seconds();
  threads.pop_back();
  for (auto& t : threads) t.join();

  const double batch_panels =
      static_cast<double>(session->batcher->panels() - panels_before);
  const double batch_dies =
      static_cast<double>(session->batcher->dies() - batched_before);

  std::size_t predicts = 0, predicts_in_loop = 0, predicts_bad = 0;
  std::vector<double> predict_all;
  for (int c = 0; c < kPredictClients; ++c) {
    predicts += predict_sent[c];
    predicts_in_loop += predict_in_loop[c];
    predicts_bad += predict_bad[c];
    predict_all.insert(predict_all.end(), predict_lat[c].begin(),
                       predict_lat[c].end());
  }
  out.ops(predicts, predicts_bad);
  if (predicts_bad > 0) {
    out.check("predict_bit_identical", false,
              std::to_string(predicts_bad) + " of " +
                  std::to_string(predicts) + " predicts failed or differ");
  }

  // ---- observes against a serial in-process calibrator -----------------
  ColdOpen reference = cold_open(cfg, out);
  const std::shared_ptr<server::Session> ref_session =
      reference.server->sessions().find(reference.info.session);
  std::vector<double> replay_lat;
  std::size_t observe_bad = observe_errors, accepted = 0;
  {
    std::lock_guard<std::mutex> lk(ref_session->stream_mu);
    core::StreamingCalibrator& cal = *ref_session->calibrator;
    for (std::size_t k = 0; k < observed; ++k) {
      const std::vector<char> mask(observe_dies[k].valid.begin(),
                                   observe_dies[k].valid.end());
      const Stopwatch t;
      const core::DieRecord rec = cal.observe(k, observe_dies[k].measured, mask);
      replay_lat.push_back(t.ms());
      const server::ObserveOutcome& o = outcomes[k];
      accepted += rec.accepted ? 1 : 0;
      const bool same =
          o.accepted == rec.accepted &&
          o.gate == static_cast<std::uint8_t>(rec.gate) &&
          o.health == static_cast<std::uint8_t>(rec.prediction_health) &&
          o.drift_flagged == rec.drift_flagged &&
          same_bits({&o.drift_score, 1}, {&rec.drift_score, 1}) &&
          same_bits({&o.guardband, 1}, {&rec.guardband, 1}) &&
          same_bits(o.predicted, rec.predicted);
      if (!same) ++observe_bad;
    }
  }
  out.ops(observed, observe_bad);
  if (observe_bad > 0) {
    out.check("observe_matches_serial", false,
              std::to_string(observe_bad) + " of " +
                  std::to_string(observed) + " observes differ");
  }

  // ---- warm reopen: cache hit, no refactorization ----------------------
  const bool was_enabled = util::telemetry::enabled();
  util::telemetry::set_enabled(true);
  const std::uint64_t qr_before = counter_value("linalg.qr_colpivot.calls");
  server::SessionInfo again;
  const bool reopened = opener.open_session(cfg, again);
  const std::uint64_t qr_after = counter_value("linalg.qr_colpivot.calls");
  util::telemetry::set_enabled(was_enabled);
  out.check("warm_reopen_cached",
            reopened && again.cached && again.session == info.session &&
                qr_after == qr_before,
            "cached " + std::to_string(again.cached) + ", qr calls " +
                std::to_string(qr_after - qr_before));
  std::vector<double> warm;
  std::size_t warm_bad = 0;
  for (int i = 0; i < kWarmOpens; ++i) {
    const Stopwatch t;
    const bool ok = opener.open_session(cfg, again);
    warm.push_back(t.seconds() * 1e6);
    if (!ok || !again.cached || again.representatives != info.representatives) {
      ++warm_bad;
    }
  }
  out.ops(kWarmOpens, warm_bad);

  // ---- core time of the panels the batcher formed ----------------------
  const double batch_mean = batch_panels > 0 ? batch_dies / batch_panels : 1.0;
  const std::size_t panel_rows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(batch_mean)));
  Matrix panel(panel_rows, pred.mu_meas.size());
  for (std::size_t r = 0; r < panel_rows; ++r) {
    const auto& m = predict_dies[0][r % kPredictDiesPerClient].measured;
    std::copy(m.begin(), m.end(), panel.row(r).begin());
  }
  std::size_t panel_calls = 0;
  const Stopwatch panel_sw;
  while (panel_calls < 10 || panel_sw.seconds() < 0.2) {
    const Matrix res = core::predict_panel(pred, panel);
    ++panel_calls;
  }
  const double panel_us = panel_sw.seconds() * 1e6 / panel_calls;

  const double last_open_s = cold_open(cfg, out).seconds;
  srv.stop();
  reference.server->stop();

  // On the service, set-up and the time to a validated representative set
  // are the same operation: the cold open.
  const std::vector<double> cold_open_s = {serving.seconds, reference.seconds,
                                           last_open_s};
  out.samples("setup_s", cold_open_s);
  out.value("select_s", median(cold_open_s));

  out.value("flow_s", median(round_s));
  out.samples("warm_open_us", warm);
  out.value("paths_measured", static_cast<double>(info.n_meas));
  out.value("e1_pct", 100.0 * e1);
  out.value("predict_per_s", static_cast<double>(predicts_in_loop) / loop_s);
  out.samples("predict_us", predict_all);
  out.samples("observe_ms", observe_lat);
  out.samples("core.stream.observe_ms", replay_lat);
  out.value("core.stream.accepted_frac",
            static_cast<double>(accepted) / static_cast<double>(observed));
  out.value("server.batch_mean_size", batch_mean);
  out.value("core.predict_panel_us_per_die", panel_us / panel_rows);
  out.value("core.predict_panel_us", panel_us);
  out.value("core.select.rank", static_cast<double>(info.rank));
}

void run_service_mix(const Args& args, Out& out) {
  if (!args.trace) {
    service_mix_pass(args, out);
    out.value("peak_rss_mib", vm_hwm_mib());
    return;
  }
  Out untraced;
  service_mix_pass(args, untraced);
  out.merge_checks(untraced);
  util::telemetry::set_enabled(true);
  util::telemetry::reset();
  service_mix_pass(args, out);
  const Stopwatch sw;
  const std::shared_ptr<server::Session> s =
      server::build_session(server::SessionConfig{}, 1);
  out.value("server.build_session_s", sw.seconds());
  out.value("util.pool.worker_share", pool_worker_share());
  out.value("trace_overhead_frac",
            out.get("flow_s") / untraced.get("flow_s") - 1.0);
}

// ===================== pool_1m =============================================
//
// core::select_paths_sharded over the synthetic 1M x 64 pool of
// bench_shard_scale, generated on the fly.  The pool's dominant directions
// are that bench's at every seed; the seed draws the rows (per-path mixing
// weights and noise) and the pipeline's planning sample.  Seed 0 is that
// bench's pool.

constexpr std::size_t kPoolPaths = 1'000'000;
constexpr std::size_t kPoolParams = 64;
constexpr std::size_t kPoolDirections = 32;
constexpr double kPoolNoise = 0.05;
constexpr double kPoolTcons = 2000.0;
constexpr double kPoolEpsilon = 2e-3;
constexpr double kKappa = 3.0;
constexpr std::size_t kPoolBlock = 8192;
constexpr int kPoolSetupRounds = 5;
constexpr std::size_t kPoolSetupBlocks = 4;
constexpr std::uint64_t kPoolSeed = 20260808;

std::uint64_t pool_row_seed(std::uint64_t seed) {
  return seed == 0 ? kPoolSeed : mix_seed(seed, 21);
}

Matrix base_directions(std::uint64_t seed) {
  Matrix base(kPoolDirections, kPoolParams);
  for (std::size_t d = 0; d < kPoolDirections; ++d) {
    util::Rng rng = util::Rng::stream(seed, (1u << 24) + d);
    for (std::size_t j = 0; j < kPoolParams; ++j) base(d, j) = rng.normal();
  }
  return base;
}

// Row `id` of the pool: a pure function of (seed, id).  Allocates nothing.
void synth_row(const Matrix& base, std::uint64_t seed, int id,
               std::span<double> row) {
  util::Rng rng = util::Rng::stream(seed, static_cast<std::uint64_t>(id));
  std::fill(row.begin(), row.end(), 0.0);
  for (std::size_t d = 0; d < base.rows(); ++d) {
    linalg::axpy(rng.uniform(0.2, 1.0), base.row(d), row);
  }
  for (double& v : row) v += kPoolNoise * rng.normal();
}

// Path-balanced sharding never asks for path weights, so none are supplied.
core::FunctionPanelSource make_pool_source(const Matrix& base,
                                           std::uint64_t seed) {
  return core::FunctionPanelSource(
      kPoolPaths, kPoolParams, [&base, seed](int id, std::span<double> row) {
        synth_row(base, seed, id, row);
      });
}

struct Pricing {
  double worst = 0.0;  // max over paths of eps_i
  double mean = 0.0;   // mean over paths of eps_i
};

// Analytic error eps_i = kappa * sigma_i / Tcons of selection `reps` over the
// whole pool, computed without the sharded pipeline: an orthonormal basis of
// the selected rows (modified Gram-Schmidt, two passes), then per path the
// residual variance sigma_i^2 = ||a||^2 - ||Q a||^2.
Pricing price_selection(const Matrix& base, std::uint64_t seed,
                       const std::vector<int>& reps) {
  std::vector<std::vector<double>> q;
  std::vector<double> v(kPoolParams);
  for (int id : reps) {
    synth_row(base, seed, id, v);
    const double norm0 = std::sqrt(linalg::dot(v, v));
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& b : q) linalg::axpy(-linalg::dot(b, v), b, v);
    }
    const double norm = std::sqrt(linalg::dot(v, v));
    if (norm <= 1e-10 * norm0) continue;  // dependent row adds no direction
    for (double& x : v) x /= norm;
    q.push_back(v);
  }
  const std::size_t blocks = (kPoolPaths + kPoolBlock - 1) / kPoolBlock;
  std::vector<double> block_max(blocks, 0.0), block_sum(blocks, 0.0);
  util::parallel_for(0, blocks, 1, [&](std::size_t b0, std::size_t b1) {
    std::vector<double> a(kPoolParams);
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t end = std::min(kPoolPaths, (b + 1) * kPoolBlock);
      double worst = 0.0, sum = 0.0;
      for (std::size_t i = b * kPoolBlock; i < end; ++i) {
        synth_row(base, seed, static_cast<int>(i), a);
        double var = linalg::dot(a, a);
        for (const auto& qb : q) {
          const double c = linalg::dot(qb, a);
          var -= c * c;
        }
        const double sigma = std::sqrt(std::max(var, 0.0));
        worst = std::max(worst, sigma);
        sum += sigma;
      }
      block_max[b] = worst;
      block_sum[b] = sum;
    }
  });
  double sum = 0.0;
  for (double v : block_sum) sum += v;
  const double scale = kKappa / kPoolTcons;
  return {scale * *std::max_element(block_max.begin(), block_max.end()),
          scale * sum / static_cast<double>(kPoolPaths)};
}

void pool_1m_pass(const Args& args, Out& out) {
  const std::uint64_t seed = pool_row_seed(args.seed);
  const Matrix base = base_directions(kPoolSeed);
  const auto source = make_pool_source(base, seed);

  core::ShardedSelectionOptions opt;
  opt.selection.epsilon = kPoolEpsilon;
  opt.selection.kappa = kKappa;
  opt.selection.strategy = core::SelectionStrategy::kGreedySweep;
  opt.seed = seed;
  opt.memory_cap_bytes = std::max<std::size_t>(
      64u << 20, kPoolPaths * kPoolParams * sizeof(double) / 4);

  const double hwm_before = vm_hwm_mib();
  const Stopwatch sw;
  const core::ShardedSelectionResult res =
      core::select_paths_sharded(source, kPoolTcons, opt);
  const double select_s = sw.seconds();
  const double hwm_after = vm_hwm_mib();

  const Pricing priced = price_selection(base, seed, res.representatives);
  const bool ids_ok =
      std::is_sorted(res.representatives.begin(), res.representatives.end()) &&
      std::adjacent_find(res.representatives.begin(),
                         res.representatives.end()) ==
          res.representatives.end() &&
      !res.representatives.empty() && res.representatives.front() >= 0 &&
      static_cast<std::size_t>(res.representatives.back()) < kPoolPaths;
  out.check("pool.representatives", ids_ok, "ids not ascending/unique/in range");
  out.check("pool.tolerance_met", res.tolerance_met,
            "eps_r " + std::to_string(res.eps_r));
  out.check("pool.priced_within_eps",
            priced.worst <= kPoolEpsilon * (1.0 + 1e-9),
            "independent eps " + std::to_string(priced.worst));
  // The pipeline prices through a ridge-regularized Cholesky, which can only
  // shrink the explained variance: its eps_r bounds the exact one from above.
  out.check("pool.reported_bounds_priced",
            priced.worst <= res.eps_r * (1.0 + 1e-6) + 1e-12,
            std::to_string(priced.worst) + " > " + std::to_string(res.eps_r));

  const double mib = 1024.0 * 1024.0;
  out.value("flow_s", select_s);
  out.value("select_s", select_s);
  out.value("paths_measured", static_cast<double>(res.representatives.size()));
  // The analytic analog of e1: mean over paths of the worst-case error.
  out.value("e1_pct", 100.0 * priced.mean);
  out.value("peak_rss_mib", hwm_after);
  out.value("core.shard_s", select_s);
  out.value("core.shard.union_paths", static_cast<double>(res.union_paths));
  out.value("core.shard.kept_ratio",
            static_cast<double>(res.representatives.size()) /
                static_cast<double>(res.union_paths));
  out.value("core.shard.repair_promotions",
            static_cast<double>(res.repair_promotions));
  out.value("core.shard.peak_panel_mib",
            static_cast<double>(res.peak_panel_bytes) / mib);
  out.value("core.shard.lease_coverage",
            hwm_after > hwm_before
                ? static_cast<double>(res.peak_panel_bytes) / mib /
                      (hwm_after - hwm_before)
                : 0.0);
}

// Set-up: the source over fresh base directions, up to its first streamed
// blocks, repeated so setup_s is a median.
std::vector<double> pool_1m_setup(std::uint64_t seed) {
  std::vector<double> rounds;
  std::vector<int> ids(kPoolBlock * kPoolSetupBlocks);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  Matrix panel(ids.size(), kPoolParams);
  for (int r = 0; r < kPoolSetupRounds; ++r) {
    const Stopwatch sw;
    const Matrix base = base_directions(kPoolSeed);
    const auto source = make_pool_source(base, seed);
    source.fill_rows(ids, panel);
    rounds.push_back(sw.seconds());
  }
  return rounds;
}

void run_pool_1m(const Args& args, Out& out) {
  if (!args.trace) {
    out.samples("setup_s", pool_1m_setup(pool_row_seed(args.seed)));
    pool_1m_pass(args, out);
    return;
  }
  // The untraced pass runs first so its VmHWM growth is the pipeline's own:
  // lease coverage is reported from it.
  Out untraced;
  pool_1m_pass(args, untraced);
  out.merge_checks(untraced);
  util::telemetry::set_enabled(true);
  util::telemetry::reset();
  pool_1m_pass(args, out);
  out.value("core.shard.lease_coverage",
            untraced.get("core.shard.lease_coverage"));
  out.value("util.pool.worker_share", pool_worker_share());
  out.value("trace_overhead_frac",
            out.get("flow_s") / untraced.get("flow_s") - 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    util::telemetry::set_enabled(false);
    Out out;
    if (args.workload == "paper_flow") {
      run_paper_flow(args, out);
    } else if (args.workload == "service_mix") {
      run_service_mix(args, out);
    } else if (args.workload == "pool_1m") {
      run_pool_1m(args, out);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    out.value("threads", static_cast<double>(util::thread_count()));
    std::printf("%s\n", out.json(args.trace).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", e.what());
    return 1;
  }
}
