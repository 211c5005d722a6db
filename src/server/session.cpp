#include "server/session.h"

#include <stdexcept>
#include <thread>
#include <utility>

#include "core/measurement.h"
#include "core/subset_select.h"
#include "linalg/gemm.h"
#include "util/telemetry.h"

namespace repro::server {

bool PredictBatcher::predict(const std::vector<double>& measured,
                             std::vector<double>& out) {
  std::vector<std::vector<double>> rows(1, measured);
  std::vector<std::vector<double>> outs;
  if (!predict_block(rows, outs)) return false;
  out = std::move(outs[0]);
  return true;
}

bool PredictBatcher::predict_block(
    const std::vector<std::vector<double>>& rows,
    std::vector<std::vector<double>>& outs) {
  Pending mine;
  mine.ins = &rows;
  mine.outs = &outs;

  std::unique_lock<std::mutex> lk(mu_);
  queue_.push_back(&mine);
  // Wait for an active leader to answer us, or inherit leadership.  The
  // predicate form re-checks the protocol state on every wakeup, so a
  // spurious wakeup (or a notify consumed out of order) can never leak a
  // follower out of the wait with stale state.
  cv_.wait(lk, [&] { return mine.done || !leader_active_; });
  if (mine.done) return !mine.failed;

  leader_active_ = true;
  // Give runnable strands one scheduling window to enqueue before the first
  // panel is cut — on few-core hosts the leader would otherwise finish its
  // sub-microsecond panel-of-one before anyone else ran.  Unloaded, the
  // yield is a near-free syscall, so the serial path barely pays for it.
  lk.unlock();
  std::this_thread::yield();
  lk.lock();
  while (!queue_.empty()) {
    std::vector<Pending*> batch(queue_.begin(), queue_.end());
    queue_.clear();
    std::size_t total = 0;
    for (const Pending* p : batch) total += p->ins->size();
    panels_ += 1;
    dies_ += total;
    lk.unlock();

    bool failed = false;
    linalg::Matrix result;
    std::size_t at = 0;
    // The try spans the whole unlocked compute section, panel assembly
    // included: if anything here threw outside the try, the batch would
    // never be marked done and every queued follower would wait forever.
    try {
      const std::size_t n_meas = predictor_->mu_meas.size();
      linalg::Matrix panel(total, n_meas);
      for (const Pending* p : batch) {
        for (const std::vector<double>& in : *p->ins) {
          const auto row = panel.row(at++);
          for (std::size_t j = 0; j < n_meas; ++j) row[j] = in[j];
        }
      }
      result = core::predict_panel(*predictor_, panel);
    } catch (...) {
      failed = true;
    }
    util::telemetry::count("server.predict.requests", total);

    lk.lock();
    at = 0;
    for (Pending* p : batch) {
      const std::size_t count = p->ins->size();
      if (!failed) {
        p->outs->resize(count);
        for (std::size_t d = 0; d < count; ++d) {
          const auto row = result.row(at + d);
          (*p->outs)[d].assign(row.begin(), row.end());
        }
      }
      at += count;
      p->failed = failed;
      p->done = true;
    }
    cv_.notify_all();
  }
  leader_active_ = false;
  // A request that raced past the drain while we still held leadership is
  // parked in wait(); hand it the leader role.
  cv_.notify_all();
  return !mine.failed;
}

std::uint64_t PredictBatcher::panels() const {
  std::lock_guard<std::mutex> lk(mu_);
  return panels_;
}

std::uint64_t PredictBatcher::dies() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dies_;
}

SessionInfo Session::info(bool cached) const {
  SessionInfo out;
  out.session = id;
  out.rank = static_cast<std::uint32_t>(selection.exact_rank);
  out.n_meas = static_cast<std::uint32_t>(predictor.measured_paths.size());
  out.n_rem = static_cast<std::uint32_t>(predictor.remaining.size());
  out.eps_r = selection.eps_r;
  out.cached = cached;
  out.representatives.assign(selection.representatives.begin(),
                             selection.representatives.end());
  return out;
}

std::shared_ptr<Session> build_session(const SessionConfig& cfg,
                                       std::uint32_t id) {
  core::ExperimentConfig ec = core::default_experiment_config(cfg.benchmark);
  if (cfg.max_target_paths > 0) ec.max_target_paths = cfg.max_target_paths;
  if (cfg.max_candidates > 0) ec.max_candidates = cfg.max_candidates;
  if (cfg.yield_samples > 0) ec.yield_mc_samples = cfg.yield_samples;

  auto s = std::make_shared<Session>();
  s->id = id;
  s->config = cfg;
  s->experiment = std::make_unique<core::Experiment>(ec);

  const linalg::Matrix& a = s->experiment->model().a();
  const linalg::Vector& mu = s->experiment->model().mu_paths();
  // The selector owns W and lives only for the build, so a built session
  // holds no n x n matrix.
  const core::SubsetSelector selector =
      core::make_subset_selector(a, linalg::gram(a));
  const linalg::Matrix& gram = selector.gram();

  core::PathSelectionOptions opt;
  opt.epsilon = cfg.epsilon;
  opt.kappa = cfg.kappa;
  opt.strategy = static_cast<core::SelectionStrategy>(cfg.strategy);
  opt.min_r = cfg.min_r;
  s->selection = core::select_representative_paths(
      selector, gram, s->experiment->t_cons_ps(), opt);

  // One Theorem-2 build serves both surfaces: streamed dies go through the
  // robust gate, whose backups come from the greedy pivot order and whose
  // noise prior matches the default tester fault model; batch predicts read
  // a copy of its base predictor.
  const std::vector<int>& rep = s->selection.representatives;
  linalg::Vector mu_meas(rep.size());
  for (std::size_t k = 0; k < rep.size(); ++k) {
    mu_meas[k] = mu[static_cast<std::size_t>(rep[k])];
  }
  core::RobustOptions ropt;
  ropt.backup_order = selector.greedy_order(gram);
  ropt.measurement_sigma_ps =
      core::expected_noise_sigma(core::default_fault_spec(), mu_meas);
  core::RobustPredictor robust =
      core::make_robust_path_predictor(a, mu, rep, {}, ropt);
  if (!robust.status.usable()) {
    throw std::runtime_error("build_session: no usable predictor: " +
                             robust.status.message);
  }
  s->predictor = robust.base;
  s->calibrator =
      std::make_unique<core::StreamingCalibrator>(std::move(robust));

  s->batcher = std::make_unique<PredictBatcher>(&s->predictor);
  return s;
}

std::shared_ptr<Session> SessionCache::open(const SessionConfig& cfg,
                                            bool& was_cached) {
  const std::string key = cfg.cache_key();
  std::shared_ptr<Entry> entry;
  std::uint32_t id = 0;
  bool created = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = by_key_.find(key);
    if (it == by_key_.end()) {
      it = by_key_.emplace(key, std::make_shared<Entry>()).first;
      created = true;
    }
    entry = it->second;
    if (created) id = next_id_++;
  }

  std::lock_guard<std::mutex> build_lk(entry->build_mu);
  if (entry->session) {
    was_cached = true;
    util::telemetry::count("server.sessions.cache_hits");
    return entry->session;
  }
  // Either this open created the entry, or an earlier build failed and was
  // evicted while we waited; (re)build single-flight under build_mu.
  if (!created) {
    std::lock_guard<std::mutex> lk(mu_);
    id = next_id_++;
  }
  try {
    entry->session = build_session(cfg, id);
  } catch (...) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end() && it->second == entry) by_key_.erase(it);
    throw;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    by_id_[id] = entry->session;
  }
  was_cached = false;
  util::telemetry::count("server.sessions.built");
  return entry->session;
}

std::shared_ptr<Session> SessionCache::find(std::uint32_t id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::size_t SessionCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return by_id_.size();
}

}  // namespace repro::server
