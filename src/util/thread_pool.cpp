#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/telemetry.h"
#include "util/text.h"

namespace repro::util {
namespace {

thread_local bool tl_in_parallel_region = false;

struct RegionGuard {
  bool prev;
  RegionGuard() : prev(tl_in_parallel_region) { tl_in_parallel_region = true; }
  ~RegionGuard() { tl_in_parallel_region = prev; }
};

std::size_t default_threads() {
  if (const auto n = env_thread_override(std::getenv("REPRO_THREADS"))) {
    return *n;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<std::size_t>(std::clamp(hc, 1u, 8u));
}

}  // namespace

std::optional<std::size_t> env_thread_override(const char* value) {
  if (value == nullptr) return std::nullopt;
  // Full-string parse: "8x" or "4,8" must not silently run with 8 (resp. 4)
  // threads — reject and let the caller fall back to the hardware default.
  const auto v = parse_ulong_strict(value);
  if (!v || *v == 0) return std::nullopt;
  return std::min<std::size_t>(*v, 256);
}

struct ThreadPool::Impl {
  mutable std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  std::size_t configured = 1;
  bool stopping = false;

  // Spawns the workers if the pool is configured parallel but not yet
  // started.  Caller participates in parallel_for, hence configured - 1.
  void ensure_started_locked() {
    if (!workers.empty() || configured <= 1) return;
    stopping = false;
    workers.reserve(configured - 1);
    for (std::size_t i = 0; i + 1 < configured; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    tl_in_parallel_region = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mutex);
        cv.wait(lk, [&] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping and drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }

  // Joins all workers after letting them drain the queue.
  void stop_and_join() {
    {
      std::lock_guard<std::mutex> lk(mutex);
      stopping = true;
    }
    cv.notify_all();
    for (auto& w : workers) w.join();
    workers.clear();
  }
};

ThreadPool::ThreadPool() : impl_(std::make_unique<Impl>()) {
  impl_->configured = default_threads();
}

ThreadPool::~ThreadPool() { impl_->stop_and_join(); }

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::set_threads(std::size_t n) {
  if (tl_in_parallel_region) {
    throw std::logic_error(
        "ThreadPool::set_threads: called from inside a parallel_for body; "
        "reconfiguration joins the workers and would deadlock");
  }
  n = std::max<std::size_t>(1, n);
  {
    std::lock_guard<std::mutex> lk(impl_->mutex);
    if (impl_->configured == n) return;
  }
  impl_->stop_and_join();
  std::lock_guard<std::mutex> lk(impl_->mutex);
  impl_->configured = n;
}

std::size_t ThreadPool::threads() const {
  std::lock_guard<std::mutex> lk(impl_->mutex);
  return impl_->configured;
}

bool ThreadPool::in_parallel_region() { return tl_in_parallel_region; }

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t total = end - begin;
  const std::size_t nchunks = (total + grain - 1) / grain;
  if (tl_in_parallel_region || nchunks <= 1 || threads() <= 1) {
    fn(begin, end);
    return;
  }

  // Shared loop state: chunks are claimed via an atomic counter (dynamic
  // scheduling), completion is counted even for chunks skipped after a
  // failure so `done` always reaches nchunks and nobody waits forever.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t begin = 0, end = 0, grain = 1, nchunks = 0;
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;
    std::atomic<bool> failed{false};
  };
  auto st = std::make_shared<State>();
  st->begin = begin;
  st->end = end;
  st->grain = grain;
  st->nchunks = nchunks;
  st->fn = &fn;

  auto run_chunks = [st](bool caller) {
    RegionGuard region;
    std::size_t executed = 0;
    for (;;) {
      const std::size_t c = st->next.fetch_add(1);
      if (c >= st->nchunks) break;
      ++executed;
      if (!st->failed.load()) {
        try {
          const std::size_t b = st->begin + c * st->grain;
          const std::size_t e = std::min(st->end, b + st->grain);
          (*st->fn)(b, e);
        } catch (...) {
          std::lock_guard<std::mutex> lk(st->mutex);
          if (!st->error) st->error = std::current_exception();
          st->failed.store(true);
        }
      }
      if (st->done.fetch_add(1) + 1 == st->nchunks) {
        // Serialize with the waiter so the final notification cannot be lost.
        std::lock_guard<std::mutex> lk(st->mutex);
        st->cv.notify_all();
      }
    }
    if (executed > 0) {
      telemetry::count(caller ? "util.pool.chunks_by_caller"
                              : "util.pool.chunks_by_workers",
                       executed);
    }
  };

  telemetry::count("util.pool.parallel_for.calls");
  telemetry::count("util.pool.parallel_for.chunks", nchunks);
  std::size_t helpers = 0;
  std::size_t configured = 1;
  {
    std::lock_guard<std::mutex> lk(impl_->mutex);
    impl_->ensure_started_locked();
    configured = impl_->configured;
    helpers = std::min(impl_->workers.size(), nchunks - 1);
    for (std::size_t i = 0; i < helpers; ++i) {
      impl_->queue.push_back([run_chunks] { run_chunks(false); });
    }
  }
  telemetry::set_gauge("util.pool.threads", static_cast<double>(configured));
  if (helpers > 0) impl_->cv.notify_all();

  run_chunks(true);  // the caller works too

  std::unique_lock<std::mutex> lk(st->mutex);
  st->cv.wait(lk, [&] { return st->done.load() == st->nchunks; });
  if (st->error) std::rethrow_exception(st->error);
}

void set_threads(std::size_t n) { ThreadPool::instance().set_threads(n); }
std::size_t thread_count() { return ThreadPool::instance().threads(); }
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  ThreadPool::instance().parallel_for(begin, end, grain, fn);
}

}  // namespace repro::util
