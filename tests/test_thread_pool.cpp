#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace repro::util {
namespace {

// Every test leaves the pool at a known parallel configuration so test order
// does not matter.
class ThreadPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { set_threads(4); }
};

TEST_F(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  set_threads(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  parallel_for(0, hits.size(), 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ThreadPoolTest, GrainEdgeCases) {
  set_threads(4);
  // Empty range: fn must never run.
  parallel_for(5, 5, 4, [](std::size_t, std::size_t) { FAIL(); });
  parallel_for(7, 3, 4, [](std::size_t, std::size_t) { FAIL(); });

  // Grain larger than the range: one inline chunk covering everything.
  std::size_t calls = 0;
  parallel_for(2, 10, 100, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(e, 10u);
  });
  EXPECT_EQ(calls, 1u);

  // Grain 0 is treated as 1 (every index its own chunk).
  std::vector<std::atomic<int>> hits(17);
  for (auto& h : hits) h = 0;
  parallel_for(0, hits.size(), 0, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(e, b + 1);
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // Range not divisible by grain: the tail chunk is short, nothing is lost.
  std::atomic<std::size_t> covered{0};
  parallel_for(0, 10, 4, [&](std::size_t b, std::size_t e) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), 10u);
}

TEST_F(ThreadPoolTest, TaskExceptionPropagatesToCaller) {
  set_threads(4);
  EXPECT_THROW(
      parallel_for(0, 64, 1,
                   [](std::size_t b, std::size_t) {
                     if (b == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool stays usable after a failed loop.
  std::atomic<std::size_t> covered{0};
  parallel_for(0, 64, 1, [&](std::size_t b, std::size_t e) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), 64u);
}

TEST_F(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  set_threads(4);
  std::atomic<long> total{0};
  parallel_for(0, 16, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      // The inner loop runs inline on the current thread.
      parallel_for(0, 32, 4, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          total.fetch_add(static_cast<long>(i));
        }
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * (31 * 32 / 2));
}

TEST_F(ThreadPoolTest, SetThreadsReconfigures) {
  set_threads(3);
  EXPECT_EQ(thread_count(), 3u);
  set_threads(0);  // clamped to 1
  EXPECT_EQ(thread_count(), 1u);
  // Single-thread mode still runs everything (inline).
  std::size_t covered = 0;
  parallel_for(0, 10, 3, [&](std::size_t b, std::size_t e) { covered += e - b; });
  EXPECT_EQ(covered, 10u);
  // ... as one call over the whole range, on the calling thread.
  std::size_t calls = 0;
  std::thread::id ran_on;
  parallel_for(0, 10, 1, [&](std::size_t b, std::size_t e) {
    ++calls;
    covered = e - b;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(covered, 10u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST_F(ThreadPoolTest, SetThreadsInsideParallelRegionThrows) {
  // Reconfiguring joins the workers; from inside a parallel_for body that
  // would be a self-join deadlock, so it must throw instead.  Many unit
  // chunks ensure the parallel path (not the inline fast path) runs and the
  // region flag is set on the executing thread.
  set_threads(2);
  std::atomic<int> threw{0};
  parallel_for(0, 64, 1, [&](std::size_t, std::size_t) {
    try {
      set_threads(8);
    } catch (const std::logic_error&) {
      threw.fetch_add(1);
    }
  });
  EXPECT_GT(threw.load(), 0);
  // The pool configuration is untouched and still usable.
  EXPECT_EQ(thread_count(), 2u);
  std::atomic<std::size_t> covered{0};
  parallel_for(0, 32, 1, [&](std::size_t b, std::size_t e) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), 32u);

  // The same guard holds in a nested region, which runs inline.
  std::atomic<int> nested_threw{0};
  parallel_for(0, 4, 1, [&](std::size_t, std::size_t) {
    parallel_for(0, 4, 1, [&](std::size_t, std::size_t) {
      try {
        set_threads(8);
      } catch (const std::logic_error&) {
        nested_threw.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(nested_threw.load(), 4);
  EXPECT_EQ(thread_count(), 2u);
}

TEST_F(ThreadPoolTest, SameResultForAnyThreadCount) {
  // A non-commutative-looking reduction done with per-chunk slots must be
  // bit-identical across thread counts (the MC determinism scheme in small).
  auto run = [](std::size_t threads) {
    set_threads(threads);
    const std::size_t n = 1024, chunk = 64;
    const std::size_t nchunks = (n + chunk - 1) / chunk;
    std::vector<double> partial(nchunks, 0.0);
    // Iterate chunk indices inside fn: parallel_for may merge consecutive
    // chunks into one call, so the reduction slots are indexed explicitly.
    parallel_for(0, nchunks, 1, [&](std::size_t cb, std::size_t ce) {
      for (std::size_t ci = cb; ci < ce; ++ci) {
        double s = 0.0;
        for (std::size_t i = ci * chunk; i < (ci + 1) * chunk; ++i) {
          Rng rng = Rng::stream(99, i);
          s += rng.normal();
        }
        partial[ci] = s;
      }
    });
    double sum = 0.0;
    for (double p : partial) sum += p;
    return sum;
  };
  const double s1 = run(1);
  const double s4 = run(4);
  const double s8 = run(8);
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(s1, s8);
}

TEST_F(ThreadPoolTest, RngStreamDependsOnlyOnArguments) {
  Rng a = Rng::stream(7, 3);
  Rng b = Rng::stream(7, 3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // Different indices and seeds give different streams.
  Rng c = Rng::stream(7, 4);
  Rng d = Rng::stream(8, 3);
  Rng e = Rng::stream(7, 3);
  EXPECT_NE(e.next_u64(), c.next_u64());
  EXPECT_NE(Rng::stream(7, 3).next_u64(), d.next_u64());
}

}  // namespace
}  // namespace repro::util
