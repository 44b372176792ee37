#include "common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace svt {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool must run every queued task before joining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int slices : {1, 2, 3, 4, 7, 16}) {
    for (int64_t n : {0, 1, 5, 16, 100, 1001}) {
      std::vector<std::atomic<int>> touched(static_cast<size_t>(n));
      for (auto& t : touched) t.store(0);
      ParallelFor(n, slices, [&](int64_t begin, int64_t end, int slice) {
        EXPECT_GE(slice, 0);
        EXPECT_LT(slice, slices);
        for (int64_t i = begin; i < end; ++i) touched[i].fetch_add(1);
      });
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(touched[i].load(), 1) << "n=" << n << " slices=" << slices
                                        << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, SliceBoundariesAreDeterministic) {
  // The static split is part of the determinism contract: slice s covers
  // [s*n/W, (s+1)*n/W). Any change here silently reshuffles trials across
  // worker streams in the Monte-Carlo auditor.
  std::vector<std::pair<int64_t, int64_t>> bounds(4);
  ParallelFor(10, 4, [&](int64_t begin, int64_t end, int slice) {
    bounds[slice] = {begin, end};
  });
  EXPECT_EQ(bounds[0], (std::pair<int64_t, int64_t>{0, 2}));
  EXPECT_EQ(bounds[1], (std::pair<int64_t, int64_t>{2, 5}));
  EXPECT_EQ(bounds[2], (std::pair<int64_t, int64_t>{5, 7}));
  EXPECT_EQ(bounds[3], (std::pair<int64_t, int64_t>{7, 10}));
}

TEST(ParallelForTest, MoreSlicesThanWorkAndThanThreads) {
  // 16 slices of 5 elements: most slices are empty but every slice index
  // must still be invoked (per-slice RNG streams key off the index), and
  // slices beyond the pool size must still run.
  std::vector<std::atomic<int>> invoked(16);
  for (auto& v : invoked) v.store(0);
  std::atomic<int64_t> sum{0};
  ParallelFor(5, 16, [&](int64_t begin, int64_t end, int slice) {
    invoked[slice].fetch_add(1);
    sum.fetch_add(end - begin);
  });
  EXPECT_EQ(sum.load(), 5);
  for (int s = 0; s < 16; ++s) ASSERT_EQ(invoked[s].load(), 1) << s;
}

TEST(ParallelForTest, PerSliceRngStreamsAreScheduleIndependent) {
  // The canonical usage pattern: fork one stream per slice up front, index
  // by slice. Two runs must agree bit for bit whatever the interleaving.
  const auto run_once = [] {
    Rng master(77);
    std::vector<Rng> streams;
    for (int s = 0; s < 4; ++s) streams.push_back(master.Fork());
    std::vector<uint64_t> result(4);
    ParallelFor(4000, 4, [&](int64_t begin, int64_t end, int slice) {
      uint64_t acc = 0;
      for (int64_t i = begin; i < end; ++i) acc ^= streams[slice].NextUint64();
      result[slice] = acc;
    });
    return result;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilQueueDrains) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 200);
  pool.WaitIdle();  // idempotent on an idle pool
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesWorkers) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(1);
  std::atomic<int> inside{-1};
  pool.Submit([&] { inside.store(ThreadPool::OnWorkerThread() ? 1 : 0); });
  pool.WaitIdle();
  EXPECT_EQ(inside.load(), 1);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(ParallelForTest, NestedUnderFullySubscribedPoolDoesNotDeadlock) {
  // Every global-pool worker runs a task that itself calls ParallelFor —
  // the request-handler-on-the-pool shape. Before the inline fallback this
  // deadlocked as soon as the pool saturated: the outer tasks held every
  // worker while waiting for slices only those workers could run.
  const int tasks = 2 * ThreadPool::HardwareThreads() + 1;
  std::atomic<int> done{0};
  std::atomic<int64_t> total{0};
  for (int t = 0; t < tasks; ++t) {
    ThreadPool::Global().Submit([&] {
      std::atomic<int64_t> sum{0};
      ParallelFor(1000, 8, [&](int64_t begin, int64_t end, int) {
        for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
      });
      total.fetch_add(sum.load());
      done.fetch_add(1);
    });
  }
  while (done.load() < tasks) std::this_thread::yield();
  EXPECT_EQ(total.load(), static_cast<int64_t>(tasks) * (1000 * 999 / 2));
}

TEST(ParallelForTest, NestedMatchesTopLevelBitwise) {
  // The inline fallback must keep the slice boundaries and indices of the
  // scheduled path so per-slice RNG streams produce identical results.
  const auto run = [](bool nested) {
    Rng master(123);
    std::vector<Rng> streams;
    for (int s = 0; s < 5; ++s) streams.push_back(master.Fork());
    std::vector<uint64_t> result(5);
    const auto work = [&] {
      ParallelFor(997, 5, [&](int64_t begin, int64_t end, int slice) {
        uint64_t acc = 0;
        for (int64_t i = begin; i < end; ++i) {
          acc ^= streams[slice].NextUint64() + static_cast<uint64_t>(i);
        }
        result[slice] = acc;
      });
    };
    if (nested) {
      std::atomic<bool> finished{false};
      ThreadPool::Global().Submit([&] {
        work();
        finished.store(true);
      });
      while (!finished.load()) std::this_thread::yield();
    } else {
      work();
    }
    return result;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ParallelForTest, ReentrantSequentialCalls) {
  // Back-to-back ParallelFor calls must not interfere through the global
  // pool's queue.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    ParallelFor(100, 3, [&](int64_t begin, int64_t end, int) {
      for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
    });
    ASSERT_EQ(sum.load(), 100 * 99 / 2);
  }
}


TEST(ParallelForTest, EverySliceCountsAsInsideTheRegion) {
  // Slice 0 runs on the calling thread, and one slice (or n == 0) runs
  // inline; the caller is inside the region on every path, so code that
  // would fan out onto the pool from a slice stays inline.
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  for (int slices : {1, 2, 4, 7}) {
    for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{9}}) {
      std::vector<std::atomic<int>> inside(static_cast<size_t>(slices));
      for (auto& v : inside) v.store(-1);
      ParallelFor(n, slices, [&](int64_t, int64_t, int slice) {
        inside[static_cast<size_t>(slice)].store(
            ThreadPool::InParallelRegion() ? 1 : 0);
      });
      for (int s = 0; s < slices; ++s) {
        EXPECT_EQ(inside[static_cast<size_t>(s)].load(), 1)
            << "slices=" << slices << " n=" << n << " slice=" << s;
      }
      EXPECT_FALSE(ThreadPool::InParallelRegion());
    }
  }
}

TEST(ParallelForTest, NestedCallFromSliceZeroRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> inner(4);
  std::thread::id outer;
  ParallelFor(4, 4, [&](int64_t, int64_t, int slice) {
    if (slice != 0) return;
    outer = std::this_thread::get_id();
    ParallelFor(4, 4, [&](int64_t, int64_t, int s) {
      inner[static_cast<size_t>(s)] = std::this_thread::get_id();
    });
  });
  EXPECT_EQ(outer, caller);
  for (const std::thread::id& id : inner) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, HardwareThreadsCountsUsableCpus) {
  const int usable = ThreadPool::HardwareThreads();
  EXPECT_GE(usable, 1);
  const unsigned online = std::thread::hardware_concurrency();
  if (online > 0) {
    EXPECT_LE(usable, static_cast<int>(online));
  }
}
}  // namespace
}  // namespace svt
