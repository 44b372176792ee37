// Minimal worker pool and a deterministic ParallelFor.
//
// The audit layer's Monte-Carlo estimator and the sharded serving layer
// need data parallelism without pulling in a dependency. The design goal is
// *schedule-independent determinism*: ParallelFor splits an index range into
// contiguous slices whose boundaries depend only on (n, num_slices), so any
// per-slice state — in particular one forked Rng per slice — produces
// results that are bitwise-independent of which OS thread runs which slice
// and of how the slices interleave in time.

#ifndef SPARSEVEC_COMMON_THREAD_POOL_H_
#define SPARSEVEC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace svt {

/// Fixed-size pool of worker threads consuming a FIFO task queue. Tasks
/// must not throw (the library does not use exceptions).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing. Must not be
  /// called from a pool worker (checked) — a worker waiting for itself to
  /// go idle would never return. New Submits racing with WaitIdle may or
  /// may not be waited for; quiesce submitters first for a strict drain.
  void WaitIdle();

  /// True when the calling thread is a worker of *any* ThreadPool. WaitIdle
  /// uses this to refuse waiting for itself.
  static bool OnWorkerThread();

  /// True on a pool worker, and on any thread while it is inside a
  /// ParallelFor call — every slice counts: slice 0 on the calling thread
  /// and the single-slice and inline paths too. Work that could fan out
  /// onto the pool from here (a nested ParallelFor, the batch engine's
  /// noise stage) runs inline instead: the other slices already hold the
  /// pool, and on a saturated pool a nested wait could deadlock.
  static bool InParallelRegion();

  /// Process-wide pool sized to HardwareThreads(), created on first use.
  /// ParallelFor schedules on this pool.
  static ThreadPool& Global();

  /// CPUs this process may run on (its sched_getaffinity mask, so a pinned
  /// or cpuset-limited process starts no more workers than it has cores),
  /// falling back to std::thread::hardware_concurrency(); at least 1.
  static int HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  int active_ = 0;  ///< tasks currently executing
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(begin, end, slice) for `num_slices` contiguous slices of
/// [0, n): slice s covers [s*n/num_slices, (s+1)*n/num_slices). Slice 0 runs
/// on the calling thread; the rest run on ThreadPool::Global(). Blocks until
/// every slice has finished. num_slices <= 0 means one slice per hardware
/// thread; empty slices (num_slices > n) are still invoked with begin == end
/// so per-slice state stays aligned with the slice index.
///
/// Correct (and deterministic) even when the pool has fewer threads than
/// slices — excess slices just queue. Safe to call from inside a pool task
/// or another ParallelFor's slice: nested calls (InParallelRegion()) run
/// every slice inline on the caller, with identical slice boundaries and
/// indices, so per-slice RNG streams and results are bitwise-unchanged
/// (only the parallelism is given up; scheduling nested slices to a
/// saturated pool would deadlock). The calling thread counts as inside
/// the region for the whole call, whichever path runs the slices.
void ParallelFor(int64_t n, int num_slices,
                 const std::function<void(int64_t begin, int64_t end,
                                          int slice)>& body);

}  // namespace svt

#endif  // SPARSEVEC_COMMON_THREAD_POOL_H_
