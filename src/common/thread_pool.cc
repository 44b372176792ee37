#include "common/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace svt {

namespace {
// Set for the lifetime of every pool worker thread. WaitIdle consults it,
// and ParallelFor through InParallelRegion(): blocking on pool progress
// from a pool worker can deadlock once the pool is saturated with blocked
// tasks.
thread_local bool tls_on_pool_worker = false;
// ParallelFor calls the thread is inside of (slice 0 and the inline paths
// run on the calling thread).
thread_local int tls_parallel_for_depth = 0;

class ParallelForScope {
 public:
  ParallelForScope() { ++tls_parallel_for_depth; }
  ~ParallelForScope() { --tls_parallel_for_depth; }
  ParallelForScope(const ParallelForScope&) = delete;
  ParallelForScope& operator=(const ParallelForScope&) = delete;
};
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    SVT_CHECK(!stop_) << "Submit() on a stopped ThreadPool";
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  SVT_CHECK(!OnWorkerThread())
      << "WaitIdle() from a pool worker would wait for itself";
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

bool ThreadPool::OnWorkerThread() { return tls_on_pool_worker; }

bool ThreadPool::InParallelRegion() {
  return tls_on_pool_worker || tls_parallel_for_depth > 0;
}

void ThreadPool::WorkerLoop() {
  tls_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(HardwareThreads());
  return pool;
}

int ThreadPool::HardwareThreads() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    return std::max(1, CPU_COUNT(&cpus));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void ParallelFor(int64_t n, int num_slices,
                 const std::function<void(int64_t begin, int64_t end,
                                          int slice)>& body) {
  SVT_CHECK(n >= 0);
  const int slices =
      num_slices <= 0 ? ThreadPool::HardwareThreads() : num_slices;
  const bool nested = ThreadPool::InParallelRegion();
  const ParallelForScope scope;
  if (slices == 1 || n == 0 || nested) {
    // Degenerate cases — and nested calls from a pool task or another
    // slice, where waiting on pool-scheduled slices could deadlock a
    // saturated pool — run every slice inline. Slice boundaries and
    // indices are identical to the scheduled path, so per-slice RNG
    // streams line up bitwise.
    for (int s = 0; s < slices; ++s) {
      body(s * n / slices, (s + 1) * n / slices, s);
    }
    return;
  }

  struct Barrier {
    std::mutex mu;
    std::condition_variable cv;
    int remaining = 0;
  } barrier;
  barrier.remaining = slices - 1;

  ThreadPool& pool = ThreadPool::Global();
  for (int s = 1; s < slices; ++s) {
    pool.Submit([&body, &barrier, n, slices, s] {
      body(s * n / slices, (s + 1) * n / slices, s);
      // Notify while still holding the mutex: the waiter cannot pass its
      // predicate re-check (and destroy the stack Barrier) until this
      // worker has released the lock, so the condition_variable is
      // guaranteed alive for the notify.
      std::lock_guard<std::mutex> lock(barrier.mu);
      --barrier.remaining;
      barrier.cv.notify_one();
    });
  }
  body(0, n / slices, 0);
  std::unique_lock<std::mutex> lock(barrier.mu);
  barrier.cv.wait(lock, [&barrier] { return barrier.remaining == 0; });
}

}  // namespace svt
