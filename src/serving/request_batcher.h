// RequestBatcher: admission control + per-shard coalescing in front of
// ShardedSvtServer, drained on the global ThreadPool via the nested-safe
// ParallelFor.
//
// Submit() is the admission point: it enforces the bounded pending queue
// (shed policy kReject fails fast with kOverloaded, kBlock applies
// backpressure with a timeout), rejects already-expired deadlines, and
// never executes anything itself — so a request handler thread is never
// stalled by a slow shard. Drain() takes everything pending, groups it per
// shard preserving the global submission order, and executes one
// ParallelFor slice per shard with work, each running its requests in order
// through RunAppend straight into the callers' own response vectors (no
// shard-side buffer, no copy-out). Because each shard's work is totally
// ordered by submission sequence, a fixed (seed, num_shards, per-shard
// accepted-request order) reproduces every response bitwise, whatever the
// thread count or schedule — and admission decisions (sheds, deadline
// misses, injected faults) only change *which* requests execute, never
// the noise stream of the ones that do.
//
// Drain() never blocks on pool scheduling or on another drain, so it is
// safe to call from inside a pool task: contended callers return
// immediately and the in-flight drain (or a later one) picks their
// requests up.
//
// Shutdown is defined, not UB: the destructor first marks the batcher shut
// down (a Submit() that races the final flush is rejected with a
// FailedPrecondition status instead of corrupting the queue), then
// blockingly flushes everything admitted before the mark.

#ifndef SPARSEVEC_SERVING_REQUEST_BATCHER_H_
#define SPARSEVEC_SERVING_REQUEST_BATCHER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/response.h"
#include "serving/admission.h"
#include "serving/sharded_server.h"

namespace svt {

class RequestBatcher {
 public:
  struct Options {
    /// Submit() triggers a drain on the submitting thread once this many
    /// requests are pending; 0 disables auto-drain (drain only when
    /// Drain() is called).
    size_t auto_drain_pending = 0;
    /// Admission cap on the pending queue; 0 = unbounded (no shedding).
    /// A production front end should always set this: an unbounded queue
    /// turns overload into unbounded memory growth and latency.
    size_t max_pending = 0;
    /// What Submit() does when the queue is at max_pending.
    ShedPolicy shed_policy = ShedPolicy::kReject;
    /// kBlock only: how long a submitter waits for queue space before
    /// giving up with kOverloaded. Must be > 0 under kBlock.
    int64_t block_timeout_nanos = 10'000'000;  // 10 ms

    Status Validate() const;
  };

  /// Batcher-level admission telemetry (per-shard counters live in
  /// ServingStats). Every submission attempt lands in exactly one of
  /// submitted / shed_overload / shed_deadline / shed_shutdown.
  struct BatcherStats {
    int64_t submitted = 0;      ///< admitted into the queue
    int64_t shed_overload = 0;  ///< queue full, block timeout, or injected
    int64_t shed_deadline = 0;  ///< deadline already expired at submit
    int64_t shed_shutdown = 0;  ///< rejected by the shutdown mark
    int64_t block_timeouts = 0; ///< kBlock waits that gave up (subset of
                                ///< shed_overload)
    int64_t retries = 0;        ///< SubmitWithRetry re-attempts
    int64_t drains = 0;         ///< batches executed by Drain()/the dtor
    size_t queue_high_water = 0;
  };

  /// `server` must outlive the batcher. Options are checked fatally
  /// (SVT_CHECK_OK); Validate() first when they come from configuration.
  explicit RequestBatcher(ShardedSvtServer* server);
  RequestBatcher(ShardedSvtServer* server, Options options);

  /// Marks the batcher shut down (racing Submits are rejected, blocked
  /// kBlock submitters wake and reject), then drains anything still
  /// pending. The final flush is blocking: it acquires the drain and
  /// shard locks outright (no try-lock spinning), so it waits out slow
  /// shards instead of burning a core.
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Enqueues one batch for the shard that owns `key`. `answers`, *out
  /// (and *outcome when given) must stay valid until the drain that
  /// executes the request returns; *out is clear()ed and filled with the
  /// responses at that point. Thread-safe.
  ///
  /// Returns the request's global submission sequence number, or:
  ///   * kOverloaded        — shed (queue full under kReject, kBlock wait
  ///                          timed out, or injected queue-full burst);
  ///                          retry with backoff (see SubmitWithRetry);
  ///   * kDeadlineExceeded  — submit.deadline_nanos already expired;
  ///   * kFailedPrecondition— the batcher is shutting down.
  /// On error the request was NOT admitted and *out is untouched.
  ///
  /// *outcome (when non-null) is set to kPending on admission and later,
  /// by the drain that consumed the request, to its terminal value: kOk,
  /// kDeadlineExceeded (expired while queued; *out left empty),
  /// kBudgetExhausted (metered shard budget could not fund every query;
  /// *out holds the funded prefix), or kShardFailed (injected failure;
  /// *out left empty).
  Result<uint64_t> Submit(uint64_t key, std::span<const double> answers,
                          double threshold, std::vector<Response>* out,
                          const SubmitOptions& submit = SubmitOptions(),
                          RequestOutcome* outcome = nullptr);

  /// Submit with caller-side retry-with-backoff on kOverloaded: sleeps
  /// backoff->NextDelayNanos() on the server clock, drains once (the
  /// in-process way queue space frees), and re-submits, up to
  /// max_attempts total attempts. Retries are counted in BatcherStats and
  /// per shard in ServingStats. With a VirtualClock and a seeded backoff
  /// the whole retry schedule is reproducible.
  Result<uint64_t> SubmitWithRetry(uint64_t key,
                                   std::span<const double> answers,
                                   double threshold,
                                   std::vector<Response>* out,
                                   const SubmitOptions& submit,
                                   RequestOutcome* outcome, int max_attempts,
                                   JitteredBackoff* backoff);

  /// Marks the batcher shut down: every later (or racing) Submit() is
  /// rejected with kFailedPrecondition, and blocked kBlock submitters
  /// wake and reject. Idempotent; the destructor calls it before the
  /// final flush. Already-admitted requests stay pending and are still
  /// executed by the next Drain() (or the destructor).
  void Shutdown();

  /// Executes pending requests until none remain; returns the number
  /// executed by THIS call. If another thread is draining, returns
  /// immediately (that drain re-checks for newly pending requests before
  /// it returns, so every request submitted before a failed drain-lock
  /// attempt is still executed) — never blocks on the drain lock or pool
  /// scheduling, so calling it from a pool task cannot deadlock.
  size_t Drain();

  /// Requests submitted but not yet taken by a drain.
  size_t pending() const;

  BatcherStats stats() const;

  const ShardedSvtServer& server() const { return *server_; }

 private:
  struct Request {
    int shard = 0;
    ShardedSvtServer::BatchItem item;
  };

  /// Executes one swapped-out batch of requests; called with drain_mu_ held.
  void ExecuteBatch(std::vector<Request>* batch);

  ShardedSvtServer* server_;
  Options options_;
  Clock* clock_;  ///< the server's clock (one time domain per server)

  mutable std::mutex mu_;  ///< guards pending_, counters, shutdown_
  /// Signaled when a drain frees queue space or shutdown begins; kBlock
  /// submitters wait here (with a 1ms poll so VirtualClock advances are
  /// observed without a real-time notification).
  std::condition_variable space_cv_;
  std::vector<Request> pending_;
  uint64_t next_sequence_ = 0;
  /// Counts every submission attempt (admitted or shed) — the
  /// deterministic coordinate injected submit faults are drawn at.
  uint64_t submit_attempts_ = 0;
  bool shutdown_ = false;
  BatcherStats stats_;

  /// try_lock-only: at most one drain in flight. On its own cache line so
  /// Submit()'s mu_ traffic and the drain try_lock spin never contend on
  /// one line (asserted at construction in debug builds).
  alignas(64) std::mutex drain_mu_;
};

}  // namespace svt

#endif  // SPARSEVEC_SERVING_REQUEST_BATCHER_H_
