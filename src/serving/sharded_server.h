// Sharded SVT serving: N independent shards, each backed by the paper's
// standard SVT (or a budget-metered AboveThresholdSession) with its own
// Rng::Fork()-derived stream, executing query batches through the
// vectorized batch engine (core/batch_runner.h).
//
// This is the ROADMAP's interactive-at-scale target: the paper's §1 setting
// — streams of threshold queries answered online, budget paid only for
// positives — served across shards so heavy traffic parallelizes while
// every shard stays a single deterministic SVT stream.
//
// Determinism contract: Create() forks one stream per shard from `seed` in
// shard-index order, and ShardOf() routes a key by a stateless SplitMix64
// hash. A shard's response stream is therefore a pure function of (seed,
// num_shards, the order of batches executed on that shard) — bitwise
// reproducible across runs, thread counts, and schedules. Concurrent
// callers hitting one shard serialize on its mutex in arrival order; fixing
// the per-shard submission order (as RequestBatcher's drain does) fixes
// every response bitwise.
//
// Faults never perturb noise streams: admission control, deadlines, and
// every injected fault (stall, shard failure, queue-full burst, clock
// skew) change only *which* requests are accepted and executed — a
// skipped or failed request consumes nothing from its shard's stream, so
// the responses of the accepted requests are bitwise identical to a
// fault-free run restricted to the same accepted set, at every dispatch
// level (enforced by tests/serving_fault_matrix_test.cc).

#ifndef SPARSEVEC_SERVING_SHARDED_SERVER_H_
#define SPARSEVEC_SERVING_SHARDED_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/response.h"
#include "core/svt.h"
#include "interactive/session.h"
#include "serving/admission.h"

namespace svt {

class FaultInjector;

/// What backs each shard.
enum class ShardMode {
  /// One SparseVector per shard; when a run exhausts its cutoff the shard
  /// Reset()s into a fresh run automatically, so execution never stops.
  /// No budget metering: each run is ε-DP and lifetime composition across
  /// runs is the operator's concern (throughput serving, simulation).
  kAutoReset,
  /// One AboveThresholdSession per shard: a lifetime budget, rounds funded
  /// through the shared PrivacyAccountant, execution stops at exhaustion.
  kBudgetMetered,
};

/// Configuration of a ShardedSvtServer.
struct ServingOptions {
  /// Number of independent shards (>= 1, <= kMaxShards).
  int num_shards = 1;
  /// Upper bound on num_shards: each shard owns a mutex, an RNG and a
  /// mechanism, so an absurd count is a configuration bug, not a scaling
  /// request.
  static constexpr int kMaxShards = 1 << 20;
  /// Seed of the master stream the per-shard streams are forked from.
  uint64_t seed = 0;
  ShardMode mode = ShardMode::kAutoReset;
  /// Per-shard mechanism template (kAutoReset).
  SvtOptions svt;
  /// Per-shard session template (kBudgetMetered).
  SessionOptions session;
  /// Time source for deadlines, injected stalls and latency stats;
  /// nullptr = RealClock(). Must outlive the server. Tests inject a
  /// VirtualClock so overload scenarios are deterministic.
  Clock* clock = nullptr;
  /// Fault-injection hook; nullptr (the default) disables injection and
  /// costs one never-taken branch per site. Must outlive the server.
  FaultInjector* fault_injector = nullptr;

  Status Validate() const;
};

/// Per-shard (and aggregate) serving counters. The robustness counters
/// exist so overload shows up in telemetry instead of silent truncation:
/// shed + deadline_misses + budget_exhausted + shard_failures account for
/// every request that did not complete normally.
struct ServingStats {
  int64_t batches = 0;
  int64_t queries = 0;
  int64_t positives = 0;
  /// Batcher requests routed to this shard but shed at admission
  /// (queue full, block timeout, injected queue-full burst).
  int64_t shed = 0;
  /// Requests whose deadline expired before execution (at submit or while
  /// queued); never executed.
  int64_t deadline_misses = 0;
  /// SubmitWithRetry re-attempts routed to this shard.
  int64_t retries = 0;
  /// kBudgetMetered requests answered partially (or not at all) because
  /// the shard's lifetime budget ran out.
  int64_t budget_exhausted = 0;
  /// Injected shard-execution failures (kShardFailed outcomes).
  int64_t shard_failures = 0;
  /// Injected stall time observed by this shard, in nanoseconds.
  int64_t stall_nanos = 0;
  /// Execution time under the shard lock (per the injected clock):
  /// total across requests, and the slowest single request.
  int64_t exec_nanos = 0;
  int64_t exec_nanos_max = 0;
  /// Per-request execution-time distribution (same clock samples as
  /// exec_nanos), log2-bucketed so tail latency is visible in telemetry
  /// instead of only the mean and max. Deterministic under a VirtualClock.
  LatencyHistogram exec_hist;

  /// Conservative (upper-edge) percentile views of exec_hist.
  int64_t exec_p50_nanos() const { return exec_hist.PercentileUpperNanos(0.50); }
  int64_t exec_p99_nanos() const { return exec_hist.PercentileUpperNanos(0.99); }
};

class RequestBatcher;

class ShardedSvtServer {
 public:
  /// One enqueued batch: `answers` against a common `threshold`, responses
  /// delivered into *out (clear()ed and filled on execution). The
  /// admission fields are filled by RequestBatcher::Submit; direct
  /// Execute* calls bypass them.
  struct BatchItem {
    std::span<const double> answers;
    double threshold = 0.0;
    std::vector<Response>* out = nullptr;
    /// Absolute deadline in the server clock's domain; 0 = none. Checked
    /// immediately before execution: an expired request is skipped (its
    /// shard's stream untouched) and reported kDeadlineExceeded.
    int64_t deadline_nanos = 0;
    /// Global submission sequence (drives deterministic fault decisions).
    uint64_t sequence = 0;
    /// Terminal outcome slot; may be nullptr when the caller doesn't care.
    RequestOutcome* outcome = nullptr;
  };

  static Result<std::unique_ptr<ShardedSvtServer>> Create(
      const ServingOptions& options);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ServingOptions& options() const { return options_; }
  Clock* clock() const { return clock_; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Deterministic stateless routing: SplitMix64(key) mod num_shards.
  int ShardOf(uint64_t key) const;

  /// Executes one batch on the shard that owns `key`, appending one
  /// Response per processed query to *out; returns the number appended.
  /// Thread-safe: distinct shards execute in parallel, calls into one
  /// shard serialize. In kBudgetMetered mode stops early once the shard's
  /// budget cannot fund the next round (see ShardExhausted); in kAutoReset
  /// mode always processes every query. When `outcome` is non-null it
  /// receives the structured result (kOk, kBudgetExhausted on a partial
  /// or empty metered append, kShardFailed on an injected failure).
  size_t Execute(uint64_t key, std::span<const double> answers,
                 double threshold, std::vector<Response>* out,
                 RequestOutcome* outcome = nullptr);

  /// Same, addressing the shard by index (checked).
  size_t ExecuteOnShard(int shard, std::span<const double> answers,
                        double threshold, std::vector<Response>* out,
                        RequestOutcome* outcome = nullptr);

  /// kBudgetMetered: true once the shard's session can answer no further
  /// queries. Always false in kAutoReset mode.
  bool ShardExhausted(int shard) const;

  ServingStats StatsForShard(int shard) const;
  ServingStats TotalStats() const;

 private:
  friend class RequestBatcher;

  /// Cache-line-aligned (and padded to whole lines by the alignas): a
  /// shard's mutex, RNG state and stats never share a line with another
  /// shard's, so concurrent per-shard locking and stats updates don't
  /// false-share across shards. Responses live in the callers' own
  /// vectors, outside the shard. Alignment is asserted at Create() in
  /// debug builds.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    int index = 0;
    Rng rng{0};  ///< forked per-shard stream; mechanisms point into it
    std::unique_ptr<SparseVector> mech;              // kAutoReset
    std::unique_ptr<AboveThresholdSession> session;  // kBudgetMetered
    /// Guarded by mu (like stats): counts every execution attempt on this
    /// shard, the deterministic coordinate fault decisions are drawn at.
    uint64_t fault_attempts = 0;
    ServingStats stats;
    /// Admission-side counters, written without the shard lock (a shed
    /// must not wait out a long-running batch); folded into snapshots.
    std::atomic<int64_t> shed{0};
    std::atomic<int64_t> deadline_misses{0};
    std::atomic<int64_t> retries{0};
  };

  explicit ShardedSvtServer(const ServingOptions& options)
      : options_(options) {}

  Shard& CheckedShard(int shard) const;

  /// Executes one batch with shard.mu held, appending to *out; returns
  /// responses appended and writes the structured outcome (never kPending)
  /// to *outcome. Adds the positives to the shard's stats from the
  /// mechanism's (or session's) positives_emitted() before and after each
  /// RunAppend, never by rescanning *out.
  size_t ExecuteLocked(Shard& shard, std::span<const double> answers,
                       double threshold, std::vector<Response>* out,
                       RequestOutcome* outcome);

  /// Batcher entry point: runs `items` in order, each clear()ing its *out
  /// and executing straight into it (an expired-deadline item is left
  /// empty and never executed), and sets each item's outcome.
  void ExecuteBatchedOnShard(int shard, std::span<BatchItem* const> items);

  /// Drain-time deadline check: the injected clock, plus any injected
  /// skew for this item's submission sequence.
  bool ExpiredAtDrain(const BatchItem& item);

  /// Admission-side counter hooks for RequestBatcher (shard already
  /// resolved by ShardOf at submit time).
  void RecordShed(int shard) { CheckedShard(shard).shed.fetch_add(1); }
  void RecordDeadlineMiss(int shard) {
    CheckedShard(shard).deadline_misses.fetch_add(1);
  }
  void RecordRetry(int shard) { CheckedShard(shard).retries.fetch_add(1); }

  ServingOptions options_;
  Clock* clock_ = nullptr;
  FaultInjector* injector_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace svt

#endif  // SPARSEVEC_SERVING_SHARDED_SERVER_H_
