#include "serving/sharded_server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "serving/fault_injection.h"

namespace svt {

Status ServingOptions::Validate() const {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(num_shards));
  }
  if (num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "num_shards must be <= " + std::to_string(kMaxShards) + ", got " +
        std::to_string(num_shards));
  }
  switch (mode) {
    case ShardMode::kAutoReset:
      return svt.Validate();
    case ShardMode::kBudgetMetered:
      return session.Validate();
  }
  return Status::InvalidArgument("unknown ShardMode");
}

Result<std::unique_ptr<ShardedSvtServer>> ShardedSvtServer::Create(
    const ServingOptions& options) {
  SVT_RETURN_NOT_OK(options.Validate());
  std::unique_ptr<ShardedSvtServer> server(new ShardedSvtServer(options));
  server->clock_ = options.clock != nullptr ? options.clock : RealClock();
  server->injector_ = options.fault_injector;
  // Fork the per-shard streams in index order on this thread: the streams
  // are then a function of (seed, num_shards) alone.
  Rng master(options.seed);
  server->shards_.reserve(options.num_shards);
  for (int i = 0; i < options.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    // alignas(64) on Shard routes through aligned operator new; assert the
    // no-false-sharing guarantee actually held.
    SVT_DCHECK(reinterpret_cast<uintptr_t>(shard.get()) % alignof(Shard) ==
               0);
    shard->index = i;
    shard->rng = master.Fork();
    if (options.mode == ShardMode::kAutoReset) {
      SVT_ASSIGN_OR_RETURN(shard->mech,
                           SparseVector::Create(options.svt, &shard->rng));
    } else {
      SVT_ASSIGN_OR_RETURN(
          shard->session,
          AboveThresholdSession::Create(options.session, &shard->rng));
    }
    server->shards_.push_back(std::move(shard));
  }
  return server;
}

int ShardedSvtServer::ShardOf(uint64_t key) const {
  // One SplitMix64 step decorrelates adjacent keys; the routing is
  // stateless, so it can never perturb any shard's noise stream.
  uint64_t state = key;
  return static_cast<int>(SplitMix64Next(state) %
                          static_cast<uint64_t>(shards_.size()));
}

ShardedSvtServer::Shard& ShardedSvtServer::CheckedShard(int shard) const {
  SVT_CHECK(shard >= 0 && shard < num_shards())
      << "shard index " << shard << " out of range [0, " << num_shards()
      << ")";
  return *shards_[static_cast<size_t>(shard)];
}

size_t ShardedSvtServer::Execute(uint64_t key, std::span<const double> answers,
                                 double threshold, std::vector<Response>* out,
                                 RequestOutcome* outcome) {
  return ExecuteOnShard(ShardOf(key), answers, threshold, out, outcome);
}

size_t ShardedSvtServer::ExecuteOnShard(int shard,
                                        std::span<const double> answers,
                                        double threshold,
                                        std::vector<Response>* out,
                                        RequestOutcome* outcome) {
  Shard& s = CheckedShard(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  RequestOutcome result = RequestOutcome::kOk;
  const size_t appended = ExecuteLocked(s, answers, threshold, out, &result);
  if (outcome != nullptr) *outcome = result;
  return appended;
}

size_t ShardedSvtServer::ExecuteLocked(Shard& shard,
                                       std::span<const double> answers,
                                       double threshold,
                                       std::vector<Response>* out,
                                       RequestOutcome* outcome) {
  // Fault decisions are drawn at (shard, attempt) — the attempt counter
  // advances even when the attempt then fails, so the decision coordinates
  // are a pure function of the shard's accepted-request order.
  const uint64_t attempt = shard.fault_attempts++;
  if (injector_ != nullptr) [[unlikely]] {
    const FaultInjector::ShardFault fault =
        injector_->OnShardAttempt(shard.index, attempt);
    if (fault.stall_nanos > 0) {
      // A VirtualClock turns this into a deterministic time jump.
      clock_->SleepFor(fault.stall_nanos);
      shard.stats.stall_nanos += fault.stall_nanos;
      injector_->CountStall();
    }
    if (fault.fail) {
      // Skip-and-fail THIS request only: nothing was drawn from the
      // shard's stream, so later requests see the stream exactly where a
      // fault-free run (without this request) would have left it.
      shard.stats.shard_failures += 1;
      injector_->CountFailure();
      *outcome = RequestOutcome::kShardFailed;
      return 0;
    }
  }
  const int64_t exec_start = clock_->NowNanos();
  const size_t start = out->size();
  // Positives are counted from the mechanisms' own counters, not by
  // rescanning the appended responses.
  int64_t positives = 0;
  if (options_.mode == ShardMode::kAutoReset) {
    size_t consumed = 0;
    while (consumed < answers.size()) {
      if (shard.mech->exhausted()) shard.mech->Reset();
      const int before = shard.mech->positives_emitted();
      consumed +=
          shard.mech->RunAppend(answers.subspan(consumed), threshold, out);
      positives += shard.mech->positives_emitted() - before;
    }
  } else {
    const int64_t before = shard.session->positives_emitted();
    shard.session->RunAppend(answers, threshold, out);
    positives = shard.session->positives_emitted() - before;
  }
  const size_t appended = out->size() - start;
  *outcome = RequestOutcome::kOk;
  if (options_.mode == ShardMode::kBudgetMetered &&
      appended < answers.size()) {
    // Structured degradation instead of silent truncation: the caller can
    // tell "answered" from "budget ran out mid-request" without comparing
    // sizes.
    *outcome = RequestOutcome::kBudgetExhausted;
    shard.stats.budget_exhausted += 1;
  }
  shard.stats.batches += 1;
  shard.stats.queries += static_cast<int64_t>(appended);
  shard.stats.positives += positives;
  const int64_t exec_nanos = clock_->NowNanos() - exec_start;
  shard.stats.exec_nanos += exec_nanos;
  shard.stats.exec_nanos_max =
      std::max(shard.stats.exec_nanos_max, exec_nanos);
  shard.stats.exec_hist.Add(exec_nanos);
  return appended;
}

void ShardedSvtServer::ExecuteBatchedOnShard(int shard,
                                             std::span<BatchItem* const> items) {
  Shard& s = CheckedShard(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  for (BatchItem* item : items) {
    // Each request's responses go straight into its own vector.
    item->out->clear();
    RequestOutcome outcome = RequestOutcome::kOk;
    if (item->deadline_nanos > 0 && ExpiredAtDrain(*item)) {
      // Never execute an expired request: its shard stream stays
      // untouched, so the accepted set changes but no noise moves.
      s.deadline_misses.fetch_add(1, std::memory_order_relaxed);
      outcome = RequestOutcome::kDeadlineExceeded;
    } else {
      ExecuteLocked(s, item->answers, item->threshold, item->out, &outcome);
    }
    if (item->outcome != nullptr) *item->outcome = outcome;
  }
}

bool ShardedSvtServer::ExpiredAtDrain(const BatchItem& item) {
  int64_t now = clock_->NowNanos();
  if (injector_ != nullptr) [[unlikely]] {
    const int64_t skew = injector_->SkewNanos(item.sequence);
    if (skew > 0) {
      now += skew;
      injector_->CountSkew();
    }
  }
  return now >= item.deadline_nanos;
}

bool ShardedSvtServer::ShardExhausted(int shard) const {
  Shard& s = CheckedShard(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.session != nullptr && s.session->exhausted();
}

ServingStats ShardedSvtServer::StatsForShard(int shard) const {
  Shard& s = CheckedShard(shard);
  ServingStats snapshot;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    snapshot = s.stats;
  }
  // The admission-side counters live outside the shard lock (a shed or a
  // submit-time deadline miss must not wait out a long-running batch); the
  // lock-guarded stats never touch these three fields.
  snapshot.shed = s.shed.load(std::memory_order_relaxed);
  snapshot.deadline_misses +=
      s.deadline_misses.load(std::memory_order_relaxed);
  snapshot.retries = s.retries.load(std::memory_order_relaxed);
  return snapshot;
}

ServingStats ShardedSvtServer::TotalStats() const {
  ServingStats total;
  for (int i = 0; i < num_shards(); ++i) {
    const ServingStats s = StatsForShard(i);
    total.batches += s.batches;
    total.queries += s.queries;
    total.positives += s.positives;
    total.shed += s.shed;
    total.deadline_misses += s.deadline_misses;
    total.retries += s.retries;
    total.budget_exhausted += s.budget_exhausted;
    total.shard_failures += s.shard_failures;
    total.stall_nanos += s.stall_nanos;
    total.exec_nanos += s.exec_nanos;
    total.exec_nanos_max = std::max(total.exec_nanos_max, s.exec_nanos_max);
    total.exec_hist.Merge(s.exec_hist);
  }
  return total;
}

}  // namespace svt
