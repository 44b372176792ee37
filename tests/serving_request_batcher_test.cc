// RequestBatcher: coalesced drains must reproduce direct per-shard
// execution bitwise, auto-drain must fire, and submitting + draining from
// inside pool tasks (the request-handler-on-the-pool shape) must complete
// without deadlock — the drain's ParallelFor falls back to inline slices
// on a worker thread.

#include "serving/request_batcher.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "serving/sharded_server.h"

namespace svt {
namespace {

ServingOptions TestOptions(int shards, uint64_t seed) {
  ServingOptions o;
  o.num_shards = shards;
  o.seed = seed;
  o.mode = ShardMode::kAutoReset;
  o.svt.epsilon = 1.0;
  o.svt.cutoff = 2;
  o.svt.monotonic = true;
  o.svt.numeric_output_fraction = 0.2;
  return o;
}

std::vector<double> MakeAnswers(size_t n, uint64_t seed) {
  Rng gen(seed);
  std::vector<double> answers(n);
  for (size_t i = 0; i < n; ++i) answers[i] = gen.NextUniform(-25.0, 25.0);
  return answers;
}

TEST(RequestBatcherTest, DrainedResponsesMatchDirectExecution) {
  const std::vector<double> answers = MakeAnswers(2400, 50);
  const int kRequests = 30;

  // Reference: the same per-shard request order executed directly on an
  // identically-seeded server.
  auto direct = ShardedSvtServer::Create(TestOptions(4, 21)).value();
  std::vector<std::vector<Response>> expect(kRequests);
  for (int r = 0; r < kRequests; ++r) {
    const uint64_t key = static_cast<uint64_t>(r) * 7;
    direct->Execute(key, std::span(answers).subspan((r * 80) % 1600, 300),
                    0.5, &expect[r]);
  }

  auto server = ShardedSvtServer::Create(TestOptions(4, 21)).value();
  RequestBatcher batcher(server.get());
  std::vector<std::vector<Response>> got(kRequests);
  for (int r = 0; r < kRequests; ++r) {
    const uint64_t key = static_cast<uint64_t>(r) * 7;
    batcher.Submit(key, std::span(answers).subspan((r * 80) % 1600, 300),
                   0.5, &got[r]);
  }
  EXPECT_EQ(batcher.pending(), static_cast<size_t>(kRequests));
  EXPECT_EQ(batcher.Drain(), static_cast<size_t>(kRequests));
  EXPECT_EQ(batcher.pending(), 0u);
  for (int r = 0; r < kRequests; ++r) {
    ASSERT_FALSE(got[r].empty()) << "request " << r;
    EXPECT_EQ(got[r], expect[r]) << "request " << r;
  }
}

TEST(RequestBatcherTest, RepeatedDrainsReuseShardBuffers) {
  // Several drain cycles through the same batcher must keep matching the
  // direct execution. The drain writes each request straight into its
  // caller's vector, so nothing of one cycle's requests (on the shard or
  // in a vector) may carry over into the next.
  const std::vector<double> answers = MakeAnswers(500, 51);
  auto direct = ShardedSvtServer::Create(TestOptions(2, 22)).value();
  auto server = ShardedSvtServer::Create(TestOptions(2, 22)).value();
  RequestBatcher batcher(server.get());
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::vector<Response> expect_a, expect_b, got_a, got_b;
    direct->Execute(0, answers, 0.0, &expect_a);
    direct->Execute(1, answers, -1.0, &expect_b);
    batcher.Submit(0, answers, 0.0, &got_a);
    batcher.Submit(1, answers, -1.0, &got_b);
    batcher.Drain();
    ASSERT_EQ(got_a, expect_a) << "cycle " << cycle;
    ASSERT_EQ(got_b, expect_b) << "cycle " << cycle;
  }
}

ServingOptions MeteredOptions(int shards, uint64_t seed) {
  ServingOptions o;
  o.num_shards = shards;
  o.seed = seed;
  o.mode = ShardMode::kBudgetMetered;
  o.session.total_epsilon = 1.0;
  o.session.epsilon_per_round = 0.1;
  o.session.round.cutoff = 2;
  o.session.round.monotonic = true;
  return o;
}

int64_t CountPositives(const std::vector<Response>& out) {
  int64_t positives = 0;
  for (const Response& r : out) positives += r.is_positive() ? 1 : 0;
  return positives;
}

TEST(RequestBatcherTest, PositivesStatMatchesDeliveredPositives) {
  // ServingStats::positives is counted from the mechanisms' own counters,
  // not by rescanning responses. Over two drains it must still equal the
  // positives the callers received: in kAutoReset, where runs exhaust and
  // reset inside one request, and in kBudgetMetered, where the budget cuts
  // one request short and later ones get nothing. Every caller vector
  // starts with stale responses, which the drain must clear, not append
  // to.
  const std::vector<double> answers = MakeAnswers(2000, 56);
  const std::vector<Response> stale(5, Response::Above());
  const int kRequests = 12;
  for (const bool metered : {false, true}) {
    const ServingOptions o =
        metered ? MeteredOptions(3, 28) : TestOptions(3, 28);
    auto direct = ShardedSvtServer::Create(o).value();
    auto server = ShardedSvtServer::Create(o).value();
    RequestBatcher batcher(server.get());
    std::vector<std::vector<Response>> got(kRequests, stale);
    std::vector<RequestOutcome> outcomes(kRequests);
    for (int drain = 0; drain < 2; ++drain) {
      for (int r = drain * kRequests / 2; r < (drain + 1) * kRequests / 2;
           ++r) {
        ASSERT_TRUE(batcher
                        .Submit(static_cast<uint64_t>(r), answers, 0.0,
                                &got[r], SubmitOptions(), &outcomes[r])
                        .ok());
      }
      batcher.Drain();
    }
    int64_t delivered = 0, most_in_one = 0;
    int partial = 0;
    for (int r = 0; r < kRequests; ++r) {
      std::vector<Response> expect;
      direct->Execute(static_cast<uint64_t>(r), answers, 0.0, &expect);
      EXPECT_EQ(got[r], expect) << "request " << r;
      const int64_t positives = CountPositives(got[r]);
      delivered += positives;
      most_in_one = std::max(most_in_one, positives);
      partial += outcomes[r] == RequestOutcome::kBudgetExhausted &&
                 !got[r].empty();
    }
    const ServingStats stats = server->TotalStats();
    EXPECT_EQ(stats.positives, delivered) << (metered ? "metered" : "auto");
    EXPECT_EQ(stats.positives, direct->TotalStats().positives);
    if (metered) {
      // Ten rounds of two positives each, one request funded in part.
      EXPECT_EQ(delivered, 3 * 10 * 2);
      EXPECT_GE(partial, 1);
    } else {
      // Some request spanned several runs.
      EXPECT_GT(most_in_one, o.svt.cutoff);
    }
  }
}

TEST(RequestBatcherTest, AutoDrainFiresAtThreshold) {
  const std::vector<double> answers = MakeAnswers(100, 52);
  auto server = ShardedSvtServer::Create(TestOptions(2, 23)).value();
  RequestBatcher::Options opts;
  opts.auto_drain_pending = 4;
  RequestBatcher batcher(server.get(), opts);
  std::vector<std::vector<Response>> got(4);
  for (int r = 0; r < 3; ++r) {
    batcher.Submit(static_cast<uint64_t>(r), answers, 0.0, &got[r]);
  }
  EXPECT_EQ(batcher.pending(), 3u);
  batcher.Submit(3, answers, 0.0, &got[3]);  // hits the threshold
  EXPECT_EQ(batcher.pending(), 0u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(got[r].size(), answers.size()) << "request " << r;
  }
}

TEST(RequestBatcherTest, DestructorDrainsPending) {
  const std::vector<double> answers = MakeAnswers(100, 53);
  auto server = ShardedSvtServer::Create(TestOptions(2, 24)).value();
  std::vector<Response> got;
  {
    RequestBatcher batcher(server.get());
    batcher.Submit(0, answers, 0.0, &got);
  }
  EXPECT_EQ(got.size(), answers.size());
}

TEST(RequestBatcherTest, DestructorUnderLoadFlushesEverything) {
  // Regression for the busy-spin final flush: the destructor used to loop
  // `while (Drain() > 0 || pending() > 0)` on the try-lock drain path,
  // spinning hot whenever the shards were slow. The flush is now blocking
  // — it waits on the drain and shard mutexes like any other executor —
  // so destroying a batcher with pending requests while other threads
  // hammer the same shards directly must still deliver every response
  // exactly once (and, under the TSan CI job, without a reported race).
  const std::vector<double> answers = MakeAnswers(3000, 57);
  auto server = ShardedSvtServer::Create(TestOptions(2, 26)).value();

  const int kRequests = 12;
  std::vector<std::vector<Response>> got(static_cast<size_t>(kRequests));
  std::atomic<bool> busy_started{false};
  std::atomic<bool> stop{false};
  // Direct executors keep both shard mutexes contended for the whole
  // destructor flush.
  std::vector<std::thread> busy;
  for (int s = 0; s < 2; ++s) {
    busy.emplace_back([&, s] {
      std::vector<Response> sink;
      while (!stop.load(std::memory_order_relaxed)) {
        sink.clear();
        server->ExecuteOnShard(s, answers, 0.0, &sink);
        busy_started.store(true, std::memory_order_relaxed);
      }
    });
  }
  {
    RequestBatcher batcher(server.get());
    for (int r = 0; r < kRequests; ++r) {
      batcher.Submit(static_cast<uint64_t>(r) * 11, answers, 0.0,
                     &got[static_cast<size_t>(r)]);
    }
    while (!busy_started.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
    // Destructor runs here, against busy shards.
  }
  stop.store(true);
  for (std::thread& t : busy) t.join();
  for (int r = 0; r < kRequests; ++r) {
    EXPECT_EQ(got[static_cast<size_t>(r)].size(), answers.size())
        << "request " << r;
  }
}

TEST(RequestBatcherTest, SubmitAndDrainFromPoolTasksCompletes) {
  // Request handlers running on the global pool submit their batch and
  // then call Drain() themselves. With the pool fully subscribed this
  // exercises the nested-ParallelFor inline fallback and the batcher's
  // non-blocking drain lock; a regression deadlocks instead of finishing.
  const std::vector<double> answers = MakeAnswers(400, 54);
  auto server = ShardedSvtServer::Create(TestOptions(4, 25)).value();
  RequestBatcher batcher(server.get());

  const int kHandlers = 2 * ThreadPool::HardwareThreads() + 2;
  std::vector<std::vector<Response>> got(static_cast<size_t>(kHandlers));
  std::atomic<int> done{0};
  for (int h = 0; h < kHandlers; ++h) {
    ThreadPool::Global().Submit([&, h] {
      batcher.Submit(static_cast<uint64_t>(h), answers, 0.0,
                     &got[static_cast<size_t>(h)]);
      batcher.Drain();
      done.fetch_add(1);
    });
  }
  while (done.load() < kHandlers) std::this_thread::yield();
  // No settling drain needed: a handler's Drain() only returns without
  // executing its own request when another drain is in flight, and that
  // drain re-checks for newly pending requests before returning. Once
  // every handler's Drain() has returned, nothing may be left pending.
  EXPECT_EQ(batcher.pending(), 0u);
  for (int h = 0; h < kHandlers; ++h) {
    EXPECT_EQ(got[static_cast<size_t>(h)].size(), answers.size())
        << "handler " << h;
  }
  // Aggregate accounting survives the concurrency.
  EXPECT_EQ(server->TotalStats().queries,
            static_cast<int64_t>(kHandlers) *
                static_cast<int64_t>(answers.size()));
}

}  // namespace
}  // namespace svt
