// serve_open: the served-request path, RequestBatcher -> ShardedSvtServer,
// in kAutoReset mode with 3 shards, a bounded queue and kReject.
//
// Open-loop phase: one generator thread sends Poisson arrivals at a fixed
// offered rate (kOfferedQps, about half of the saturation measured on a
// 4-vCPU 2 GHz Xeon) — independent users, so a stall delays every later
// request instead of slowing the sender. Request sizes are log-uniform in
// [2^8, 2^16] queries; 7 of 8 requests sit far below the bar (tier-1 chunk
// skips), 1 of 8 near it (tier-2 scans, positives, auto-resets); keys are
// uniform. One drainer thread calls Drain(). Latency runs from when a
// request was due, not when it was sent, to the end of the Drain() that
// completed it.
//
// Closed-loop phase: a fixed list of requests served with kPerShard
// requests outstanding per shard; the job is one pass over the list, and
// its throughput is the saturation rate.
//
// With 3 shards, the 3 executing threads plus the generator stay within 4
// hardware threads. The oracle replays each shard's accepted requests, in
// submission order, through ExecuteOnShard on a fresh server with the same
// seed: every response digest must match.

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/svt.h"
#include "serving/request_batcher.h"
#include "serving/sharded_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kShards = 3;
constexpr int kMinLog2Size = 8;
constexpr int kMaxLog2Size = 16;
/// 1 in kNearEvery requests is near the bar.
constexpr int kNearEvery = 8;
/// Offered load of the open-loop phase, queries per second.
constexpr double kOfferedQps = 50e6;
/// Response buffers of the load generator, all touched up front so page
/// faults stay out of the latencies and the footprint is fixed. A due
/// request waits for a free buffer (the wait shows as generator lag), so
/// at most kSlots requests are outstanding and the admission queue, sized
/// to match, never sheds at any load.
constexpr size_t kSlots = 96;
constexpr size_t kMaxPending = kSlots;
constexpr int kPerShard = 2;
constexpr int kClosedRounds = 64;
/// Full-size requests per shard drained together before the open loop:
/// they grow every shard's reusable response buffer past any burst the
/// open loop is likely to drain, so the peak footprint does not depend on
/// how bursty a run happened to be.
constexpr int kWarmPerShard = 16;
/// Share of the run's seconds spent in the open-loop phase.
constexpr double kOpenShare = 0.5;

svt::ServingOptions ServerOptions(uint64_t seed) {
  svt::ServingOptions o;
  o.num_shards = kShards;
  o.seed = seed;
  o.mode = svt::ShardMode::kAutoReset;
  o.svt.epsilon = 0.1;
  o.svt.cutoff = 64;  // near requests exhaust runs and auto-reset
  o.svt.monotonic = true;
  return o;
}

/// One generated request: a window of one of the two answer pools.
struct Request {
  int64_t due_ns = 0;  ///< offset from the open-loop start
  uint64_t key = 0;
  bool near = false;
  size_t offset = 0;
  size_t size = 0;
};

struct Inputs {
  uint64_t server_seed = 0;
  std::vector<double> far_pool, near_pool;
  std::vector<Request> open;    ///< in due order
  std::vector<Request> closed;  ///< kClosedRounds * kShards * kPerShard
  std::vector<Request> warm;    ///< kShards * kWarmPerShard, far, full size
};

std::span<const double> AnswersOf(const Inputs& in, const Request& r) {
  const std::vector<double>& pool = r.near ? in.near_pool : in.far_pool;
  return std::span<const double>(pool).subspan(r.offset, r.size);
}

/// `u` in [0, 1) picks the log-uniform size.
Request DrawRequest(svt::Rng& gen, int64_t index, double u) {
  Request r;
  const double log2_size = kMinLog2Size + u * (kMaxLog2Size - kMinLog2Size);
  r.size = static_cast<size_t>(std::exp2(log2_size));
  r.near = index % kNearEvery == 0;
  r.offset = static_cast<size_t>(gen.NextBounded(size_t{1} << kMaxLog2Size));
  r.key = gen.NextUint64();
  return r;
}

Inputs Generate(uint64_t seed, double open_seconds) {
  Inputs in;
  in.server_seed = seed * 0x9e3779b97f4a7c15ULL + 3;
  svt::Rng probe_rng(1);
  const double nu =
      svt::SparseVector::Create(ServerOptions(0).svt, &probe_rng)
          .value()
          ->query_noise_scale();
  svt::Rng gen(seed * 0xbf58476d1ce4e5b9ULL + 5);
  const size_t pool = size_t{2} << kMaxLog2Size;
  in.far_pool.resize(pool);
  in.near_pool.resize(pool);
  for (double& a : in.far_pool) a = (-50.0 + gen.NextDouble()) * nu;
  for (double& a : in.near_pool) a = (-4.5 + gen.NextDouble()) * nu;

  // Mean of 2^U for U uniform on [lo, hi] is (2^hi - 2^lo) / ((hi-lo) ln 2).
  const double mean_size =
      (std::exp2(kMaxLog2Size) - std::exp2(kMinLog2Size)) /
      ((kMaxLog2Size - kMinLog2Size) * std::log(2.0));
  const double mean_gap_ns = mean_size / kOfferedQps * 1e9;
  double due = 0.0;
  for (int64_t i = 0;; ++i) {
    due += -std::log(gen.NextDoublePositive()) * mean_gap_ns;
    if (due >= open_seconds * 1e9) break;
    Request r = DrawRequest(gen, i, gen.NextDouble());
    r.due_ns = static_cast<int64_t>(due);
    in.open.push_back(r);
  }
  // Sizes stratified separately over the near and the far requests, in
  // random order: the closed list's total work is nearly the same for
  // every seed.
  const int64_t closed = kClosedRounds * kShards * kPerShard;
  const int64_t near = closed / kNearEvery;
  std::vector<int64_t> near_strata(static_cast<size_t>(near));
  std::vector<int64_t> far_strata(static_cast<size_t>(closed - near));
  for (size_t i = 0; i < near_strata.size(); ++i) near_strata[i] = i;
  for (size_t i = 0; i < far_strata.size(); ++i) far_strata[i] = i;
  gen.Shuffle(&near_strata);
  gen.Shuffle(&far_strata);
  for (int64_t i = 0; i < closed; ++i) {
    const bool is_near = i % kNearEvery == 0;
    const std::vector<int64_t>& strata = is_near ? near_strata : far_strata;
    const int64_t k = is_near ? i / kNearEvery : i - i / kNearEvery - 1;
    const double u = (static_cast<double>(strata[static_cast<size_t>(k)]) +
                      gen.NextDouble()) /
                     static_cast<double>(strata.size());
    in.closed.push_back(DrawRequest(gen, i, u));
  }
  Request full;
  full.size = size_t{1} << kMaxLog2Size;
  in.warm.assign(kShards * kWarmPerShard, full);
  return in;
}

/// Digest of one request's responses: its length and every positive.
uint64_t Digest(const std::vector<svt::Response>& out) {
  uint64_t h = Fnv1a(nullptr, 0, 0xcbf29ce484222325ULL);
  const uint64_t size = out.size();
  h = Fnv1a(&size, sizeof(size), h);
  for (size_t i = 0; i < out.size(); ++i) {
    if (!out[i].is_positive()) continue;
    h = Fnv1a(&i, sizeof(i), h);
    h = Fnv1a(&out[i].outcome, sizeof(out[i].outcome), h);
    h = Fnv1a(&out[i].value, sizeof(out[i].value), h);
  }
  return h;
}

/// What became of one offered request.
struct Served {
  const Request* request = nullptr;
  bool accepted = false;
  int shard = 0;
  uint64_t sequence = 0;
  svt::RequestOutcome outcome = svt::RequestOutcome::kPending;
  uint64_t digest = 0;
};

struct Slot {
  std::vector<svt::Response> out;
  svt::RequestOutcome outcome = svt::RequestOutcome::kPending;
  size_t served = 0;  ///< index into the Served list
};

/// Open-loop measurements.
struct OpenStats {
  std::vector<double> latency_us, queue_wait_us, submit_ns, lag_us;
  std::vector<double> drain_ns, drain_reqs;
  int64_t offered = 0, refused = 0;
};

/// The open-loop phase: a generator thread and a drainer thread.
void RunOpenLoop(const Inputs& in, svt::ShardedSvtServer* server,
                 svt::RequestBatcher* batcher, std::vector<Served>* served,
                 OpenStats* stats, TraceBuffer* gen_trace,
                 TraceBuffer* drain_trace) {
  std::vector<Slot> slots(kSlots);
  for (Slot& slot : slots) {
    slot.out.resize(size_t{1} << kMaxLog2Size);
    slot.out.clear();
  }
  std::mutex mu;  // guards free_slots, in_flight, generator_done
  std::vector<size_t> free_slots;  // a stack: slot 0 is handed out first
  for (size_t s = kSlots; s > 0; --s) free_slots.push_back(s - 1);
  std::vector<size_t> in_flight;
  bool generator_done = false;
  const size_t first = served->size();
  served->resize(first + in.open.size());
  std::vector<int64_t> due_abs(served->size());
  const int64_t t0 = NowNs() + 1'000'000;

  std::thread drainer([&] {
    std::vector<size_t> mine, done, still;
    int64_t last_start = 0, last_end = 0;
    for (;;) {
      if (batcher->pending() > 0) {
        const int64_t start = NowNs();
        size_t executed = 0;
        {
          SpanScope span(drain_trace, "serving.drain");
          executed = batcher->Drain();
        }
        const int64_t end = NowNs();
        if (executed > 0) {
          stats->drain_ns.push_back(static_cast<double>(end - start));
          stats->drain_reqs.push_back(static_cast<double>(executed));
          last_start = start;
          last_end = end;
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (in_flight.empty() && generator_done && batcher->pending() == 0) {
          return;
        }
        mine.swap(in_flight);
      }
      if (mine.empty()) {
        std::this_thread::yield();
        continue;
      }
      // Only this thread drains, so a request that is no longer pending
      // was completed by the latest non-empty drain.
      for (size_t s : mine) {
        (slots[s].outcome == svt::RequestOutcome::kPending ? still : done)
            .push_back(s);
      }
      for (size_t s : done) {
        Served& sv = (*served)[slots[s].served];
        const int64_t due = due_abs[slots[s].served];
        stats->latency_us.push_back(static_cast<double>(last_end - due) *
                                    1e-3);
        stats->queue_wait_us.push_back(
            static_cast<double>(std::max<int64_t>(last_start - due, 0)) *
            1e-3);
        if (drain_trace != nullptr) {
          drain_trace->Add("serving.request", due, last_end,
                           static_cast<int64_t>(slots[s].served));
        }
        sv.outcome = slots[s].outcome;
        sv.digest = Digest(slots[s].out);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        in_flight.insert(in_flight.end(), still.begin(), still.end());
        free_slots.insert(free_slots.end(), done.begin(), done.end());
      }
      mine.clear();
      done.clear();
      still.clear();
    }
  });

  // The generator runs on this thread.
  for (size_t i = 0; i < in.open.size(); ++i) {
    const Request& r = in.open[i];
    const int64_t due = t0 + r.due_ns;
    due_abs[first + i] = due;
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      if (due - now > 200'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - 100'000));
      } else {
        std::this_thread::yield();
      }
    }
    ++stats->offered;
    Served& sv = (*served)[first + i];
    sv.request = &r;
    sv.shard = server->ShardOf(r.key);
    size_t slot = kSlots;
    while (slot == kSlots) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!free_slots.empty()) {
          slot = free_slots.back();
          free_slots.pop_back();
        }
      }
      if (slot == kSlots) std::this_thread::yield();
    }
    const int64_t sent = NowNs();
    stats->lag_us.push_back(static_cast<double>(sent - due) * 1e-3);
    slots[slot].outcome = svt::RequestOutcome::kPending;
    slots[slot].served = first + i;
    svt::Result<uint64_t> seq = [&] {
      SpanScope span(gen_trace, "serving.submit",
                     static_cast<int64_t>(first + i));
      return batcher->Submit(r.key, AnswersOf(in, r), 0.0, &slots[slot].out,
                             svt::SubmitOptions(), &slots[slot].outcome);
    }();
    stats->submit_ns.push_back(static_cast<double>(NowNs() - sent));
    std::lock_guard<std::mutex> lock(mu);
    if (seq.ok()) {
      sv.accepted = true;
      sv.sequence = seq.value();
      in_flight.push_back(slot);
    } else {
      ++stats->refused;
      free_slots.push_back(slot);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  }
  drainer.join();
}

/// One closed-loop pass over `requests`: one request per slot, slot s on
/// shard s mod kShards, is submitted; all are drained together and
/// replaced, until the list is done. Returns the pass's seconds and
/// appends what was served.
double RunClosedPass(const Inputs& in, const std::vector<Request>& requests,
                     svt::RequestBatcher* batcher,
                     const std::vector<uint64_t>& shard_keys,
                     std::vector<Slot>* slots, std::vector<Served>* served,
                     TraceBuffer* trace) {
  const int64_t start = NowNs();
  size_t next = 0;
  while (next < requests.size()) {
    const size_t first = served->size();
    for (size_t s = 0; s < slots->size() && next < requests.size();
         ++s, ++next) {
      const Request& r = requests[next];
      const int shard = static_cast<int>(s) % kShards;
      Served sv;
      sv.request = &r;
      sv.shard = shard;
      svt::Result<uint64_t> seq = [&] {
        SpanScope span(trace, "serving.submit",
                       static_cast<int64_t>(served->size()));
        return batcher->Submit(shard_keys[static_cast<size_t>(shard)],
                               AnswersOf(in, r), 0.0, &(*slots)[s].out,
                               svt::SubmitOptions(), &(*slots)[s].outcome);
      }();
      sv.accepted = seq.ok();
      sv.sequence = seq.ok() ? seq.value() : 0;
      served->push_back(sv);
    }
    {
      SpanScope span(trace, "serving.drain");
      batcher->Drain();
    }
    for (size_t i = first; i < served->size(); ++i) {
      const Slot& slot = (*slots)[i - first];
      (*served)[i].outcome = slot.outcome;
      (*served)[i].digest = Digest(slot.out);
    }
  }
  return SecondsBetween(start, NowNs());
}

/// The oracle: replays each shard's accepted requests in submission order
/// on a fresh server with the same seed, one thread per shard; returns
/// the number of requests whose digest differs.
int64_t ReplayMismatches(const Inputs& in, const std::vector<Served>& served) {
  auto server = svt::ShardedSvtServer::Create(ServerOptions(in.server_seed))
                    .value();
  std::vector<std::vector<const Served*>> per_shard(kShards);
  for (const Served& sv : served) {
    if (sv.accepted) per_shard[static_cast<size_t>(sv.shard)].push_back(&sv);
  }
  std::vector<int64_t> bad(kShards, 0);
  std::vector<std::thread> threads;
  for (int shard = 0; shard < kShards; ++shard) {
    threads.emplace_back([&, shard] {
      auto& list = per_shard[static_cast<size_t>(shard)];
      std::sort(list.begin(), list.end(), [](const Served* a, const Served* b) {
        return a->sequence < b->sequence;
      });
      std::vector<svt::Response> out;
      for (const Served* sv : list) {
        out.clear();
        server->ExecuteOnShard(shard, AnswersOf(in, *sv->request), 0.0, &out);
        if (Digest(out) != sv->digest) ++bad[static_cast<size_t>(shard)];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t total = 0;
  for (int64_t b : bad) total += b;
  return total;
}

std::vector<uint64_t> ShardKeys(const svt::ShardedSvtServer& server) {
  std::vector<uint64_t> keys(kShards, 0);
  std::vector<bool> found(kShards, false);
  for (uint64_t key = 0, missing = kShards; missing > 0; ++key) {
    const auto s = static_cast<size_t>(server.ShardOf(key));
    if (!found[s]) {
      found[s] = true;
      keys[s] = key;
      --missing;
    }
  }
  return keys;
}

}  // namespace

Outcome RunServeOpen(const RunOptions& options) {
  Outcome outcome;
  const double open_seconds = options.seconds * kOpenShare;
  Inputs in;
  outcome.Set("setup_s", MedianSetupSeconds([&] {
                in = Generate(options.seed, open_seconds);
              }));

  auto server =
      svt::ShardedSvtServer::Create(ServerOptions(in.server_seed)).value();
  svt::RequestBatcher::Options batcher_options;
  batcher_options.max_pending = kMaxPending;
  batcher_options.shed_policy = svt::ShedPolicy::kReject;
  auto batcher =
      std::make_unique<svt::RequestBatcher>(server.get(), batcher_options);

  TraceBuffer gen_trace("generator"), drain_trace("drainer"),
      main_trace("main");
  const std::vector<uint64_t> shard_keys = ShardKeys(*server);
  std::vector<Slot> closed_slots(kShards * kPerShard);
  std::vector<Served> served;
  // Untimed: one closed-loop pass warms the pool, and one drain of
  // full-size requests sizes the shards' buffers.
  RunClosedPass(in, in.closed, batcher.get(), shard_keys, &closed_slots,
                &served, nullptr);
  {
    std::vector<Slot> warm_slots(kShards * kWarmPerShard);
    RunClosedPass(in, in.warm, batcher.get(), shard_keys, &warm_slots,
                  &served, nullptr);
  }
  OpenStats open;
  RunOpenLoop(in, server.get(), batcher.get(), &served, &open,
              options.trace ? &gen_trace : nullptr,
              options.trace ? &drain_trace : nullptr);
  const svt::ServingStats open_total = server->TotalStats();
  std::vector<double> shard_exec;
  for (int s = 0; s < kShards; ++s) {
    shard_exec.push_back(
        static_cast<double>(server->StatsForShard(s).exec_nanos));
  }
  const svt::RequestBatcher::BatcherStats batcher_stats = batcher->stats();

  std::vector<double> job_s, traced_job_s;
  int64_t closed_queries = 0;
  double closed_seconds = 0.0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>((options.seconds - open_seconds) * 1e9);
  do {
    const size_t before = served.size();
    const double s = RunClosedPass(in, in.closed, batcher.get(), shard_keys,
                                   &closed_slots, &served, nullptr);
    job_s.push_back(s);
    closed_seconds += s;
    for (size_t i = before; i < served.size(); ++i) {
      closed_queries += static_cast<int64_t>(served[i].request->size);
    }
    if (options.trace) {
      traced_job_s.push_back(RunClosedPass(in, in.closed, batcher.get(),
                                           shard_keys, &closed_slots, &served,
                                           &main_trace));
    }
  } while (NowNs() < deadline);
  batcher.reset();

  // Every offered request counts once: refused, not kOk, or differing
  // from its replay is a failure.
  int64_t refused_or_not_ok = 0;
  for (const Served& sv : served) {
    if (!sv.accepted || sv.outcome != svt::RequestOutcome::kOk) {
      ++refused_or_not_ok;
    }
  }
  outcome.Count(static_cast<int64_t>(served.size()), refused_or_not_ok,
                "requests refused or not kOk");
  outcome.Count(0, ReplayMismatches(in, served),
                "served responses differ from replay");

  const double serve_p50 = Quantile(open.latency_us, 0.50);
  const double serve_p99 = Quantile(open.latency_us, 0.99);
  const double sat_qps = static_cast<double>(closed_queries) / closed_seconds;
  if (!options.trace) {
    outcome.Set("job_s", Median(job_s));
    outcome.Set("peak_rss_mib", PeakRssMib());
    outcome.Set("serve_p50_us", serve_p50);
    outcome.Set("serve_p99_us", serve_p99);
    outcome.Set("serve_sat_qps", sat_qps);
    return outcome;
  }

  outcome.Set("serve_p50_us", serve_p50);
  outcome.Set("serve_p99_us", serve_p99);
  outcome.Set("serve_sat_qps", sat_qps);
  outcome.Set("serving.submit_ns.p50", Quantile(open.submit_ns, 0.50));
  outcome.Set("serving.submit_ns.p99", Quantile(open.submit_ns, 0.99));
  outcome.Set("serving.queue_wait_us.p50", Quantile(open.queue_wait_us, 0.50));
  outcome.Set("serving.queue_wait_us.p99", Quantile(open.queue_wait_us, 0.99));
  outcome.Set("serving.drain_ns.p50", Quantile(open.drain_ns, 0.50));
  outcome.Set("serving.drain_ns.p99", Quantile(open.drain_ns, 0.99));
  double reqs = 0.0;
  for (double r : open.drain_reqs) reqs += r;
  outcome.Set("serving.drain_reqs",
              open.drain_reqs.empty()
                  ? 0.0
                  : reqs / static_cast<double>(open.drain_reqs.size()));
  outcome.Set("serving.exec_p50_ns",
              static_cast<double>(open_total.exec_p50_nanos()));
  outcome.Set("serving.exec_p99_ns",
              static_cast<double>(open_total.exec_p99_nanos()));
  double exec_sum = 0.0, exec_max = 0.0;
  for (double e : shard_exec) {
    exec_sum += e;
    exec_max = std::max(exec_max, e);
  }
  outcome.Set("serving.shard_imbalance",
              exec_sum > 0.0 ? exec_max / (exec_sum / kShards) : 0.0);
  outcome.Set("serving.shed_frac",
              static_cast<double>(open.refused) /
                  static_cast<double>(std::max<int64_t>(open.offered, 1)));
  outcome.Set("serving.queue_high_water",
              static_cast<double>(batcher_stats.queue_high_water));
  outcome.Set("loadgen.lag_p99_us", Quantile(open.lag_us, 0.99));
  outcome.Set("trace.job_s.untraced", Median(job_s));
  outcome.Set("trace.job_s.traced", Median(traced_job_s));
  if (!options.trace_path.empty() &&
      !DumpSpans(options.trace_path, {&gen_trace, &drain_trace, &main_trace})) {
    outcome.Check(false, "cannot write " + options.trace_path);
  }
  return outcome;
}

int SelfTestServeOpen() {
  const Inputs in = Generate(/*seed=*/7, /*open_seconds=*/0.0);
  auto server =
      svt::ShardedSvtServer::Create(ServerOptions(in.server_seed)).value();
  std::vector<Served> served;
  {
    svt::RequestBatcher batcher(server.get());
    std::vector<Slot> slots(kShards * kPerShard);
    RunClosedPass(in, in.closed, &batcher, ShardKeys(*server), &slots,
                  &served, nullptr);
  }
  int problems = 0;
  if (ReplayMismatches(in, served) != 0) ++problems;
  // One swapped served request: exchange the submission order of the
  // first two near requests of one shard, so the replay runs them in the
  // other order and their positives move.
  Served* first = nullptr;
  for (Served& sv : served) {
    if (!sv.request->near) continue;
    if (first == nullptr) {
      first = &sv;
    } else if (sv.shard == first->shard) {
      std::swap(first->sequence, sv.sequence);
      break;
    }
  }
  if (first == nullptr || ReplayMismatches(in, served) == 0) ++problems;
  return problems;
}

}  // namespace perfbench
