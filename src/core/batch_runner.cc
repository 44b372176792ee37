#include "core/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <type_traits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/vecmath.h"
#include "core/bound_pipeline.h"
#include "data/bound_prefilter.h"

namespace svt {

namespace {

static_assert(Response{}.outcome == Outcome::kBelow,
              "value-initialized Response must be ⊥: the batch engine emits "
              "⊥ runs via zero-initializing resize");

static_assert(BatchRunner::kChunkSize / BatchRunner::kBoundSpan <=
                  BoundPipeline::kMaxSpans,
              "BoundPipeline's static span plan must cover a full chunk");

// Kernel scratch that is written before it is read. The element types
// carry default member initializers, so a plain array would be zeroed on
// every declaration; raw storage skips that, and the elements (aggregates,
// hence implicit-lifetime types) come into being as the kernels write them.
template <typename T, size_t N>
class UninitArray {
 public:
  static_assert(std::is_aggregate_v<T> && std::is_trivially_copyable_v<T>);
  T* data() { return std::launder(reinterpret_cast<T*>(bytes_)); }
  T& operator[](size_t i) { return data()[i]; }

 private:
  alignas(T) unsigned char bytes_[sizeof(T) * N];
};

// Appends n <= kChunkSize ⊥ responses. Copying them from a block of ⊥ is
// a memmove; resize's value-initialization is a loop of 16-byte stores,
// and at ~1 ns per response this fill is most of what a walk whose stage
// runs ahead has left to do.
void AppendBelow(std::vector<Response>* out, size_t n) {
  alignas(64) static constexpr Response kBelow[BatchRunner::kChunkSize] = {};
  out->insert(out->end(), kBelow, kBelow + n);
}

// Ends a run the cutoff exhausted after `emitted` of its responses.
size_t Truncate(std::vector<Response>* out, size_t start, size_t emitted) {
  out->resize(start + emitted);
  return emitted;
}

// The tier-2 resume walk, from element `from` of an n-element
// chunk. A resume lands mid-span only after a positive in that span, which
// passed its bound to fire at all; the span's remainder is scanned without
// a new test, and the walk re-anchors on the span grid. Each whole span is
// scanned only when can_fire(j), the pipeline's span test (which counts
// the skips). Every scanned segment counts one tier2_fused_segments.
// scan(lo, hi) returns the first positive in [lo, hi), or index hi when
// there is none.
template <typename CanFire, typename Scan>
vec::FusedScanHit WalkSpans(size_t from, size_t n, BatchRunStats* stats,
                            CanFire can_fire, Scan scan) {
  constexpr size_t kSpan = BatchRunner::kBoundSpan;
  size_t s = from;
  if (s % kSpan != 0 && s < n) {
    const size_t e = std::min(s - s % kSpan + kSpan, n);
    ++stats->tier2_fused_segments;
    const vec::FusedScanHit hit = scan(s, e);
    if (hit.index < e) return hit;
    s = e;
  }
  for (; s < n; s += kSpan) {
    if (!can_fire(s / kSpan)) continue;
    const size_t e = std::min(s + kSpan, n);
    ++stats->tier2_fused_segments;
    const vec::FusedScanHit hit = scan(s, e);
    if (hit.index < e) return hit;
  }
  return {n, 0.0};
}

constexpr size_t kChunkSpans =
    BatchRunner::kChunkSize / BatchRunner::kBoundSpan;
// Hits a fused pass records per chunk before its record counts as
// overflowed.
constexpr size_t kMaxChunkHits = BatchRunner::kChunkSize / 16;

// One chunk's noise-stage record: everything the serial walk needs from
// the chunk's ν words, and nothing that depends on the walk. Either the
// fused pass's record (span minima, recorded hits, end state) or the
// chunk's words (plus, when the stage ran ahead, their transformed ν
// block). The bound plan lives here too, with the counters it charges.
struct ChunkNoise {
  // User-provided, so that value-initialization (optional::emplace(),
  // make_unique) leaves the 50 KiB of scratch below unwritten.
  ChunkNoise() {}
  ChunkNoise(const ChunkNoise&) = delete;
  ChunkNoise& operator=(const ChunkNoise&) = delete;

  // Readies the record for a call's chunks.
  void Prepare(const VariantSpec& spec, const BoundPrefilter* prefilter) {
    kind = spec.nu_kind;
    wpv = WordsPerVariate(kind);
    scale = spec.nu_scale;
    pipe.emplace(prefilter, scale, BatchRunner::kBoundSpan, &stats);
  }

  bool complete() const { return fused && found <= kMaxChunkHits; }

  // The chunk's words, regenerated once from the entry state when the
  // fused pass consumed them in registers (a record that overflowed).
  void EnsureWords() {
    if (!have_words) {
      BlockRng(entry).Fill({words, wpv * n});
      have_words = true;
    }
  }

  // The chunk's ν block, transformed whole in one dispatched call the
  // first time it is needed; every later resume in the chunk, under
  // whatever bar ρ has moved to, only compares. The transform is the
  // streaming sampler's, so the ν are the ones a Process() loop draws from
  // the same words (core/svt.h, contract step 4).
  const double* Nu() {
    if (!nu_ready) {
      EnsureWords();
      TransformNoise(kind, scale, {words, wpv * n}, {nu, n});
      nu_ready = true;
    }
    return nu;
  }

  NoiseKind kind = NoiseKind::kLaplace;
  size_t wpv = 0;  // words per ν variate
  double scale = 0.0;
  // Counters of the stage and of the walk's span tests over this chunk,
  // added to the run's once the walk is done with it.
  BatchRunStats stats;
  std::optional<BoundPipeline> pipe;
  size_t n = 0;           // queries in the chunk
  BlockRng::State entry;  // the ν stream at the chunk's first word
  BlockRng::State end;    // and after its last
  bool fused = false;       // `hits` holds the fused pass's record
  size_t found = 0;         // hits the pass found (may exceed kMaxChunkHits)
  bool have_words = false;  // `words` holds the chunk's words
  bool nu_ready = false;    // `nu` holds the chunk's transformed ν block
  uint64_t span_min[kChunkSpans];
  UninitArray<vec::FusedScanHit, kMaxChunkHits> hits;
  // Cache-line-aligned so the 512-bit loads of the word reductions and the
  // scan kernels never split lines.
  alignas(64) uint64_t words[2 * BatchRunner::kChunkSize];
  alignas(64) double nu[BatchRunner::kChunkSize];
};

// The per-chunk noise stage: a pure function of the chunk's
// ν entry state, its answers (and thresholds) and, when the spec never
// moves it, ρ — so it may run on any thread, ahead of the walk, and
// produce bit for bit what it would inline.
struct NoiseStage {
  const VariantSpec& spec;
  std::span<const double> answers;
  const double* thresholds;  // null for a common bar
  double threshold;          // the common bar, before ρ

  // Fills *rec for the n-element chunk at `offset` whose ν words start at
  // `entry`; `rho` is the call's ρ when the spec never moves it
  // (ChunkFeed::StageRho).
  void Run(size_t offset, size_t n, const BlockRng::State& entry,
           std::optional<double> rho, ChunkNoise* rec) const {
    const size_t wpv = WordsPerVariate(spec.nu_kind);
    const double* const a = answers.data() + offset;
    const double* const t =
        thresholds == nullptr ? nullptr : thresholds + offset;
    rec->stats = BatchRunStats{};
    rec->n = n;
    rec->entry = entry;
    rec->nu_ready = false;
    BoundPipeline& pipe = *rec->pipe;
    pipe.BeginChunk(a, t, offset, n);
    const size_t nspans = pipe.num_spans();

    // The fused pass generates the chunk's ν words in registers
    // (the lane-resident xoshiro step), reduces them to the per-span minima
    // the bounds need and records every element that fires at the bar,
    // transforming only the lockstep groups the skip words cannot
    // discharge; the words never touch memory. It runs only where that
    // record is valid and cheap: ρ is known (a spec that resamples it can
    // move the bar at any positive, so its stage has no ρ and the record
    // would go stale), and a sound skip word exists (without one — some
    // answer at or above the bar — it would transform every word of a chunk
    // a cutoff may never need). Any upper bound on the answers is a sound
    // skip-word input (vec::MegaSkipWordThreshold), so the pipeline's
    // uppers, quantized or exact, feed it directly; per query, each span
    // pairs its answer upper with its bar lower at ρ.
    uint64_t skip_words[kChunkSpans];
    uint64_t chunk_skip = vec::kMegaNeverSkipWord;
    if (rho.has_value() && t == nullptr) {
      chunk_skip = pipe.ChunkSkipWord(threshold + *rho);
      std::fill_n(skip_words, nspans, chunk_skip);
    } else if (rho.has_value()) {
      for (size_t k = 0; k < nspans; ++k) {
        skip_words[k] = pipe.SpanSkipWordPerQuery(k, *rho);
        chunk_skip = std::min(chunk_skip, skip_words[k]);
      }
    }
    rec->fused = chunk_skip < vec::kMegaNeverSkipWord;
    rec->found = 0;
    if (rec->fused) {
      BlockRng::State st = entry;
      uint64_t skipped = 0;
      rec->found = vec::MegaFillMinScanSpans(
          &st, wpv, spec.nu_scale, {a, n}, {t, t == nullptr ? 0 : n},
          t == nullptr ? threshold + *rho : *rho, skip_words,
          BatchRunner::kBoundSpan, rec->span_min, rec->hits.data(),
          kMaxChunkHits, &skipped);
      rec->stats.mega_words_skipped_q += static_cast<int64_t>(skipped);
      // The pass consumed exactly the chunk's words: the stream stands
      // where a fill of them would leave it.
      rec->end = st;
      rec->have_words = false;
    } else {
      // Fetch the chunk's raw ν words — the substream advances exactly as
      // if each ν_i had been drawn scalar-style (Laplace variates are
      // (magnitude, sign) pairs, exponential variates one magnitude word)
      // — and reduce each span's magnitude words to its minimum: the same
      // minima the fused pass records (unsigned min is association-free),
      // so skip decisions and counters match between the ways bit for bit.
      // No word is discharged here, so the stage counts no skipped word.
      BlockRng gen(entry);
      gen.Fill({rec->words, wpv * n});
      rec->end = gen.state();
      rec->have_words = true;
      for (size_t k = 0; k < nspans; ++k) {
        const size_t s = k * BatchRunner::kBoundSpan;
        rec->span_min[k] = vec::MinWordBlock(
            {rec->words + wpv * s,
             wpv * std::min(BatchRunner::kBoundSpan, n - s)},
            wpv);
      }
    }
    pipe.SetNoiseMinima(rec->span_min);
  }
};

// Runs the noise stage of chunks [0, chunks) on pool workers ahead of the
// walk. A worker claims the next group of kGroupChunks chunks, jumps a
// copy of the call's ν entry state to the group's first word
// (BlockRng::Advance) and runs the stage chunk after chunk into a bounded
// ring of records, which the walk takes in chunk order and hands back. The
// claim is dynamic (each free worker takes the next group, so the groups
// go round the workers), and the walk never blocks on a worker: a chunk
// not delivered within kPatience it runs itself (the worker then skips it,
// or frees the slot once done). So a worker the scheduler preempts costs
// the walk microseconds, not a time slice, and no wait can deadlock. When
// the walk has had to run at least kGiveUp chunks itself, and more than
// one in four of those it reached, the workers are not getting the cores —
// say, on a host busy with other work, where they also take the walk's:
// it stops them, runs the rest of the call inline, and the next
// kBackoffCalls long calls run inline too.
class NoiseRing {
 public:
  static constexpr size_t kGroupChunks = 4;
  static constexpr size_t kSlots = 16;
  static_assert(kSlots % kGroupChunks == 0, "a group's slots are contiguous");
  // How long the walk waits for a chunk before running it itself: about
  // one chunk's stage.
  static constexpr std::chrono::microseconds kPatience{20};
  // Chunks the walk runs itself before it may stop the workers: two
  // groups, more than the workers' start-up costs on an idle host.
  static constexpr size_t kGiveUp = 2 * kGroupChunks;
  // Long calls that run inline after one gave up.
  static constexpr int kBackoffCalls = 16;

  NoiseRing(const NoiseStage& stage, const BoundPrefilter* prefilter,
            size_t total, const BlockRng::State& entry,
            std::optional<double> rho)
      : stage_(stage),
        total_(total),
        chunks_((total + BatchRunner::kChunkSize - 1) /
                BatchRunner::kChunkSize),
        groups_((chunks_ + kGroupChunks - 1) / kGroupChunks),
        entry_(entry),
        rho_(rho),
        slots_(std::move(Records())) {
    slots_.resize(kSlots);
    for (size_t s = 0; s < kSlots; ++s) {
      if (slots_[s] == nullptr) slots_[s] = std::make_unique<ChunkNoise>();
      slots_[s]->Prepare(stage.spec, prefilter);
      turn_[s].store(2 * s);
    }
    ThreadPool& pool = ThreadPool::Global();
    // One worker fewer than the pool: the walk keeps a core.
    const size_t workers = std::min<size_t>(
        groups_, static_cast<size_t>(std::max(1, pool.size() - 1)));
    gate_->ring = this;
    for (size_t w = 0; w < workers; ++w) {
      pool.Submit([gate = gate_] { Enter(*gate); });
    }
  }

  // Stops the workers (the walk may have ended at the cutoff) and waits
  // until none touches the ring.
  ~NoiseRing() {
    Stop();
    {
      std::lock_guard<std::mutex> lock(gate_->mu);
      gate_->ring = nullptr;
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return running_ == 0; });
    Records() = std::move(slots_);
    Claimed().store(false, std::memory_order_release);
  }

  NoiseRing(const NoiseRing&) = delete;
  NoiseRing& operator=(const NoiseRing&) = delete;

  // One call at a time runs its stage ahead: a second long call made
  // meanwhile (from another thread) would find the pool held by the first
  // one's workers, so it runs inline, as do the calls backing off after
  // one gave up. True when the caller may construct a ring; the ring gives
  // the claim back when it is destroyed.
  static bool TryClaim() {
    if (Claimed().exchange(true, std::memory_order_acquire)) return false;
    if (Backoff() > 0) {
      --Backoff();
      Claimed().store(false, std::memory_order_release);
      return false;
    }
    return true;
  }

  // Chunk c's record, if a worker delivers it within kPatience; else null,
  // and the walk runs the chunk's stage itself. Pair a record with
  // Release(c).
  ChunkNoise* TryTake(size_t c) {
    if (stopped_) return nullptr;
    const size_t s = c % kSlots;
    // The worker published the turn after writing the record, so seeing
    // the turn makes the record visible.
    if (turn_[s].load() == 2 * c + 1) return slots_[s].get();
    const auto give_up = std::chrono::steady_clock::now() + kPatience;
    while (turn_[s].load() != 2 * c + 1 &&
           std::chrono::steady_clock::now() < give_up) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (turn_[s].load() == 2 * c + 1) return slots_[s].get();
      // The worker skips the chunk, or frees its slot once done with it.
      taken_by_walk_[s] = true;
    }
    if (++misses_ >= kGiveUp && 4 * misses_ > c + 1) {
      Stop();
      Backoff() = kBackoffCalls;
    }
    return nullptr;
  }

  // The walk is done with chunk c's record: the slot goes to the worker
  // that will produce chunk c + kSlots. Workers wait only for a group's
  // last slot, so only that one needs the lock that orders it with their
  // waits.
  void Release(size_t c) {
    if (GroupEnd(c + kSlots) != c + kSlots) {
      turn_[c % kSlots].store(2 * (c + kSlots));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      Free(c);
    }
    free_cv_.notify_all();
  }

 private:
  static std::atomic<bool>& Claimed() {
    static std::atomic<bool> claimed{false};
    return claimed;
  }

  // Long calls still to run inline; the claim guards it.
  static int& Backoff() {
    static int calls = 0;
    return calls;
  }

  // The ring's records, kept between calls (the claim guards them): a
  // fresh ring would page-fault its 800 KiB in on every call.
  static std::vector<std::unique_ptr<ChunkNoise>>& Records() {
    static std::vector<std::unique_ptr<ChunkNoise>> records;
    return records;
  }

  // Tells the workers to stop after their current chunk.
  void Stop() {
    stopped_ = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled_ = true;
    }
    free_cv_.notify_all();
  }

  // The last chunk of chunk c's group.
  size_t GroupEnd(size_t c) const {
    return std::min(c - c % kGroupChunks + kGroupChunks, chunks_) - 1;
  }

  // Hands chunk c's slot on (mu_ held). Workers wait for a whole group's
  // slots at once, so only the slot that completes a group wakes them:
  // returns whether this one does.
  bool Free(size_t c) {
    turn_[c % kSlots].store(2 * (c + kSlots));
    return GroupEnd(c + kSlots) == c + kSlots;
  }

  // Frees chunk c's slot if the walk ran the chunk itself (mu_ held):
  // returns whether it did, and in *wake whether to wake the workers.
  bool FreeIfTaken(size_t c, bool* wake) {
    const size_t s = c % kSlots;
    if (!taken_by_walk_[s]) return false;
    taken_by_walk_[s] = false;
    *wake = Free(c);
    return true;
  }

  // Pool tasks hold the gate, not the ring: a task that starts only after
  // the call has ended (the pool was busy with other work) finds the gate
  // closed and returns, so the call never waits for a task to start.
  struct Gate {
    std::mutex mu;
    NoiseRing* ring = nullptr;
  };

  static void Enter(Gate& gate) {
    NoiseRing* ring;
    {
      std::lock_guard<std::mutex> gate_lock(gate.mu);
      ring = gate.ring;
      if (ring == nullptr) return;
      // Counted before the gate can close, so the ring outlives the task.
      std::lock_guard<std::mutex> lock(ring->mu_);
      ++ring->running_;
    }
    ring->Produce();
  }

  void Produce() {
    const size_t wpv = WordsPerVariate(stage_.spec.nu_kind);
    for (;;) {
      size_t first;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (cancelled_ || next_group_ == groups_) break;
        first = next_group_++ * kGroupChunks;
      }
      // The walk releases slots in chunk order, so once the group's last
      // slot is free, all of them are.
      const size_t last = GroupEnd(first);
      {
        std::unique_lock<std::mutex> lock(mu_);
        free_cv_.wait(lock, [&] {
          return cancelled_ || turn_[last % kSlots].load() == 2 * last;
        });
        if (cancelled_) break;
      }
      BlockRng gen(entry_);
      gen.Advance(first * BatchRunner::kChunkSize * wpv);
      for (size_t c = first; c <= last; ++c) {
        const size_t offset = c * BatchRunner::kChunkSize;
        const size_t n = std::min(BatchRunner::kChunkSize, total_ - offset);
        bool skip = false, wake = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          skip = FreeIfTaken(c, &wake);
        }
        if (skip) {
          gen.Advance(n * wpv);
        } else {
          ChunkNoise* rec = slots_[c % kSlots].get();
          stage_.Run(offset, n, gen.state(), rho_, rec);
          gen.Restore(rec->end);
          // Off the walk's thread, also the work the walk would do first
          // in the chunk: the span ν bounds, and the ν block of a chunk
          // without a complete record.
          rec->pipe->EnsureSpanNuBounds();
          if (!rec->complete()) rec->Nu();
          std::lock_guard<std::mutex> lock(mu_);
          if (!FreeIfTaken(c, &wake)) turn_[c % kSlots].store(2 * c + 1);
        }
        // This worker still counts as running, so the ring is alive.
        if (wake) free_cv_.notify_all();
      }
    }
    // Notify under the lock: the ring cannot be destroyed before the
    // notify returns.
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    done_cv_.notify_all();
  }

  const NoiseStage stage_;
  const size_t total_;
  const size_t chunks_;
  const size_t groups_;
  const BlockRng::State entry_;
  const std::optional<double> rho_;
  std::vector<std::unique_ptr<ChunkNoise>> slots_;
  const std::shared_ptr<Gate> gate_ = std::make_shared<Gate>();
  // The walk's own: chunks it ran itself, and whether it stopped the
  // workers.
  size_t misses_ = 0;
  bool stopped_ = false;
  std::mutex mu_;
  std::condition_variable free_cv_;  // workers wait for their slots
  std::condition_variable done_cv_;  // the destructor waits for workers
  // turn_[s] is 2c while slot s waits for chunk c's worker and 2c + 1
  // once chunk c is in it. Atomic, so the walk can spin on it; a group's
  // last slot, which workers wait on, changes only under mu_, so their
  // waits cannot miss the change.
  std::atomic<uint64_t> turn_[kSlots];
  // Guarded by mu_. taken_by_walk_[s]: the walk ran slot s's pending chunk
  // itself, so its worker skips it or frees the slot when done.
  bool taken_by_walk_[kSlots] = {};
  size_t next_group_ = 0;
  bool cancelled_ = false;
  int running_ = 0;  // tasks inside Produce
};

// The walk's source of chunk records: a NoiseRing running the stage
// ahead, or the stage run on the walk's own thread just before it needs
// the record (from the ν stream's current position and the current ρ) —
// for every chunk of an inline call, and for any chunk the ring has not
// produced in time.
class ChunkFeed {
 public:
  ChunkFeed(const NoiseStage& stage, const BoundPrefilter* prefilter,
            size_t total, bool ahead, SvtRunState* state)
      : stage_(stage), state_(state) {
    if (ahead && NoiseRing::TryClaim()) {
      ring_.emplace(stage, prefilter, total, state->nu_rng.state(),
                    StageRho());
    }
    local_.emplace();
    local_->Prepare(stage.spec, prefilter);
  }

  // The record of chunk c, which starts at `offset` and holds n queries.
  // Run here, the stage starts from the ν stream's current position: the
  // walk leaves it at the end of chunk c - 1.
  ChunkNoise& Get(size_t c, size_t offset, size_t n) {
    if (ring_.has_value()) {
      if (ChunkNoise* rec = ring_->TryTake(c)) return *rec;
    }
    stage_.Run(offset, n, state_->nu_rng.state(), StageRho(), &*local_);
    return *local_;
  }

  // The walk is done with chunk c: its counters join the run's.
  void Done(size_t c, const ChunkNoise& rec) {
    state_->batch += rec.stats;
    if (&rec != &*local_) ring_->Release(c);
  }

 private:
  // The ρ the noise stage may fuse at: the run's, when the spec never
  // moves it, so that it is the ρ of every chunk of the call, inline or run
  // ahead, and a complete record replays exactly as recorded. A spec that
  // resamples ρ runs its stage without it.
  std::optional<double> StageRho() const {
    if (stage_.spec.resample_rho_after_positive) return std::nullopt;
    return state_->rho;
  }

  const NoiseStage& stage_;
  SvtRunState* const state_;
  std::optional<NoiseRing> ring_;
  std::optional<ChunkNoise> local_;
};

// A run's bar source: query i fires when its noisy answer reaches
// fl(threshold_i + ρ), one threshold for all queries (CommonBar) or one
// each (PerQueryBars, Alg. 7's general form). At(offset) is the source of
// the chunk at `offset`, whose indices the members take; FindFirst returns
// the first i in [lo, hi) with a[i] (+ nu[i] when nu is set) >= its bar, or
// hi, through vec::FindFirstGe's bar convention: a common bar passes no
// bars and fl(threshold + ρ) as the offset, per query the thresholds and ρ.
struct CommonBar {
  static constexpr const double* thresholds = nullptr;  // NoiseStage's
  double threshold;

  CommonBar At(size_t) const { return *this; }
  // Tier 1: only a common bar has a chunk bound.
  bool ChunkCanFire(const BoundPipeline& pipe, double rho) const {
    return pipe.ChunkCanFire(threshold + rho);
  }
  bool SpanCanFire(BoundPipeline& pipe, size_t j, double rho) const {
    return pipe.SpanCanFire(j, threshold + rho);
  }
  std::span<const double> Bars(size_t, size_t) const { return {}; }
  double BarOffset(double rho) const { return threshold + rho; }
};

struct PerQueryBars {
  static constexpr double threshold = 0.0;  // NoiseStage ignores it here
  const double* thresholds;

  PerQueryBars At(size_t offset) const { return {thresholds + offset}; }
  bool ChunkCanFire(const BoundPipeline&, double) const { return true; }
  bool SpanCanFire(BoundPipeline& pipe, size_t j, double rho) const {
    return pipe.SpanCanFirePerQuery(j, rho);
  }
  std::span<const double> Bars(size_t lo, size_t hi) const {
    return {thresholds + lo, hi - lo};
  }
  double BarOffset(double rho) const { return rho; }
};

template <class Bars>
size_t FindFirst(const Bars& bars, const double* a, const double* nu,
                 size_t lo, size_t hi, double rho) {
  return lo + vec::FindFirstGe(
                  {a + lo, hi - lo},
                  nu == nullptr ? std::span<const double>()
                                : std::span<const double>(nu + lo, hi - lo),
                  bars.Bars(lo, hi), bars.BarOffset(rho));
}

}  // namespace

void BatchRunner::CheckArgs(std::span<const double> answers,
                            const BoundPrefilter* prefilter) {
  if (prefilter != nullptr) {
    SVT_CHECK(prefilter->size() == answers.size())
        << "BoundPrefilter size " << prefilter->size()
        << " does not match answers size " << answers.size()
        << "; a prefilter may only attach to the arrays it was built over";
  }
}

void BatchRunner::CheckArgs(std::span<const double> answers,
                            std::span<const double> thresholds) {
  SVT_CHECK(answers.size() == thresholds.size())
      << "answers/thresholds size mismatch: " << answers.size() << " vs "
      << thresholds.size();
}

// The reserve grows the vector the way one resize by `count` would, to the
// larger of the need and twice the size: an exact reserve would make
// repeated appends quadratic.
Response* BatchRunner::ReserveAppend(std::vector<Response>* out,
                                     size_t count) {
  const size_t need = out->size() + count;
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->size()));
  }
  return out->data() + out->size();
}

BatchRunner::BatchRunner(const VariantSpec& spec, Rng* base_rng,
                         SvtRunState* state, size_t parallel_min_queries)
    : spec_(spec),
      base_rng_(base_rng),
      state_(state),
      parallel_min_queries_(parallel_min_queries) {
  SVT_CHECK(base_rng_ != nullptr);
  SVT_CHECK(state_ != nullptr);
}

bool BatchRunner::RunStageAhead(size_t total) const {
  return total >= parallel_min_queries_ && !ThreadPool::InParallelRegion() &&
         ThreadPool::Global().size() > 1;
}

// Scans one span (all pointers span-local, res pre-zeroed to ⊥) and writes
// positive responses in place. Returns the number of span elements
// processed: n unless the cutoff exhausted the run inside the span.
// `find_next(from, rho)` returns the first positive at or after `from`
// under threshold offset rho — index n if none — together with the ν that
// fired it (0.0 for the ν-free scans): a recorded hit's ν, or the chunk's
// ν block entry. Every path applies the exact streaming positive test,
// including for non-finite answers.
template <typename FindNext>
size_t BatchRunner::ScanChunk(const double* answers, size_t n,
                              FindNext find_next, Response* res) {
  const double rho0 = state_->rho;
  size_t i = 0;
  while (i < n) {
    // A resume under a resampled ρ (which compares against the ν block)
    // counts here, once, so the counter is independent of the dispatch
    // level.
    if (i > 0 && state_->rho != rho0) ++state_->batch.replay_rederivations;
    const vec::FusedScanHit hit = find_next(i, state_->rho);
    state_->processed += static_cast<int64_t>(hit.index - i);
    if (hit.index == n) return n;

    ++state_->processed;
    res[hit.index] =
        TakePositive(spec_, base_rng_, state_, answers[hit.index], hit.nu);
    i = hit.index + 1;
    if (state_->exhausted) return i;
  }
  return n;
}

size_t BatchRunner::Run(std::span<const double> answers, double threshold,
                        std::vector<Response>* out) {
  return Run(answers, threshold, /*prefilter=*/nullptr, out);
}

size_t BatchRunner::Run(std::span<const double> answers,
                        std::span<const double> thresholds,
                        std::vector<Response>* out) {
  CheckArgs(answers, thresholds);
  return RunBars(answers, PerQueryBars{thresholds.data()},
                 /*prefilter=*/nullptr, out);
}

size_t BatchRunner::Run(std::span<const double> answers, double threshold,
                        const BoundPrefilter* prefilter,
                        std::vector<Response>* out) {
  CheckArgs(answers, prefilter);
  return RunBars(answers, CommonBar{threshold}, prefilter, out);
}

template <typename Bars>
size_t BatchRunner::RunBars(std::span<const double> answers, Bars bars,
                            const BoundPrefilter* prefilter,
                            std::vector<Response>* out) {
  const size_t start = out->size();
  if (state_->exhausted || answers.empty()) return 0;
  const size_t total = answers.size();
  Response* const res = ReserveAppend(out, total);

  // ν-free specs (Alg. 5) draw no noise words and run no stage: the
  // dispatched compare-scan applies the exact streaming test.
  const bool nu_free = spec_.nu_scale <= 0.0;
  const bool ahead = !nu_free && RunStageAhead(total);
  const NoiseStage stage{spec_, answers, bars.thresholds, bars.threshold};
  ChunkFeed feed(stage, prefilter, total, ahead, state_);
  BatchRunStats* const stats = &state_->batch;

  for (size_t c = 0, done = 0; done < total; ++c, done += kChunkSize) {
    const size_t n = std::min(kChunkSize, total - done);
    const double* const a = answers.data() + done;
    const Bars chunk_bars = bars.At(done);
    AppendBelow(out, n);  // the chunk's responses, all ⊥
    if (nu_free) {
      const auto find_next = [&](size_t from, double rho) {
        return vec::FusedScanHit{
            FindFirst(chunk_bars, a, nullptr, from, n, rho), 0.0};
      };
      const size_t processed = ScanChunk(a, n, find_next, res + done);
      if (state_->exhausted) return Truncate(out, start, done + processed);
      continue;
    }
    ChunkNoise& rec = feed.Get(c, done, n);
    // The stage consumed the chunk's words, whichever way it took.
    state_->nu_rng.RestoreState(rec.end);
    if (rec.entry.phase != 0) ++stats->unaligned_chunks;
    // The stage's pipeline owns the bound chain (the tier-1 chunk and
    // tier-2 span tests): provably conservative, so a skip emits exactly
    // what the exact comparison would (proof in core/bound_pipeline.h),
    // and its decisions do not depend on which way the stage took.
    if (!chunk_bars.ChunkCanFire(*rec.pipe, state_->rho)) {
      // The tier-1 bound dominates every computed positive test, so a
      // skipped chunk cannot have recorded hits.
      SVT_DCHECK(!rec.fused || rec.found == 0);
      state_->processed += static_cast<int64_t>(n);  // res already ⊥
      ++stats->tier1_chunks_skipped;
      feed.Done(c, rec);
      continue;
    }
    ++stats->tier2_chunks_scanned;
    // Tier 2: the ρ-free span bounds skip most spans of a near-threshold
    // chunk. A surviving span replays the chunk's complete fused record,
    // which exists only while ρ cannot move, so its next recorded hit is
    // the next positive. Otherwise it compares against the chunk's ν
    // block, transformed whole when first needed. A span holding a
    // positive always passes its bound, so the counters do not depend on
    // which way a span was scanned.
    const bool cached = rec.complete();
    size_t next = 0;  // first recorded hit not behind the walk
    const auto find_next = [&](size_t from, double rho) {
      const auto can_fire = [&](size_t j) {
        return chunk_bars.SpanCanFire(*rec.pipe, j, rho);
      };
      const auto scan = [&](size_t lo, size_t hi) -> vec::FusedScanHit {
        if (cached) {
          while (next < rec.found && rec.hits[next].index < lo) ++next;
          if (next < rec.found && rec.hits[next].index < hi) {
            return rec.hits[next];
          }
          return {hi, 0.0};
        }
        const double* nu = rec.Nu();
        const size_t i = FindFirst(chunk_bars, a, nu, lo, hi, rho);
        return {i, i < hi ? nu[i] : 0.0};
      };
      return WalkSpans(from, n, stats, can_fire, scan);
    };
    const size_t chunk_processed = ScanChunk(a, n, find_next, res + done);
    feed.Done(c, rec);
    if (state_->exhausted) return Truncate(out, start, done + chunk_processed);
  }
  return total;
}

}  // namespace svt
