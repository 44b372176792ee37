#include "core/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <optional>
#include <string_view>
#include <type_traits>

#include "common/check.h"
#include "common/distributions.h"
#include "common/vecmath.h"
#include "core/bound_pipeline.h"
#include "data/bound_prefilter.h"

namespace svt {

bool ParseBatchKernelMode(std::string_view value, BatchKernelMode* mode) {
  SVT_CHECK(mode != nullptr);
  if (value == "megakernel") {
    *mode = BatchKernelMode::kMegakernel;
    return true;
  }
  if (value == "composition") {
    *mode = BatchKernelMode::kComposition;
    return true;
  }
  return false;
}

namespace {

BatchKernelMode InitialKernelMode() {
  const char* env = std::getenv("SVT_BATCH_KERNELS");
  if (env == nullptr) return BatchKernelMode::kMegakernel;
  BatchKernelMode mode = BatchKernelMode::kMegakernel;
  if (!ParseBatchKernelMode(env, &mode)) {
    // Latched once (KernelModeVar's function-local static), so an
    // unrecognized value warns exactly once per process.
    std::cerr << "svt: unrecognized SVT_BATCH_KERNELS value '" << env
              << "'; falling back to 'megakernel'\n";
  }
  return mode;
}

std::atomic<int>& KernelModeVar() {
  static std::atomic<int> mode{static_cast<int>(InitialKernelMode())};
  return mode;
}

static_assert(Response{}.outcome == Outcome::kBelow,
              "value-initialized Response must be ⊥: the batch engine emits "
              "⊥ runs via zero-initializing resize");

static_assert(BatchRunner::kChunkSize / BatchRunner::kBoundSpan <=
                  BoundPipeline::kMaxSpans,
              "BoundPipeline's static span plan must cover a full chunk");
static_assert(BatchRunner::kFusedSubBlock % BatchRunner::kBoundSpan == 0,
              "per-query sub-blocks must align on bound-span boundaries so "
              "sub-block span indices map onto the chunk's BoundPipeline "
              "plan");

// Streaming-identical single draw of a role's noise kind (the batch slow
// path at positives must consume the base stream exactly as Process()
// would — core/svt.h contract step 3).
double SampleNoise(Rng& rng, NoiseKind kind, double scale) {
  switch (kind) {
    case NoiseKind::kLaplace:
      return SampleLaplace(rng, scale);
    case NoiseKind::kExponential:
      return SampleExponential(rng, scale);
  }
  SVT_CHECK(false) << "unknown NoiseKind";
  return 0.0;
}

// Raw 64-bit words one ν variate consumes — the distribution-traits knob
// that threads the noise axis through the fill sizes, the bound pipeline's
// word reduction stride, and the fused-kernel spans below. Laplace: 2
// (magnitude word + sign word). Exponential: 1 (one-sided, no sign word).
size_t WordsPerVariate(NoiseKind kind) {
  return kind == NoiseKind::kExponential ? 1 : 2;
}

// Block form of SampleNoise: out[i] is the variate SampleNoise would draw
// from words [i * WordsPerVariate(kind), ...), through the same
// distribution's TransformBlock, which equals its Sample() loop bit for bit
// (contract step 4).
void TransformNoise(NoiseKind kind, std::span<const uint64_t> words,
                    double scale, std::span<double> out) {
  if (kind == NoiseKind::kExponential) {
    Exponential::FromScale(scale).TransformBlock(words, out);
  } else {
    Laplace::Centered(scale).TransformBlock(words, out);
  }
}

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

// Makes room for `count` more responses and returns where they start. The
// reserve grows the vector the way one resize by `count` would, to the
// larger of the need and twice the size (an exact reserve would make
// repeated appends quadratic); the caller then resizes chunk by chunk, so
// the ⊥ zero-fill of each chunk lands just before the chunk is scanned.
Response* ReserveAppend(std::vector<Response>* out, size_t count) {
  const size_t need = out->size() + count;
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->size()));
  }
  return out->data() + out->size();
}

// The megakernel walk's per-chunk ν block: span j's ν are transformed from
// the chunk's words the first time a resume walk needs the span, and every
// later resume in the chunk, under whatever bar ρ has moved to, only
// compares. The transform is the streaming sampler's, so the ν are the ones
// a Process() loop draws from the same words (core/svt.h, contract
// step 4).
class SpanNuBlock {
 public:
  SpanNuBlock(NoiseKind kind, double scale, const uint64_t* words)
      : kind_(kind), scale_(scale), words_(words) {}

  // Starts a chunk (or per-query sub-block) of n elements: no span filled.
  void Reset(size_t n) {
    n_ = n;
    filled_ = 0;
  }

  // Returns the block, indexed by chunk element, with span j filled.
  const double* Fill(size_t j) {
    if ((filled_ >> j & 1) == 0) {
      const size_t s = j * BatchRunner::kBoundSpan;
      const size_t m = std::min(BatchRunner::kBoundSpan, n_ - s);
      const size_t wpv = WordsPerVariate(kind_);
      TransformNoise(kind_, {words_ + wpv * s, wpv * m}, scale_, {nu_ + s, m});
      filled_ |= uint32_t{1} << j;
    }
    return nu_;
  }

 private:
  static_assert(BatchRunner::kChunkSize / BatchRunner::kBoundSpan <= 32,
                "one mask bit per span");
  const NoiseKind kind_;
  const double scale_;
  const uint64_t* const words_;
  size_t n_ = 0;
  uint32_t filled_ = 0;
  alignas(64) double nu_[BatchRunner::kChunkSize];
};

// The tier-2 resume walk of every arm, from element `from` of an n-element
// chunk (or sub-block). A resume lands mid-span only after a positive in
// that span, which passed its bound to fire at all; the span's remainder
// is scanned without a new test, and the walk re-anchors on the span grid.
// Each whole span is scanned only when can_fire(j), the pipeline's span
// test (which counts the skips). Every scanned segment counts one
// tier2_fused_segments. scan(lo, hi) returns the first positive in
// [lo, hi), or index hi when there is none.
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

}  // namespace

BatchKernelMode ActiveBatchKernelMode() {
  return static_cast<BatchKernelMode>(
      KernelModeVar().load(std::memory_order_relaxed));
}

void SetBatchKernelMode(BatchKernelMode mode) {
  KernelModeVar().store(static_cast<int>(mode), std::memory_order_relaxed);
}

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
                            std::span<const double> thresholds,
                            const BoundPrefilter* prefilter) {
  SVT_CHECK(answers.size() == thresholds.size())
      << "answers/thresholds size mismatch: " << answers.size() << " vs "
      << thresholds.size();
  CheckArgs(answers, prefilter);
  if (prefilter != nullptr) {
    SVT_CHECK(prefilter->has_thresholds())
        << "per-query-threshold runs need a prefilter built with the "
           "two-array Build(answers, thresholds)";
  }
}

BatchRunner::BatchRunner(const VariantSpec& spec, Rng* base_rng,
                         SvtRunState* state)
    : spec_(spec), base_rng_(base_rng), state_(state) {
  SVT_CHECK(base_rng_ != nullptr);
  SVT_CHECK(state_ != nullptr);
}

// Builds the positive Response for `answer` whose comparison noise was
// `nu_j`, updating counters, cutoff, and (for Alg. 2) ρ — in the exact
// order of the streaming Process() slow path.
Response BatchRunner::MakePositiveResponse(double answer, double nu_j) {
  ++state_->processed;
  ++state_->positives;
  if (spec_.cutoff.has_value() && state_->positives >= *spec_.cutoff) {
    state_->exhausted = true;
  }
  if (spec_.resample_rho_after_positive) {
    state_->rho =
        SampleNoise(*base_rng_, spec_.rho_kind, spec_.rho_resample_scale);
  }
  if (spec_.output_query_value_on_positive) {
    return Response::AboveValue(answer + nu_j);
  }
  if (spec_.numeric_scale > 0.0) {
    return Response::AboveValue(answer +
                                SampleLaplace(*base_rng_, spec_.numeric_scale));
  }
  return Response::Above();
}

// Scans one span (all pointers span-local, res pre-zeroed to ⊥) and writes
// positive responses in place. Returns the number of span elements
// processed: n unless the cutoff exhausted the run inside the span.
// `find_next(from, rho)` returns the first positive at or after `from`
// under threshold offset rho — index n if none — together with the ν that
// fired it (0.0 for the ν-free scans). The fused paths compute that ν in
// the same register pass as the compare; every path applies the exact
// streaming positive test, including for non-finite answers.
template <typename FindNext>
size_t BatchRunner::ScanChunk(const double* answers, size_t n,
                              FindNext find_next, Response* res) {
  const double rho0 = state_->rho;
  size_t i = 0;
  while (i < n) {
    // Resume under a resampled ρ: whatever find_next does about it —
    // cached-hit revalidation or a compare over the ν block — counts here,
    // once, so the counter is kernel-mode- and dispatch-independent.
    if (i > 0 && state_->rho != rho0) ++state_->batch.replay_rederivations;
    const vec::FusedScanHit hit = find_next(i, state_->rho);
    state_->processed += static_cast<int64_t>(hit.index - i);
    if (hit.index == n) return n;

    res[hit.index] = MakePositiveResponse(answers[hit.index], hit.nu);
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
  return Run(answers, thresholds, /*prefilter=*/nullptr, out);
}

size_t BatchRunner::Run(std::span<const double> answers, double threshold,
                        const BoundPrefilter* prefilter,
                        std::vector<Response>* out) {
  CheckArgs(answers, prefilter);
  const size_t start = out->size();
  if (state_->exhausted || answers.empty()) return 0;
  const size_t total = answers.size();
  Response* const res = ReserveAppend(out, total);

  const bool has_nu = spec_.nu_scale > 0.0;
  const bool mega = ActiveBatchKernelMode() == BatchKernelMode::kMegakernel;
  const size_t wpv = WordsPerVariate(spec_.nu_kind);
  const bool exp_nu = spec_.nu_kind == NoiseKind::kExponential;
  const double nu_scale = spec_.nu_scale;
  // Cache-line-aligned so the 512-bit loads of the bound-pipeline word
  // reduction and the fused scan kernels never split lines.
  alignas(64) uint64_t words[2 * kChunkSize];
  SVT_DCHECK(reinterpret_cast<uintptr_t>(words) % 64 == 0);
  // The single bound implementation: every skip decision below — tier-1
  // chunk test, tier-2 span tests, the megakernels' skip-word inputs —
  // comes out of this pipeline (core/bound_pipeline.h), at the quantized
  // level when a prefilter is attached and the gate is on, at full
  // precision otherwise.
  BoundPipeline pipe(has_nu ? prefilter : nullptr, nu_scale, kBoundSpan,
                     &state_->batch);
  // Megakernel scratch: the fused pass's recorded hits and the ν block,
  // each written before it is read.
  constexpr size_t kMaxChunkHits = kChunkSize / 16;
  UninitArray<vec::FusedScanHit, kMaxChunkHits> hits;
  SpanNuBlock nu_block(spec_.nu_kind, nu_scale, words);
  BatchRunStats* const stats = &state_->batch;

  size_t done = 0;
  while (done < total) {
    const size_t n = std::min(kChunkSize, total - done);
    const double* const a = answers.data() + done;
    out->resize(start + done + n);  // the chunk's responses, all ⊥
    size_t chunk_processed = n;
    if (!has_nu) {
      const auto find_next = [a, n, threshold](size_t from, double rho) {
        return vec::FusedScanHit{
            from + vec::FindFirstGe({a + from, n - from}, threshold + rho),
            0.0};
      };
      chunk_processed = ScanChunk(a, n, find_next, res + done);
    } else {
      pipe.BeginChunk(a, /*thresholds=*/nullptr, done, n);
      const double bar0 = threshold + state_->rho;
      // The megakernel arm's fused pass generates the chunk's ν words in
      // registers (the lane-resident xoshiro step), reduces them to the
      // per-span minima the bounds need and records every element that
      // fires under bar0, transforming only the lockstep groups the chunk
      // skip word cannot discharge; the words never touch memory. It runs
      // only where that record stays valid and cheap: the bar never moves
      // (a spec that resamples ρ leaves bar0 at its first positive), and
      // a sound skip word exists (without one — some answer at or above
      // the bar — it would transform every word of a chunk a cutoff may
      // never need). Any upper bound on the answers is a sound skip-word
      // input (vec::MegaSkipWordThreshold), so the pipeline's chunk upper,
      // quantized or exact, feeds it directly.
      const uint64_t chunk_skip = mega && !spec_.resample_rho_after_positive
                                      ? pipe.ChunkSkipWord(bar0)
                                      : vec::kMegaNeverSkipWord;
      const bool fused_scan = chunk_skip < vec::kMegaNeverSkipWord;
      const BlockRng::State entry = state_->nu_rng.state();
      uint64_t span_min[kChunkSize / kBoundSpan];
      size_t found = 0;
      if (fused_scan) {
        BlockRng::State end_state = entry;
        uint64_t w_min_unused;
        found = exp_nu ? vec::MegaExpFillMinScanSpans(
                             &end_state, nu_scale, {a, n}, bar0, chunk_skip,
                             kBoundSpan, span_min, hits.data(), kMaxChunkHits,
                             &w_min_unused)
                       : vec::MegaLaplaceFillMinScanSpans(
                             &end_state, 0.0, nu_scale, {a, n}, bar0,
                             chunk_skip, kBoundSpan, span_min, hits.data(),
                             kMaxChunkHits, &w_min_unused);
        // The pass consumed the chunk's words: the substream stands where
        // the fill below would leave it.
        state_->nu_rng.RestoreState(end_state);
      } else {
        // Fetch the chunk's raw ν words — the substream advances exactly
        // as if each ν_i had been drawn scalar-style (Laplace variates are
        // (magnitude, sign) pairs, exponential variates one magnitude
        // word) — and reduce each span's magnitude words to its minimum.
        state_->nu_rng.FillUint64({words, wpv * n});
        for (size_t s = 0; s < n; s += kBoundSpan) {
          const size_t m = std::min(kBoundSpan, n - s);
          span_min[s / kBoundSpan] =
              vec::MinWordBlock({words + wpv * s, wpv * m}, wpv);
        }
      }
      // The pipeline reduces the span minima to the chunk minimum
      // (unsigned min is association-free, so both ways give the same
      // word) and owns the bound chain from here: the tier-1 all-⊥
      // shortcut and the per-span tier-2 tests, each a monotone rounded
      // chain over these minima and the chunk's score uppers — provably
      // conservative, so a skip emits exactly what the exact comparison
      // would (proof in core/bound_pipeline.h). Identical inputs give
      // identical skip decisions and counters in both kernel modes.
      pipe.SetNoiseMinima(span_min);
      if (!pipe.ChunkCanFire(bar0)) {
        // The tier-1 bound dominates every computed positive test, so a
        // skipped chunk cannot have recorded hits.
        SVT_DCHECK(found == 0);
        state_->processed += static_cast<int64_t>(n);  // res already ⊥
        ++state_->batch.tier1_chunks_skipped;
      } else {
        // Tier-2: the chunk-level bound failed, but the same conservative
        // argument re-applies per kBoundSpan span, where the max |ν| over
        // far fewer draws is much smaller — in near-threshold workloads
        // most spans still prove all-⊥ and are never transformed. The
        // span bounds are ρ-free, so they survive ρ resampling. A span
        // that survives is scanned in one of three ways:
        //   * composition mode: the fused kernel transforms the span's
        //     words and tests the positive condition in one register pass;
        //   * megakernel, complete fused record (the bar is still bar0):
        //     the span's positives are already in hand — an unrecorded
        //     element failed its computed test or was word-skipped under a
        //     threshold sound for bar0, and a recorded hit carries the
        //     bit-identical ν a rescan would compute;
        //   * megakernel otherwise (ρ resampled, no skip word, or the
        //     record overflowed): a compare over the chunk's ν block,
        //     whose span is transformed the first time the walk needs it,
        //     so every later resume in the chunk only compares. An
        //     overflowed chunk first regenerates its words, once, from the
        //     chunk-entry state.
        // A span holding a positive always passes its bound (the bound
        // chain dominates every computed test), so the counters do not
        // depend on which way a span was scanned.
        ++state_->batch.tier2_chunks_scanned;
        const bool cache_complete = fused_scan && found <= kMaxChunkHits;
        bool have_words = !fused_scan;
        nu_block.Reset(n);
        size_t next = 0;  // first recorded hit not behind the walk
        const auto find_next = [&](size_t from, double rho) {
          const double bar = threshold + rho;
          const auto can_fire = [&](size_t j) {
            return pipe.SpanCanFire(j, bar);
          };
          const auto scan = [&](size_t lo, size_t hi) -> vec::FusedScanHit {
            const size_t m = hi - lo;
            if (!mega) {
              const vec::FusedScanHit hit =
                  exp_nu ? vec::FusedExpScanSumGe({words + lo, m}, nu_scale,
                                                  {a + lo, m}, bar)
                         : vec::FusedLaplaceScanSumGe(
                               {words + 2 * lo, 2 * m}, 0.0, nu_scale,
                               {a + lo, m}, bar);
              return {lo + hit.index, hit.nu};
            }
            if (cache_complete) {
              while (next < found && hits[next].index < lo) ++next;
              if (next < found && hits[next].index < hi) return hits[next];
              return {hi, 0.0};
            }
            if (!have_words) {
              BlockRng(entry).Fill({words, wpv * n});
              have_words = true;
            }
            const double* nu = nu_block.Fill(lo / kBoundSpan);
            const size_t i =
                lo + vec::FindFirstSumGe({a + lo, m}, {nu + lo, m}, bar);
            return {i, i < hi ? nu[i] : 0.0};
          };
          return WalkSpans(from, n, stats, can_fire, scan);
        };
        chunk_processed = ScanChunk(a, n, find_next, res + done);
      }
    }
    if (state_->exhausted) {
      const size_t emitted = done + chunk_processed;
      out->resize(start + emitted);
      return emitted;
    }
    done += n;
  }
  return total;
}

size_t BatchRunner::Run(std::span<const double> answers,
                        std::span<const double> thresholds,
                        const BoundPrefilter* prefilter,
                        std::vector<Response>* out) {
  CheckArgs(answers, thresholds, prefilter);
  const size_t start = out->size();
  if (state_->exhausted || answers.empty()) return 0;
  const size_t total = answers.size();
  Response* const res = ReserveAppend(out, total);

  const bool has_nu = spec_.nu_scale > 0.0;
  const bool mega = ActiveBatchKernelMode() == BatchKernelMode::kMegakernel;
  const size_t wpv = WordsPerVariate(spec_.nu_kind);
  const bool exp_nu = spec_.nu_kind == NoiseKind::kExponential;
  const double nu_scale = spec_.nu_scale;
  // Per-query scratch: one sub-block of raw ν words, cache-line-aligned.
  // There is no tier-1 chunk bound to feed (a single common bar does not
  // exist), so nothing forces a whole-chunk prefetch — the words are
  // pulled through the bounded fill hook in L1-sized pieces and consumed
  // by the fused scan while still hot.
  alignas(64) uint64_t words[2 * kFusedSubBlock];
  SVT_DCHECK(reinterpret_cast<uintptr_t>(words) % 64 == 0);
  // The per-query bound level: per span, the pipeline holds an upper
  // bound on the answers AND a lower bound on the thresholds, and a span
  // is skipped when fl(score_up + ν_bound) < fl(bar_down + ρ) — the same
  // monotone chain as the common-threshold tiers, pairwise-safe because
  // the bar lower bounds every bar in the span (proof in
  // core/bound_pipeline.h). Before the pipeline this path had no bound at
  // all and scanned every element.
  BoundPipeline pipe(has_nu ? prefilter : nullptr, nu_scale, kBoundSpan,
                     &state_->batch);
  // Megakernel scratch, as in the common-threshold Run.
  constexpr size_t kMaxSubHits = kFusedSubBlock / 16;
  UninitArray<vec::FusedScanHit, kMaxSubHits> hits;
  SpanNuBlock nu_block(spec_.nu_kind, nu_scale, words);
  BatchRunStats* const stats = &state_->batch;

  size_t done = 0;
  while (done < total) {
    const size_t n = std::min(kChunkSize, total - done);
    const double* const a = answers.data() + done;
    const double* const t = thresholds.data() + done;
    out->resize(start + done + n);  // the chunk's responses, all ⊥
    size_t chunk_processed = n;
    if (!has_nu) {
      // ν-free per-query scan (Alg. 5): no noise words — nothing to fuse;
      // the dispatched pairwise compare-scan applies the exact streaming
      // positive test (each side one rounded add, ordered >=).
      const auto find_next = [a, t, n](size_t from, double rho) {
        return vec::FusedScanHit{
            from + vec::FindFirstGePairwise({a + from, n - from},
                                            {t + from, n - from}, rho),
            0.0};
      };
      chunk_processed = ScanChunk(a, n, find_next, res + done);
    } else {
      // Fused per-query tier-2: the chunk's substream words are consumed
      // sub-block by sub-block — the same words in the same order a
      // scalar draw loop consumes, so a completed chunk leaves the
      // substream at the identical position.
      ++state_->batch.tier2_chunks_scanned;
      pipe.BeginChunk(a, t, done, n);
      size_t sub = 0;
      while (sub < n) {
        const size_t m = std::min(kFusedSubBlock, n - sub);
        ++stats->tier2_fused_subblocks;
        const double* const a_sub = a + sub;
        const double* const t_sub = t + sub;
        const size_t first_span = sub / kBoundSpan;
        const size_t sub_nspans = (m + kBoundSpan - 1) / kBoundSpan;
        // The pipeline's span plan (each span's answer-max paired with its
        // bar-min, quantized or exact) yields a per-span skip-word vector
        // at the sub-block-entry ρ, derivable before any words are drawn.
        const double rho0 = state_->rho;
        uint64_t skip_words[kFusedSubBlock / kBoundSpan];
        bool any_skip = false;
        for (size_t k = 0; k < sub_nspans; ++k) {
          skip_words[k] = pipe.SpanSkipWordPerQuery(first_span + k, rho0);
          any_skip = any_skip || skip_words[k] < vec::kMegaNeverSkipWord;
        }
        // When some span's word threshold can discharge at all, the
        // megakernel prepass is the fused pairwise generate-bound-and-scan:
        // one pass steps the lanes through the sub-block, records the
        // per-span magnitude minima (the pipeline's ν-bound inputs) AND
        // every element whose pairwise positive test fires at ρ0, skipping
        // the transform for every word its span's threshold discharges
        // (counted element-granular in mega_words_skipped_q). When no span
        // has a finite skip word (hit-dense sub-block), the fused scan
        // would transform everything for positives a cutoff may never
        // need, so the words are fetched as the composition does.
        const bool fused_scan = mega && any_skip;
        const BlockRng::State entry = state_->nu_rng.state();
        uint64_t span_min[kFusedSubBlock / kBoundSpan];
        size_t found = 0;
        if (fused_scan) {
          BlockRng::State end_state = entry;
          uint64_t skipped = 0;
          found = exp_nu ? vec::MegaExpFillMinScanSpansPairwise(
                               &end_state, nu_scale, {a_sub, m}, {t_sub, m},
                               rho0, skip_words, kBoundSpan, span_min,
                               hits.data(), kMaxSubHits, &skipped)
                         : vec::MegaLaplaceFillMinScanSpansPairwise(
                               &end_state, 0.0, nu_scale, {a_sub, m},
                               {t_sub, m}, rho0, skip_words, kBoundSpan,
                               span_min, hits.data(), kMaxSubHits, &skipped);
          stats->mega_words_skipped_q += static_cast<int64_t>(skipped);
          // The prepass consumed exactly m·wpv words, so the substream
          // stands at the sub-block end whatever the walk later skips.
          state_->nu_rng.RestoreState(end_state);
        } else {
          size_t filled = 0;
          while (filled < wpv * m) {
            filled += state_->nu_rng.FillUint64Bounded(
                {words + filled, wpv * m - filled});
          }
          // Same per-span minima as the prepass records (same words, and
          // unsigned min is association-free) — skip decisions and
          // counters stay equal between the modes bit for bit. The
          // skipped-word count mirrors the prepass's over the same words
          // and skip words (never-skip spans contribute zero, as inside
          // the fused lanes), so the counter is kernel-mode-independent.
          uint64_t skipped = 0;
          for (size_t k = 0; k < sub_nspans; ++k) {
            const size_t s = k * kBoundSpan;
            const std::span<const uint64_t> span_words{
                words + wpv * s, wpv * std::min(kBoundSpan, m - s)};
            span_min[k] = vec::MinWordBlock(span_words, wpv);
            skipped += vec::SkipWordCountBlock(span_words, wpv, skip_words[k]);
          }
          stats->mega_words_skipped_q += static_cast<int64_t>(skipped);
        }
        pipe.SetSpanNoiseMinima(span_min, first_span, sub_nspans);

        // Surviving spans scan as in the common arm, with one difference:
        // the recorded hits stay usable while ρ >= ρ0. fl(t_i + ρ) is
        // monotone in ρ, so an element that failed its computed test at
        // ρ0 fails at ρ, and a span skip word derived against
        // fl(bar_min + ρ0) stays sound (see SpanSkipWordPerQuery); a
        // recorded hit carries the bit-identical ν a rescan would
        // compute, so re-testing it against fl(t_i + ρ) IS the rescan's
        // computed test.
        const bool cache_complete = fused_scan && found <= kMaxSubHits;
        bool have_words = !fused_scan;
        nu_block.Reset(m);
        size_t next = 0;  // first recorded hit not behind the walk
        const auto find_next = [&](size_t from, double rho) {
          const auto can_fire = [&](size_t j) {
            return pipe.SpanCanFirePerQuery(first_span + j, rho);
          };
          const bool cached = cache_complete && rho >= rho0;
          const auto scan = [&](size_t lo, size_t hi) -> vec::FusedScanHit {
            const size_t mm = hi - lo;
            if (!mega) {
              const vec::FusedScanHit hit =
                  exp_nu ? vec::FusedExpScanSumGePairwise(
                               {words + lo, mm}, nu_scale, {a_sub + lo, mm},
                               {t_sub + lo, mm}, rho)
                         : vec::FusedLaplaceScanSumGePairwise(
                               {words + 2 * lo, 2 * mm}, 0.0, nu_scale,
                               {a_sub + lo, mm}, {t_sub + lo, mm}, rho);
              return {lo + hit.index, hit.nu};
            }
            if (cached) {
              while (next < found && hits[next].index < lo) ++next;
              for (size_t k = next; k < found && hits[k].index < hi; ++k) {
                const size_t i = hits[k].index;
                if (rho == rho0 || a_sub[i] + hits[k].nu >= t_sub[i] + rho) {
                  return hits[k];
                }
              }
              return {hi, 0.0};
            }
            if (!have_words) {
              BlockRng(entry).Fill({words, wpv * m});
              have_words = true;
            }
            const double* nu = nu_block.Fill(lo / kBoundSpan);
            const size_t i = lo + vec::FindFirstSumGePairwise(
                                      {a_sub + lo, mm}, {nu + lo, mm},
                                      {t_sub + lo, mm}, rho);
            return {i, i < hi ? nu[i] : 0.0};
          };
          return WalkSpans(from, m, stats, can_fire, scan);
        };
        const size_t sub_processed =
            ScanChunk(a_sub, m, find_next, res + done + sub);
        if (state_->exhausted) {
          chunk_processed = sub + sub_processed;
          break;
        }
        sub += m;
      }
    }
    if (state_->exhausted) {
      const size_t emitted = done + chunk_processed;
      out->resize(start + emitted);
      return emitted;
    }
    done += n;
  }
  return total;
}

bool BatchRunner::CanBatchTrials(const VariantSpec& spec, size_t window) {
  const bool draws_at_positive =
      spec.resample_rho_after_positive ||
      (!spec.output_query_value_on_positive && spec.numeric_scale > 0.0);
  return window < kStreamingCutover && !draws_at_positive;
}

size_t BatchRunner::RunTrials(std::span<const double> window,
                              double threshold, int64_t trials,
                              std::vector<Response>* out,
                              std::vector<size_t>* counts) {
  SVT_CHECK(CanBatchTrials(spec_, window.size()));
  const size_t start = out->size();
  if (trials <= 0) return 0;
  const size_t n = window.size();
  const size_t rho_words = WordsPerVariate(spec_.rho_kind);
  // Each run's base-stream slice: its ρ variate, then its ν seed word
  // (contract step 1). Nothing else touches the base stream.
  const size_t stride = rho_words + 1;
  const bool has_nu = spec_.nu_scale > 0.0;
  const size_t nu_words = has_nu ? n * WordsPerVariate(spec_.nu_kind) : 0;
  const std::optional<int> cutoff = spec_.cutoff;
  const bool emit_value = spec_.output_query_value_on_positive;

  constexpr size_t kMaxWindow = kStreamingCutover - 1;
  alignas(64) uint64_t base[3 * kTrialBlock];
  alignas(64) uint64_t rho_w[2 * kTrialBlock];
  alignas(64) uint64_t seeds[kTrialBlock];
  alignas(64) uint64_t nu_w[2 * kMaxWindow * kTrialBlock];
  alignas(64) double rho[kTrialBlock];
  alignas(64) double nu[kMaxWindow * kTrialBlock];

  // The last run's state, left behind as its Reset + RunAppend would.
  size_t m = 0, i = 0;
  int positives = 0;
  bool exhausted = false;
  for (int64_t done = 0; done < trials; done += static_cast<int64_t>(m)) {
    m = static_cast<size_t>(std::min<int64_t>(kTrialBlock, trials - done));
    base_rng_->FillUint64({base, m * stride});
    for (size_t r = 0; r < m; ++r) {
      const uint64_t* slice = base + r * stride;
      std::copy_n(slice, rho_words, rho_w + r * rho_words);
      seeds[r] = slice[rho_words];
    }
    TransformNoise(spec_.rho_kind, {rho_w, m * rho_words}, spec_.rho_scale,
                   {rho, m});
    if (has_nu) {
      // Each run's ν substream from its start: BlockRng(seed) then the
      // window's words, for the whole block at once.
      BlockRng::FillSeeded({seeds, m}, nu_words, {nu_w, m * nu_words});
      TransformNoise(spec_.nu_kind, {nu_w, m * nu_words}, spec_.nu_scale,
                     {nu, m * n});
    }

    // The comparisons, in Process() order and with its exact expressions.
    const size_t emitted = out->size();
    out->resize(emitted + m * n);
    Response* res = out->data() + emitted;
    for (size_t r = 0; r < m; ++r) {
      const double bar = threshold + rho[r];
      const double* nu_r = nu + r * n;
      positives = 0;
      exhausted = false;
      for (i = 0; i < n && !exhausted; ++i) {
        const double nu_i = has_nu ? nu_r[i] : 0.0;
        if (window[i] + nu_i >= bar) {
          ++positives;
          exhausted = cutoff.has_value() && positives >= *cutoff;
          *res++ = emit_value ? Response::AboveValue(window[i] + nu_i)
                              : Response::Above();
        } else {
          *res++ = Response::Below();
        }
      }
      counts->push_back(i);
    }
    out->resize(static_cast<size_t>(res - out->data()));
  }

  state_->rho = rho[m - 1];
  state_->nu_rng = Rng(seeds[m - 1]);
  if (has_nu) {
    for (size_t w = 0; w < i * WordsPerVariate(spec_.nu_kind); ++w) {
      state_->nu_rng.NextUint64();
    }
  }
  state_->positives = positives;
  state_->processed = static_cast<int64_t>(i);
  state_->exhausted = exhausted;
  state_->batch = BatchRunStats{};
  state_->batch.streamed_queries = static_cast<int64_t>(i);
  return out->size() - start;
}

}  // namespace svt
