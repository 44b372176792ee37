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
    // cached-hit revalidation or a checkpoint rescan — counts here, once,
    // so the counter is kernel-mode- and dispatch-independent.
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
  // Zero-initializing resize writes the whole output as ⊥ in one memset;
  // only positives are assigned afterwards. Shrunk again on early abort.
  out->resize(start + total);
  Response* const res = out->data() + start;

  const bool has_nu = spec_.nu_scale > 0.0;
  // Cache-line-aligned so the 512-bit loads of the bound-pipeline word
  // reduction and the fused scan kernels never split lines.
  alignas(64) uint64_t words[2 * kChunkSize];
  SVT_DCHECK(reinterpret_cast<uintptr_t>(words) % 64 == 0);
  // The single bound implementation: every skip decision below — tier-1
  // chunk test, tier-2 span tests, the megakernels' skip-word inputs —
  // comes out of this pipeline (core/bound_pipeline.h), at the quantized
  // level when a prefilter is attached and the gate is on, at full
  // precision otherwise.
  BoundPipeline pipe(has_nu ? prefilter : nullptr, spec_.nu_scale, kBoundSpan,
                     &state_->batch);
  // Megakernel-arm scratch: span-entry checkpoints and the fused pass's
  // recorded hits, written by the pass before the walk reads them.
  constexpr size_t kMaxChunkHits = kChunkSize / 16;
  UninitArray<BlockRng::State, kChunkSize / kBoundSpan> span_states;
  UninitArray<vec::FusedScanHit, kMaxChunkHits> hits;

  size_t done = 0;
  while (done < total) {
    const size_t n = std::min(kChunkSize, total - done);
    const double* const a = answers.data() + done;
    size_t chunk_processed = n;
    if (!has_nu) {
      const auto find_next = [a, n, threshold](size_t from, double rho) {
        return vec::FusedScanHit{
            from + vec::FindFirstGe({a + from, n - from}, threshold + rho),
            0.0};
      };
      chunk_processed = ScanChunk(a, n, find_next, res + done);
    } else if (ActiveBatchKernelMode() == BatchKernelMode::kMegakernel) {
      // Lane-resident path: one generate-bound-and-scan megakernel pass
      // replaces the chunk prefetch — the raw ν words are produced,
      // reduced, tested, and discarded without ever touching memory. The
      // fused pass steps the ν substream's four xoshiro lanes in
      // registers and returns the chunk-wide magnitude minimum (the
      // tier-1 input), the tier-2 hierarchy's per-span minima, a
      // BlockRng::State checkpoint at every span entry, and — when the
      // chunk's word threshold can discharge skipping at all — every
      // element whose positive test fires under the chunk-entry bar, in
      // index order. The substream is then restored to the chunk-end
      // position, exactly where the composition's whole-chunk FillUint64
      // leaves it, positives or not. Every bound-chain input is the same
      // word the composition reads (unsigned min is association-free)
      // and the recorded hits are the same computed tests the
      // composition's scans apply, so skip decisions, tier counters, and
      // emitted responses agree between the modes bit for bit —
      // equivalence-tested in core_batch_runner_test.cc.
      const size_t wpv = WordsPerVariate(spec_.nu_kind);
      const bool exp_nu = spec_.nu_kind == NoiseKind::kExponential;
      uint64_t span_min[kChunkSize / kBoundSpan];

      pipe.BeginChunk(a, /*thresholds=*/nullptr, done, n);
      const double nu_scale = spec_.nu_scale;
      const double bar0 = threshold + state_->rho;
      // Any upper bound on the chunk's answers is a sound skip-word input
      // (vec::MegaSkipWordThreshold contract), so the pipeline's chunk
      // upper — quantized or exact — feeds it directly.
      const uint64_t chunk_skip = pipe.ChunkSkipWord(bar0);
      // When no sound chunk-wide word threshold exists (some answer is at
      // or above the bar), the fused scan would degenerate into a full
      // per-element transform of draws a hit-dense chunk may never need;
      // generate-and-bound alone plus the checkpoint walk handles that
      // regime better, so the scan only rides along when it is cheap.
      const bool fused_scan = chunk_skip < vec::kMegaNeverSkipWord;
      size_t found = 0;
      uint64_t w_min_unused;
      BlockRng::State end_state = state_->nu_rng.state();
      if (fused_scan) {
        found = exp_nu ? vec::MegaExpFillMinScanSpans(
                             &end_state, nu_scale, {a, n}, bar0, chunk_skip,
                             kBoundSpan, span_min, span_states.data(),
                             hits.data(), kMaxChunkHits, &w_min_unused)
                       : vec::MegaLaplaceFillMinScanSpans(
                             &end_state, 0.0, nu_scale, {a, n}, bar0,
                             chunk_skip, kBoundSpan, span_min,
                             span_states.data(), hits.data(), kMaxChunkHits,
                             &w_min_unused);
      } else {
        vec::MegaFillMinSpans(&end_state, n, wpv, kBoundSpan, span_min,
                              span_states.data());
      }
      state_->nu_rng.RestoreState(end_state);

      pipe.SetNoiseMinima(span_min);
      if (!pipe.ChunkCanFire(bar0)) {
        // The tier-1 bound dominates every computed positive test, so a
        // skipped chunk cannot have recorded hits.
        SVT_DCHECK(found == 0);
        state_->processed += static_cast<int64_t>(n);  // res already ⊥
        ++state_->batch.tier1_chunks_skipped;
      } else {
        // Tier-2. When the fused pass scanned, the chunk's positives
        // under the chunk-entry bar are already in hand and complete, so
        // as long as the bar has not *dropped* — always for non-resampling
        // variants, and for every upward resample otherwise — a resume
        // only replays the walk's span decisions on the pipeline's cached
        // per-span bounds (one float compare per span, no words touched)
        // and returns the next recorded hit, re-validated against the
        // moved bar with the exact computed test when ρ was resampled.
        // Only when the bar dropped below the chunk-entry bar (a negative
        // resample draw — elements the fused pass rejected could now
        // fire) or the hit record overflowed does the walk fall back to
        // the checkpoint form: a skipped span costs one float compare —
        // its words are never regenerated — and a surviving span
        // re-enters the bounded scan megakernel from its pass-1
        // checkpoint, regenerating its words once, in registers, and
        // transforming only the lockstep groups its word threshold cannot
        // discharge. After a positive the fallback scans the firing
        // span's remainder exactly from the stream cursor the hit left
        // behind, then re-anchors on the pass-1 grid, so no off-grid
        // words are ever re-bounded. The pipeline's ν bounds per span are
        // rho-free, so they are computed once per chunk and survive ρ
        // resampling.
        ++state_->batch.tier2_chunks_scanned;
        BatchRunStats* const stats = &state_->batch;
        const bool cache_complete = fused_scan && found <= kMaxChunkHits;
        BlockRng::State cur;       // fallback stream cursor, at element
        size_t cur_pos = SIZE_MAX; // cur_pos once established
        const auto find_next = [&](size_t from,
                                   double rho) -> vec::FusedScanHit {
          const double bar = threshold + rho;
          if (cache_complete && bar >= bar0) {
            // Cached walk, sound for every bar >= the fused pass's bar0:
            // an unrecorded element either failed its computed test at
            // bar0 (the rounded add is monotone, so it fails at any
            // higher bar too) or was word-skipped under a threshold
            // sound for bar0 and hence for bar; a recorded hit carries
            // the bit-identical ν a rescan would recompute, so testing
            // `a + ν >= bar` here IS the rescan's computed test. The
            // span decisions replay the fallback's on the pipeline's
            // cached bounds (a span holding a surviving hit always
            // passes its bound — the bound chain dominates every
            // computed test, quantized or exact — so the counters stay
            // mode-equal).
            const auto next_hit =
                [&](size_t lo, size_t hi) -> const vec::FusedScanHit* {
              for (size_t k = 0; k < found; ++k) {
                if (hits[k].index < lo) continue;
                if (hits[k].index >= hi) break;
                if (bar == bar0 || a[hits[k].index] + hits[k].nu >= bar) {
                  return &hits[k];
                }
              }
              return nullptr;
            };
            size_t s = from;
            if (s % kBoundSpan != 0 && s < n) {
              ++stats->tier2_fused_segments;
              const size_t m = std::min(kBoundSpan - s % kBoundSpan, n - s);
              if (const vec::FusedScanHit* h = next_hit(s, s + m)) return *h;
              s += m;
            }
            while (s < n) {
              const size_t j = s / kBoundSpan;
              const size_t m = std::min(kBoundSpan, n - s);
              if (pipe.SpanCanFire(j, bar)) {
                ++stats->tier2_fused_segments;
                if (const vec::FusedScanHit* h = next_hit(s, s + m)) {
                  return *h;
                }
              }
              s += m;
            }
            return {n, 0.0};
          }
          if (cur_pos != from) {
            // First fallback resume after cached returns (or after an
            // overflowed record): rebuild the stream cursor at `from`
            // from the enclosing span's checkpoint.
            const size_t j = from / kBoundSpan;
            cur = span_states[j];
            const size_t p = from - j * kBoundSpan;
            if (p > 0) {
              uint64_t scratch;
              vec::MegaFillMinSpans(&cur, p, wpv, p, &scratch, nullptr);
            }
            cur_pos = from;
          }
          size_t s = from;
          if (s % kBoundSpan != 0 && s < n) {
            const size_t m = std::min(kBoundSpan - s % kBoundSpan, n - s);
            ++stats->tier2_fused_segments;
            const uint64_t skip_word = vec::MegaSkipWordThreshold(
                pipe.SubrangeScoreUpper(s, m), bar, nu_scale);
            BlockRng::State scan_st = cur;
            const vec::FusedScanHit hit =
                exp_nu ? vec::MegaExpScanSumGeBounded(&scan_st, nu_scale,
                                                      {a + s, m}, bar,
                                                      skip_word)
                       : vec::MegaLaplaceScanSumGeBounded(&scan_st, 0.0,
                                                          nu_scale, {a + s, m},
                                                          bar, skip_word);
            if (hit.index < m) {
              cur = scan_st;  // at element s + hit.index + 1
              cur_pos = s + hit.index + 1;
              return {s + hit.index, hit.nu};
            }
            s += m;
          }
          while (s < n) {
            const size_t j = s / kBoundSpan;
            const size_t m = std::min(kBoundSpan, n - s);
            if (!pipe.SpanCanFire(j, bar)) {
              s += m;
              continue;
            }
            ++stats->tier2_fused_segments;
            // Typically only one or two elements keep a surviving span
            // alive; the bounded scan reuses the span's score upper to
            // skip the log transform for every lockstep group that
            // provably cannot fire — bit-identical to the unbounded scan
            // by the MegaSkipWordThreshold contract.
            const uint64_t skip_word = pipe.SpanSkipWord(j, bar);
            BlockRng::State scan_st = span_states[j];
            const vec::FusedScanHit hit =
                exp_nu ? vec::MegaExpScanSumGeBounded(&scan_st, nu_scale,
                                                      {a + s, m}, bar,
                                                      skip_word)
                       : vec::MegaLaplaceScanSumGeBounded(&scan_st, 0.0,
                                                          nu_scale, {a + s, m},
                                                          bar, skip_word);
            if (hit.index < m) {
              cur = scan_st;  // at element s + hit.index + 1
              cur_pos = s + hit.index + 1;
              return {s + hit.index, hit.nu};
            }
            s += m;
          }
          cur_pos = n;
          return {n, 0.0};
        };
        chunk_processed = ScanChunk(a, n, find_next, res + done);
      }
    } else {
      // Pre-fetch the chunk's raw ν words — the substream advances exactly
      // as if each ν_i had been drawn scalar-style. Word count and layout
      // follow the spec's ν kind: Laplace variates are (magnitude, sign)
      // pairs, exponential variates a single magnitude word each.
      const size_t wpv = WordsPerVariate(spec_.nu_kind);
      const bool exp_nu = spec_.nu_kind == NoiseKind::kExponential;
      state_->nu_rng.FillUint64({words, wpv * n});

      // Per-span magnitude-word minima up front; the pipeline reduces them
      // to the chunk minimum (unsigned min is association-free, so this is
      // bit-for-bit the whole-chunk reduction) and owns the whole bound
      // chain from here: the tier-1 all-⊥ shortcut and the per-span tier-2
      // tests, each a monotone rounded chain over these minima and the
      // chunk's score uppers — provably conservative, so the shortcut
      // emits exactly what the exact comparison would (proof in
      // core/bound_pipeline.h). Shared bound inputs with the megakernel
      // arm keep the two modes' skip decisions and counters equal bit for
      // bit.
      pipe.BeginChunk(a, /*thresholds=*/nullptr, done, n);
      const size_t nspans = (n + kBoundSpan - 1) / kBoundSpan;
      uint64_t span_min[kChunkSize / kBoundSpan];
      for (size_t j = 0; j < nspans; ++j) {
        const size_t s = j * kBoundSpan;
        const size_t m = std::min(kBoundSpan, n - s);
        span_min[j] = vec::MinWordBlock({words + wpv * s, wpv * m}, wpv);
      }
      pipe.SetNoiseMinima(span_min);
      if (!pipe.ChunkCanFire(threshold + state_->rho)) {
        state_->processed += static_cast<int64_t>(n);  // res already ⊥
        ++state_->batch.tier1_chunks_skipped;
      } else {
        // Tier-2, single pass and hierarchical: the chunk-level bound
        // failed, but the same conservative max-|ν| argument re-applies
        // per kBoundSpan sub-span, where the max over far fewer draws is
        // much smaller — in near-threshold workloads (answers a few ν
        // scales under the bar) most sub-spans still prove all-⊥ from two
        // integer/float reductions and skip their transform outright.
        // Surviving sub-spans run the fused kernel, which transforms the
        // raw word pairs and tests the positive condition in the same
        // register pass — no ν block round-trip. After a positive the
        // walk scans the firing sub-span's remainder exactly (it survived
        // its bound to fire at all, and ρ may have been resampled) and
        // then re-anchors on the sub-span grid, mirroring the megakernel
        // arm span for span so the two modes' counters stay equal.
        ++state_->batch.tier2_chunks_scanned;
        const double nu_scale = spec_.nu_scale;
        const uint64_t* const w = words;
        BatchRunStats* const stats = &state_->batch;
        const auto find_next = [&](size_t from,
                                   double rho) -> vec::FusedScanHit {
          const double bar = threshold + rho;
          size_t s = from;
          if (s % kBoundSpan != 0 && s < n) {
            const size_t m = std::min(kBoundSpan - s % kBoundSpan, n - s);
            ++stats->tier2_fused_segments;
            const vec::FusedScanHit hit =
                exp_nu ? vec::FusedExpScanSumGe({w + s, m}, nu_scale,
                                                {a + s, m}, bar)
                       : vec::FusedLaplaceScanSumGe({w + 2 * s, 2 * m}, 0.0,
                                                    nu_scale, {a + s, m}, bar);
            if (hit.index < m) return {s + hit.index, hit.nu};
            s += m;
          }
          while (s < n) {
            const size_t j = s / kBoundSpan;
            const size_t m = std::min(kBoundSpan, n - s);
            if (!pipe.SpanCanFire(j, bar)) {
              s += m;
              continue;
            }
            ++stats->tier2_fused_segments;
            const vec::FusedScanHit hit =
                exp_nu ? vec::FusedExpScanSumGe({w + s, m}, nu_scale,
                                                {a + s, m}, bar)
                       : vec::FusedLaplaceScanSumGe({w + 2 * s, 2 * m}, 0.0,
                                                    nu_scale, {a + s, m}, bar);
            if (hit.index < m) return {s + hit.index, hit.nu};
            s += m;
          }
          return {n, 0.0};
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
  out->resize(start + total);
  Response* const res = out->data() + start;

  const bool has_nu = spec_.nu_scale > 0.0;
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
  BoundPipeline pipe(has_nu ? prefilter : nullptr, spec_.nu_scale, kBoundSpan,
                     &state_->batch);
  // Megakernel-arm scratch, as in the common-threshold Run.
  constexpr size_t kMaxSubHits = kFusedSubBlock / 16;
  UninitArray<BlockRng::State, kFusedSubBlock / kBoundSpan> span_states;
  UninitArray<vec::FusedScanHit, kMaxSubHits> hits;

  size_t done = 0;
  while (done < total) {
    const size_t n = std::min(kChunkSize, total - done);
    const double* const a = answers.data() + done;
    const double* const t = thresholds.data() + done;
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
      // Fused per-query tier-2: bounded fills (or lane-resident prepasses)
      // pull the chunk's substream words sub-block by sub-block — the same
      // words in the same order a scalar draw loop consumes, so a
      // completed chunk leaves the substream at the identical position.
      ++state_->batch.tier2_chunks_scanned;
      pipe.BeginChunk(a, t, done, n);
      const double nu_scale = spec_.nu_scale;
      const size_t wpv = WordsPerVariate(spec_.nu_kind);
      const bool exp_nu = spec_.nu_kind == NoiseKind::kExponential;
      BatchRunStats* const stats = &state_->batch;
      const bool use_mega =
          ActiveBatchKernelMode() == BatchKernelMode::kMegakernel;
      size_t sub = 0;
      while (sub < n) {
        const size_t m = std::min(kFusedSubBlock, n - sub);
        ++stats->tier2_fused_subblocks;
        const double* const a_sub = a + sub;
        const double* const t_sub = t + sub;
        const size_t first_span = sub / kBoundSpan;
        const size_t sub_nspans = (m + kBoundSpan - 1) / kBoundSpan;
        uint64_t span_min[kFusedSubBlock / kBoundSpan];
        size_t sub_processed;
        if (use_mega) {
          // Lane-resident sub-block. The pipeline's span plan (each
          // span's answer-max paired with its bar-min, quantized or
          // exact) yields a per-span skip-word *vector* at the sub-block
          // entry ρ — derivable before any words are drawn. When any
          // span's word threshold can discharge at all, the prepass is
          // the fused pairwise generate-bound-and-scan: one pass steps
          // the lanes through the sub-block, records the per-span
          // magnitude minima (the pipeline's ν-bound inputs), a
          // checkpoint at every span entry, AND every element whose
          // pairwise positive test fires at the entry ρ — skipping the
          // transform for every word its span's threshold discharges
          // (counted element-granular in mega_words_skipped_q). The
          // substream is then restored to the sub-block end: the prepass
          // consumes exactly m·wpv words, so the stream position matches
          // the composition's upfront fill whatever the walk later
          // skips. When no span has a finite skip word (hit-dense
          // sub-block), the fused scan would transform everything for
          // positives a cutoff may never need, so only generate-and-
          // bound runs — mirroring the common arm's fused_scan gate, and
          // the composition's zero skipped-word count.
          const double rho0 = state_->rho;
          uint64_t skip_words[kFusedSubBlock / kBoundSpan];
          bool any_skip = false;
          for (size_t k = 0; k < sub_nspans; ++k) {
            skip_words[k] = pipe.SpanSkipWordPerQuery(first_span + k, rho0);
            any_skip = any_skip || skip_words[k] < vec::kMegaNeverSkipWord;
          }
          size_t found = 0;
          uint64_t skipped = 0;
          BlockRng::State end_state = state_->nu_rng.state();
          if (any_skip) {
            found = exp_nu ? vec::MegaExpFillMinScanSpansPairwise(
                                 &end_state, nu_scale, {a_sub, m}, {t_sub, m},
                                 rho0, skip_words, kBoundSpan, span_min,
                                 span_states.data(), hits.data(), kMaxSubHits,
                                 &skipped)
                           : vec::MegaLaplaceFillMinScanSpansPairwise(
                                 &end_state, 0.0, nu_scale, {a_sub, m},
                                 {t_sub, m}, rho0, skip_words, kBoundSpan,
                                 span_min, span_states.data(), hits.data(),
                                 kMaxSubHits, &skipped);
            stats->mega_words_skipped_q += static_cast<int64_t>(skipped);
          } else {
            vec::MegaFillMinSpans(&end_state, m, wpv, kBoundSpan, span_min,
                                  span_states.data());
          }
          state_->nu_rng.RestoreState(end_state);
          pipe.SetSpanNoiseMinima(span_min, first_span, sub_nspans);
          const bool cache_complete = any_skip && found <= kMaxSubHits;

          BlockRng::State cur;        // resume cursor, at element cur_pos
          size_t cur_pos = SIZE_MAX;  // once established
          const auto find_next = [&](size_t from,
                                     double rho) -> vec::FusedScanHit {
            if (cache_complete && rho >= rho0) {
              // Cached walk, sound for every ρ >= the prepass's ρ0:
              // fl(t_i + ρ) is monotone in ρ, so an element that failed
              // its computed test at ρ0 fails at ρ, and a span skip word
              // derived against fl(bar_min + ρ0) stays sound (see
              // SpanSkipWordPerQuery); a recorded hit carries the
              // bit-identical ν a rescan would recompute, so re-testing
              // it against fl(t_i + ρ) IS the rescan's computed test.
              // Span decisions replay the fallback's on the pipeline's
              // cached bounds: a span holding a surviving hit always
              // passes its bound (the bound chain dominates every
              // computed test), so the counters stay mode-equal.
              const auto next_hit =
                  [&](size_t lo, size_t hi) -> const vec::FusedScanHit* {
                for (size_t k = 0; k < found; ++k) {
                  if (hits[k].index < lo) continue;
                  if (hits[k].index >= hi) break;
                  if (rho == rho0 ||
                      a_sub[hits[k].index] + hits[k].nu >=
                          t_sub[hits[k].index] + rho) {
                    return &hits[k];
                  }
                }
                return nullptr;
              };
              size_t s = from;
              if (s % kBoundSpan != 0 && s < m) {
                ++stats->tier2_fused_segments;
                const size_t mh =
                    std::min(kBoundSpan - s % kBoundSpan, m - s);
                if (const vec::FusedScanHit* h = next_hit(s, s + mh)) {
                  return *h;
                }
                s += mh;
              }
              while (s < m) {
                const size_t j = s / kBoundSpan;
                const size_t mm = std::min(kBoundSpan, m - s);
                if (pipe.SpanCanFirePerQuery(first_span + j, rho)) {
                  ++stats->tier2_fused_segments;
                  if (const vec::FusedScanHit* h = next_hit(s, s + mm)) {
                    return *h;
                  }
                }
                s += mm;
              }
              return {m, 0.0};
            }
            // Checkpoint fallback: ρ dropped below ρ0 (elements the
            // prepass rejected could now fire), the hit record
            // overflowed, or no span had a finite skip word. Span skip
            // words are re-derived from the pipeline at the *current* ρ
            // per visit, so surviving spans still transform only the
            // lockstep groups their thresholds cannot discharge.
            size_t s = from;
            if (s % kBoundSpan != 0 && s < m) {
              // Off-grid resume after a positive: scan the firing span's
              // remainder exactly from the cursor the hit left behind
              // (heads are never bound-checked), then re-anchor on the
              // prepass grid.
              const size_t mh = std::min(kBoundSpan - s % kBoundSpan, m - s);
              ++stats->tier2_fused_segments;
              if (cur_pos != s) {
                const size_t j = s / kBoundSpan;
                cur = span_states[j];
                const size_t p = s - j * kBoundSpan;
                if (p > 0) {
                  uint64_t scratch;
                  vec::MegaFillMinSpans(&cur, p, wpv, p, &scratch, nullptr);
                }
                cur_pos = s;
              }
              BlockRng::State scan_st = cur;
              const vec::FusedScanHit hit =
                  exp_nu ? vec::MegaExpScanSumGePairwise(
                               &scan_st, nu_scale, {a_sub + s, mh},
                               {t_sub + s, mh}, rho)
                         : vec::MegaLaplaceScanSumGePairwise(
                               &scan_st, 0.0, nu_scale, {a_sub + s, mh},
                               {t_sub + s, mh}, rho);
              if (hit.index < mh) {
                cur = scan_st;  // at element s + hit.index + 1
                cur_pos = s + hit.index + 1;
                return {s + hit.index, hit.nu};
              }
              s += mh;
            }
            while (s < m) {
              const size_t j = s / kBoundSpan;
              const size_t mm = std::min(kBoundSpan, m - s);
              if (!pipe.SpanCanFirePerQuery(first_span + j, rho)) {
                s += mm;
                continue;
              }
              ++stats->tier2_fused_segments;
              const uint64_t skip_word =
                  pipe.SpanSkipWordPerQuery(first_span + j, rho);
              BlockRng::State scan_st = span_states[j];
              const vec::FusedScanHit hit =
                  exp_nu ? vec::MegaExpScanSumGePairwiseBounded(
                               &scan_st, nu_scale, {a_sub + s, mm},
                               {t_sub + s, mm}, rho, skip_word)
                         : vec::MegaLaplaceScanSumGePairwiseBounded(
                               &scan_st, 0.0, nu_scale, {a_sub + s, mm},
                               {t_sub + s, mm}, rho, skip_word);
              if (hit.index < mm) {
                cur = scan_st;  // at element s + hit.index + 1
                cur_pos = s + hit.index + 1;
                return {s + hit.index, hit.nu};
              }
              s += mm;
            }
            cur_pos = m;
            return {m, 0.0};
          };
          sub_processed = ScanChunk(a_sub, m, find_next, res + done + sub);
          // The prepass already left the substream at the sub-block end —
          // nothing to advance, even on a cutoff exit mid-block.
        } else {
          size_t filled = 0;
          while (filled < wpv * m) {
            filled += state_->nu_rng.FillUint64Bounded(
                {words + filled, wpv * m - filled});
          }
          const uint64_t* const w = words;
          // Same per-span minima as the prepass records (same words, and
          // unsigned min is association-free) — skip decisions and
          // counters stay equal between the modes bit for bit.
          for (size_t k = 0; k < sub_nspans; ++k) {
            const size_t s = k * kBoundSpan;
            const size_t mm = std::min(kBoundSpan, m - s);
            span_min[k] = vec::MinWordBlock({w + wpv * s, wpv * mm}, wpv);
          }
          pipe.SetSpanNoiseMinima(span_min, first_span, sub_nspans);
          // Mirror the megakernel prepass's element-granular skipped-word
          // count over the scratch words: the same per-span skip words at
          // the same sub-block-entry ρ over the same magnitude words give
          // the same count (never-skip spans contribute zero, exactly as
          // they do inside the fused lanes), keeping the counter
          // kernel-mode-independent without slowing this arm's scans — a
          // vectorized compare-count per span, only where a finite skip
          // word exists.
          {
            uint64_t skipped = 0;
            for (size_t k = 0; k < sub_nspans; ++k) {
              const uint64_t sw =
                  pipe.SpanSkipWordPerQuery(first_span + k, state_->rho);
              if (sw < vec::kMegaNeverSkipWord) {
                const size_t s = k * kBoundSpan;
                const size_t mm = std::min(kBoundSpan, m - s);
                skipped +=
                    vec::SkipWordCountBlock({w + wpv * s, wpv * mm}, wpv, sw);
              }
            }
            stats->mega_words_skipped_q += static_cast<int64_t>(skipped);
          }
          const auto find_next = [&](size_t from,
                                     double rho) -> vec::FusedScanHit {
            size_t s = from;
            if (s % kBoundSpan != 0 && s < m) {
              const size_t mh = std::min(kBoundSpan - s % kBoundSpan, m - s);
              ++stats->tier2_fused_segments;
              const vec::FusedScanHit hit =
                  exp_nu ? vec::FusedExpScanSumGePairwise(
                               {w + s, mh}, nu_scale, {a_sub + s, mh},
                               {t_sub + s, mh}, rho)
                         : vec::FusedLaplaceScanSumGePairwise(
                               {w + 2 * s, 2 * mh}, 0.0, nu_scale,
                               {a_sub + s, mh}, {t_sub + s, mh}, rho);
              if (hit.index < mh) return {s + hit.index, hit.nu};
              s += mh;
            }
            while (s < m) {
              const size_t j = s / kBoundSpan;
              const size_t mm = std::min(kBoundSpan, m - s);
              if (!pipe.SpanCanFirePerQuery(first_span + j, rho)) {
                s += mm;
                continue;
              }
              ++stats->tier2_fused_segments;
              const vec::FusedScanHit hit =
                  exp_nu ? vec::FusedExpScanSumGePairwise(
                               {w + s, mm}, nu_scale, {a_sub + s, mm},
                               {t_sub + s, mm}, rho)
                         : vec::FusedLaplaceScanSumGePairwise(
                               {w + 2 * s, 2 * mm}, 0.0, nu_scale,
                               {a_sub + s, mm}, {t_sub + s, mm}, rho);
              if (hit.index < mm) return {s + hit.index, hit.nu};
              s += mm;
            }
            return {m, 0.0};
          };
          sub_processed = ScanChunk(a_sub, m, find_next, res + done + sub);
        }
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
