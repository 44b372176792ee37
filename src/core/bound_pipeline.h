// BoundPipeline: the ONE conservative "can this chunk/span possibly
// fire?" bound implementation behind the batch engine. Every execution
// path — common-threshold and per-query-threshold, megakernel and
// composition — routes its skip decisions through this class; the paths
// differ only in how they *scan* spans the pipeline could not discharge
// (core/batch_runner.cc). Before this refactor the bound chain existed in
// four divergent copies (the tier-1 log-free chunk bound, the per-128-span
// hierarchical bound, the megakernel generate-and-bound pass, and the
// per-query path that had none).
//
// The pipeline is a per-chunk plan of PRECISION LEVELS, each holding a
// round-toward-pessimistic representation of the query-score/threshold
// inputs, passing only surviving spans downward:
//
//   level 0 (optional, quantized): per-span score upper bounds and bar
//     lower bounds dequantized from a BoundPrefilter's uint8/uint16 codes
//     (data/bound_prefilter.h) — the bound pass touches 4-8x less memory;
//   level 1 (full precision): vec::MaxBlock / vec::MinBlock over the
//     doubles themselves — used when no prefilter is attached or
//     SVT_BOUND_PREFILTER=off;
//   final level (exact, in batch_runner): the fused sample-and-scan of
//     surviving spans, which computes the exact streaming positive test —
//     the "rerank at full precision" of the two-level pattern.
//
// When a prefilter is attached, the quantized level alone decides the
// prunes (its bound is weaker, so it prunes a subset of what level 1
// would; surviving spans go straight to the exact scan — re-running the
// full-precision reduction on survivors would re-read the very bytes the
// prefilter exists to avoid).
//
// Conservativeness proof (the quantization level folds into the padded
// bound chain with NO new epsilon analysis):
//
//   The computed positive test a path can fire is
//       fl(a_i + nu_i) >= bar         (common: bar = fl(T + rho))
//       fl(a_i + nu_i) >= fl(t_i + rho)   (per-query)
//   with every fl(·) a correctly-rounded IEEE add, which is MONOTONE
//   non-decreasing in each operand. The pipeline skips a span only when
//       fl(up + NB) < fl(dn + rho)    (common: the rhs is bar itself)
//   where up >= a_i for every non-NaN a_i in the span (exact MaxBlock, or
//   the prefilter's per-element round-up invariant), dn <= t_i for every
//   non-NaN t_i (exact MinBlock, or the round-down invariant), and NB is
//   the padded noise bound nu_scale * (-Log(u(w_min))) * kBoundSlack with
//   w_min the span's minimum magnitude word: u is monotone in the word
//   and -log anti-monotone, so NB >= nu_scale * (-Log(u(w_i))) >= nu_i
//   for every variate in the span on the side that can fire (Laplace:
//   nu_i <= |nu_i| <= NB; exponential: 0 <= nu_i <= NB exactly —
//   kBoundSlack absorbs the log kernel's sub-ulp wiggle, see
//   batch_runner's original argument, now below kBoundSlack in the .cc).
//   Chaining monotonicity:
//       fl(a_i + nu_i) <= fl(up + NB) < fl(dn + rho) <= fl(t_i + rho)
//   so no element of a pruned span can fire its computed test — at any
//   dispatch level (each fl(·) and the Log kernel are bit-identical
//   across levels) and in either kernel mode (unsigned word minima are
//   association-free, so both modes feed identical w_min). Elements with
//   NaN answers or NaN thresholds compare false in the exact test and
//   are excluded from up/dn by the prefilter's build rule (full-precision
//   reductions are only used on NaN-free inputs — ScoreVector checks).
//   Hence pruning is sound, outputs are bit-identical to the bound-free
//   scan, and — since the quantized level's decisions are themselves
//   deterministic functions of the codes — tier counters are dispatch-
//   and mode-independent. This argument sits alongside the megakernel
//   skip-word soundness argument (vec::MegaSkipWordThreshold), which
//   consumes this class's score uppers: any up >= max a_i satisfies its
//   contract, so a quantized upper is as sound a skip-word input as the
//   exact maximum.

#ifndef SPARSEVEC_CORE_BOUND_PIPELINE_H_
#define SPARSEVEC_CORE_BOUND_PIPELINE_H_

#include <cstddef>
#include <cstdint>

#include "core/svt.h"
#include "data/bound_prefilter.h"

namespace svt {

class BoundPipeline {
 public:
  /// Spans per chunk ceiling (kChunkSize / kBoundSpan in batch_runner.h;
  /// static so the per-chunk plan needs no allocation).
  static constexpr size_t kMaxSpans = 16;

  /// One pipeline per Run call. `prefilter` may be null (full precision);
  /// when non-null its size must cover every chunk offset passed to
  /// BeginChunk. The quantized level engages only while the process-wide
  /// gate (SVT_BOUND_PREFILTER) is on — latched here, once per run.
  BoundPipeline(const BoundPrefilter* prefilter, double nu_scale,
                size_t span_elems, BatchRunStats* stats);

  /// Builds the chunk's score-upper (and, per-query, bar-lower) plan for
  /// answers[0, n) at absolute offset `offset` in the prefilter's arrays.
  /// `thresholds` is null for common-threshold runs. Charges the level's
  /// bytes to bound_bytes_touched.
  void BeginChunk(const double* answers, const double* thresholds,
                  size_t offset, size_t n);

  size_t num_spans() const { return nspans_; }

  /// Installs the chunk's per-span minimum magnitude words (from a
  /// megakernel fused pass or vec::MinWordBlock — bit-identical by the
  /// stream contract) and derives the padded chunk noise bound; per-span
  /// bounds are derived lazily on first span query so a chunk the tier-1
  /// test discharges pays exactly one log. Call after BeginChunk, before
  /// any *CanFire.
  void SetNoiseMinima(const std::uint64_t* span_min);

  /// Per-query form: installs minima (and eager ν bounds) for the `count`
  /// spans starting at chunk span index `first_span` — the per-query walk
  /// processes sub-blocks, and there is no chunk-level test to feed.
  void SetSpanNoiseMinima(const std::uint64_t* span_min, size_t first_span,
                          size_t count);

  /// Megakernel skip words, derived inside the pipeline so both kernel
  /// modes (and the quantized level, when attached) feed identical
  /// answer-max / bar pairs into vec::MegaSkipWordThreshold. Valid after
  /// BeginChunk; they need no noise minima.
  std::uint64_t ChunkSkipWord(double bar) const;
  /// Per-query form: the span's bar-min folded with ρ. fl(dn + ρ) is a
  /// lower bound on every computed fl(t_i + ρ) in the span (monotone
  /// rounded add), so a word the threshold discharges at this bar cannot
  /// fire any per-query test in the span — and, since fl(dn + ρ) is
  /// non-decreasing in ρ, a skip word derived at the sub-block-entry ρ
  /// stays sound for every later resampled ρ' >= ρ.
  std::uint64_t SpanSkipWordPerQuery(size_t j, double rho) const;

  /// Tier-1: false when the whole chunk provably cannot fire under the
  /// common bar. Pure — the caller counts tier1_chunks_skipped.
  bool ChunkCanFire(double bar) const;

  /// Tier-2 span tests. False means provably no element fires; these
  /// count tier2_spans_skipped (and bound_spans_pruned_q when the
  /// quantized level decided) per CALL, i.e. per span visit — revisits
  /// across resume walks recount, exactly as the pre-refactor walks did.
  bool SpanCanFire(size_t j, double bar);
  bool SpanCanFirePerQuery(size_t j, double rho);

  /// True when the quantized level is active for this run.
  bool quantized() const { return quant_; }

 private:
  double NuBound(std::uint64_t w_min) const;
  void EnsureSpanNuBounds();

  const BoundPrefilter* prefilter_;  // null or inactive when !quant_
  const double nu_scale_;
  const size_t span_elems_;
  BatchRunStats* const stats_;
  const bool quant_;

  const double* a_ = nullptr;
  const double* t_ = nullptr;
  size_t offset_ = 0;
  size_t n_ = 0;
  size_t nspans_ = 0;
  bool span_nu_ready_ = false;
  double chunk_upper_ = 0.0;
  double chunk_nu_bound_ = 0.0;
  std::uint64_t span_min_[kMaxSpans];
  double span_upper_[kMaxSpans];
  double span_bar_lower_[kMaxSpans];
  double span_nu_bound_[kMaxSpans];
};

}  // namespace svt

#endif  // SPARSEVEC_CORE_BOUND_PIPELINE_H_
