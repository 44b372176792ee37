// The paper's proposed SVT: Alg. 7 ("Our Proposed Standard SVT"), of which
// Alg. 1 is the instantiation with ε₁ = ε₂ = ε/2 and ε₃ = 0.
//
// The primary interface is *streaming*: Process(answer, threshold) returns
// one Response. This is what makes SVT valuable in the interactive setting —
// queries need not be known in advance, and negative outcomes consume no
// privacy budget. Batch workloads go through Run(), which spec-driven
// mechanisms execute with the vectorized engine in core/batch_runner.h; the
// draw-order contract below guarantees both paths emit the identical
// Response sequence for the same seed.
//
// Privacy (Theorems 2, 4, 5 of the paper): with ρ ~ Lap(Δ/ε₁),
// ν_i ~ Lap(2cΔ/ε₂) (Lap(cΔ/ε₂) for monotonic queries), at most c positive
// outcomes, and positives optionally answered with fresh Lap(cΔ/ε₃) noise,
// the mechanism is (ε₁+ε₂+ε₃)-DP.

#ifndef SPARSEVEC_CORE_SVT_H_
#define SPARSEVEC_CORE_SVT_H_

#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/budget.h"
#include "core/response.h"
#include "core/variant_spec.h"

namespace svt {

class BoundPrefilter;  // data/bound_prefilter.h

/// Abstract interface shared by every SVT-family mechanism in the library
/// (the proposed SparseVector and the six published variants), so the audit
/// and evaluation layers can drive them uniformly.
class SvtMechanism {
 public:
  virtual ~SvtMechanism() = default;

  /// Tests one query answer against `threshold`. Must not be called once
  /// exhausted() is true (checked).
  virtual Response Process(double query_answer, double threshold) = 0;

  /// True once the mechanism has emitted its c-th positive outcome and
  /// aborted. Always false for variants without a cutoff.
  virtual bool exhausted() const = 0;

  /// Re-draws the threshold noise and clears counters — a fresh run with a
  /// fresh privacy budget.
  virtual void Reset() = 0;

  /// Declarative noise structure (drives the closed-form audit).
  virtual const VariantSpec& spec() const = 0;

  /// Number of positive outcomes emitted since the last Reset().
  virtual int positives_emitted() const = 0;

  /// Number of queries processed since the last Reset().
  virtual int64_t queries_processed() const = 0;

  /// Runs the mechanism over a batch with per-query thresholds, stopping at
  /// the cutoff. Returns one Response per processed query (the result may be
  /// shorter than `answers` if the cutoff hit early). Delegates to
  /// RunAppend().
  std::vector<Response> Run(std::span<const double> answers,
                            std::span<const double> thresholds);

  /// Single-threshold convenience overload.
  std::vector<Response> Run(std::span<const double> answers,
                            double threshold);

  /// Like Run(), but appends to *out instead of returning a fresh vector,
  /// so batch servers can reuse one response buffer across calls instead of
  /// re-allocating (and re-faulting) megabytes per request. Returns the
  /// number of responses appended. The base implementation is the
  /// reference streaming loop; SpecDrivenSvt overrides it with the chunked
  /// batch engine, emitting the identical sequence.
  ///
  /// Short-call rule: SpecDrivenSvt still runs this base loop for calls
  /// shorter than BatchRunner::kStreamingCutover queries (8), after the
  /// same argument checks as a long call. Below that length the engine's
  /// fixed per-call cost exceeds the scalar draws it saves.
  /// bench_call_crossover measures the crossover (core/batch_runner.h).
  /// Many short runs in a row batch across runs instead: see
  /// SpecDrivenSvt::RunTrials.
  ///
  /// Buffer-reuse contract (the serving layer depends on it): RunAppend
  /// only appends — it never clears, shrinks, or reorders the elements
  /// already in *out, and between calls the vector is an ordinary
  /// std::vector the caller owns. clear() + RunAppend in a loop therefore
  /// reuses one allocation for every batch once the capacity has grown to
  /// the high-water mark. Appended elements may be invalidated by
  /// reallocation on a later append, so take spans into *out only after the
  /// last RunAppend of a cycle.
  virtual size_t RunAppend(std::span<const double> answers,
                           std::span<const double> thresholds,
                           std::vector<Response>* out);
  virtual size_t RunAppend(std::span<const double> answers, double threshold,
                           std::vector<Response>* out);

  /// RunAppend with a quantized bound prefilter attached
  /// (data/bound_prefilter.h): `prefilter` must have been built over
  /// exactly these answers (and thresholds) arrays, or be nullptr. The
  /// prefilter only accelerates the batch engine's conservative bound
  /// pass — emitted Responses are bit-identical with it attached, absent,
  /// or disabled (SVT_BOUND_PREFILTER=off). The base implementations
  /// ignore it (the streaming loop has no bound pass).
  virtual size_t RunAppend(std::span<const double> answers,
                           std::span<const double> thresholds,
                           const BoundPrefilter* prefilter,
                           std::vector<Response>* out);
  virtual size_t RunAppend(std::span<const double> answers, double threshold,
                           const BoundPrefilter* prefilter,
                           std::vector<Response>* out);
};

/// Execution counters of the batch engine, cleared on Reset(). They report
/// *how* a batch executed (which tier), never *what* it produced — outputs
/// are tier-independent by the chunk bound's conservativeness proof.
struct BatchRunStats {
  /// Chunks proven all-⊥ by the tier-1 bound: emitted without
  /// materializing a single ν (the log-free fast path).
  int64_t tier1_chunks_skipped = 0;
  /// Chunks that ran the tier-2 fused sample-and-scan over their raw ν
  /// words (includes every per-query-threshold chunk with query noise).
  int64_t tier2_chunks_scanned = 0;
  /// Fused single-pass scan segments executed: one FusedLaplaceScan* call
  /// per tier-2 scan span — at least one per surviving bound span (or
  /// per-query sub-block), plus extra entries from resumes after
  /// positives. Dispatch-level independent, like every counter here.
  int64_t tier2_fused_segments = 0;
  /// Hierarchical-bound skips inside common-threshold tier-2 chunks:
  /// kBoundSpan-sized spans proven all-⊥ by the per-span max-|ν| bound
  /// after the whole-chunk bound failed — their transforms never ran.
  int64_t tier2_spans_skipped = 0;
  /// Bounded ν-substream sub-block fills in the per-query fused path
  /// (Rng::FillUint64Bounded loops). The common-threshold path prefetches
  /// whole chunks for the tier-1 bound and counts none.
  int64_t tier2_fused_subblocks = 0;
  /// Span visits pruned by the QUANTIZED bound level (a subset of
  /// tier2_spans_skipped): only nonzero when a BoundPrefilter was attached
  /// and SVT_BOUND_PREFILTER is on. Dispatch- and kernel-mode-independent,
  /// like every counter here.
  int64_t bound_spans_pruned_q = 0;
  /// Bytes the bound pass's score/threshold-side span reductions read per
  /// chunk: 8 per element and side at full precision, the prefilter's 1-2
  /// per element and side when quantized — the two-level prefilter's whole
  /// point. Counted once per chunk entering a bound-carrying path
  /// (deterministic in the workload shape: dispatch- and mode-independent;
  /// resume-head re-reductions after positives are not counted).
  int64_t bound_bytes_touched = 0;
  /// Elements of per-query sub-blocks whose magnitude word's top 53 bits
  /// reached their span's conservative skip word (the span's answer-max
  /// paired with its bar-min at the sub-block-entry ρ): their transform
  /// is provably discharged. Element-granular — a pure function of the
  /// words and the skip-word vector — so dispatch- and kernel-mode-
  /// independent (the composition arm counts the same words with
  /// vec::SkipWordCountBlock over its scratch buffer).
  int64_t mega_words_skipped_q = 0;
  /// Resume scans entered under a ρ that differs from the ρ the chunk
  /// (or per-query sub-block) was entered with: the resumes that compare
  /// against the chunk's ν block under a moved bar, or, per query, re-test
  /// recorded positives against a raised ρ. Counted centrally at the
  /// resume site, so dispatch- and kernel-mode-independent.
  int64_t replay_rederivations = 0;
  /// Queries answered by the short-call path: RunAppend calls shorter than
  /// BatchRunner::kStreamingCutover run the streaming Process() loop and
  /// never enter the engine, so none of the counters above move for them.
  int64_t streamed_queries = 0;
};

/// Mutable per-run state shared by the streaming Process() path and the
/// batch engine (core/batch_runner.h).
struct SvtRunState {
  double rho = 0.0;   ///< current noisy-threshold offset
  Rng nu_rng{0};      ///< dedicated ν substream (see contract below)
  int positives = 0;
  int64_t processed = 0;
  bool exhausted = false;
  BatchRunStats batch;  ///< batch-engine tier counters (diagnostics)
};

/// Shared engine for every spec-driven SVT mechanism: a noisy threshold,
/// optional query noise, optional cutoff, optional ρ resampling, optional
/// numeric output. Concrete classes differ only in their VariantSpec.
///
/// Noise draw-order contract (pinned — batch/streaming equivalence and the
/// equivalence tests depend on it):
///   1. Construction and Reset() consume, from the base stream in order:
///      the threshold noise ρ — one variate of the spec's rho_kind: a
///      Laplace variate is two 64-bit draws (magnitude, then sign), an
///      exponential variate is ONE 64-bit draw — then ONE 64-bit draw that
///      seeds, via SplitMix64, the dedicated ν substream.
///   2. ν_i is the i-th variate of the spec's nu_kind drawn from the ν
///      substream (two 64-bit substream draws per Laplace variate, one per
///      exponential variate). Nothing else consumes the substream, and
///      specs with nu_scale == 0 never touch it.
///   3. Numeric answers to positives (ε₃, Alg. 7; always Laplace) and ρ
///      resampling (Alg. 2, RevSVT; the spec's rho_kind) draw from the
///      base stream at the positive, in emission order.
///   4. The word→variate transform is part of the contract: every variate
///      is produced by the vecmath kernel family (common/vecmath.h) — the
///      scalar Process() path through vec::Log /
///      vec::NegLogUnitPositive, the batch engine through the dispatched
///      block kernels — which are bit-identical across dispatch levels by
///      construction. A Laplace variate maps its magnitude word w through
///      b·(−Log(ToUnitDoublePositive(w))) and applies the sign word; an
///      exponential variate is the one-word transform
///      b·(−Log(ToUnitDoublePositive(w))) = b·NegLogUnitPositive(w), no
///      sign word (ExponentialTransformBlock in bulk). Swapping libm (or
///      any other log) into only one of the paths breaks the equivalence;
///      changing the polynomial is a golden re-record.
///   5. The raw 64-bit word stream underneath every draw is BlockRng's
///      four-lane interleave (common/rng.h): word k of a stream is lane
///      (k mod 4)'s xoshiro256++ output at step ⌊k/4⌋, with the four
///      lanes seeded by SplitMix64 key-splitting in lane order. Scalar
///      NextUint64() and the SIMD FillUint64() lockstep kernels walk this
///      one stream, so block prefetch sizes and dispatch level never move
///      a draw's position. Changing the lane count or layout changes
///      every stream — a golden re-record, like (4).
///
/// Kernel fusion is draw-order-neutral: the batch engine's single-pass
/// FusedLaplaceScan* kernels (common/vecmath.h) consume the identical raw
/// word pairs through the identical word→ν lattice of steps (4) and (5) —
/// they merely skip materializing the ν block between transform and
/// compare. Steps 1–5 are unchanged and no golden re-record accompanied
/// fusion; the fused/unfused cross-checks in tests/common_vecmath_test.cc
/// and the batch/streaming suites enforce this bitwise.
///
/// In-kernel generation is stream-neutral: the batch engine's megakernels
/// (vec::Mega* — generate, generate-and-bound, generate-bound-and-scan)
/// step the SAME four lockstep xoshiro256++ lanes of step (5) in
/// registers instead of materializing FillUint64 blocks, and push each
/// word through the identical word→variate lattice of step (4). A chunk
/// consumes exactly n · words-per-variate words whether it scans, skips,
/// or records hits, so the stream position after any chunk is the same as
/// the composition's — restoring the kernel's BlockRng::State moves the
/// cursor, never the stream. SVT_BATCH_KERNELS=composition forces the
/// FillUint64 + fused-scan composition path; both modes emit identical
/// Responses (tests/core_batch_runner_test.cc diffs them per dispatch
/// level) and no golden re-record accompanied the megakernels.
///
/// Filling the ν block is draw-order-neutral: where the megakernel walk
/// resumes under a moved bar (or without a complete hit record), it
/// compares against a per-chunk block of ν instead of rescanning, each
/// span transformed once, the first time the walk reaches it. The block
/// is transformed from the chunk's own words — the ones the chunk fill
/// consumed, or, when the fused pass consumed them in registers, the same
/// words regenerated from the chunk-entry BlockRng::State — through the
/// block kernels of step (4). The stream position after the chunk is the
/// fused pass's or the fill's either way, so steps 1-5 are unchanged and
/// no golden re-record accompanied it.
///
/// Quantized bound representations are BOUND-ONLY: the BoundPipeline's
/// quantized prefilter level (core/bound_pipeline.h,
/// data/bound_prefilter.h) reads uint8/uint16 codes instead of the
/// full-precision answers/thresholds, but those codes feed exclusively
/// the conservative skip decisions and skip-word derivation — never a
/// draw, a word→variate transform, or an emitted value. Every chunk
/// still consumes exactly n · words-per-variate ν words whether a span
/// was pruned by the quantized level, the full-precision level, or not
/// at all, so steps 1-5 are untouched and the emitted Response sequence
/// is bit-identical with the prefilter attached, absent, or disabled
/// (SVT_BOUND_PREFILTER=off — a CI equivalence leg, like the
/// composition one above). Tier counters may legitimately differ between
/// prefilter-on and prefilter-off runs (the quantized bound is weaker,
/// so it prunes a subset of what full precision would); they remain
/// dispatch- and kernel-mode-independent within either setting.
///
/// Trial batching is draw-order-neutral: SpecDrivenSvt::RunTrials runs many
/// Reset() + short-call rounds as blocks of runs (core/batch_runner.h), but
/// only for specs that draw nothing from the base stream at a positive, so
/// each run's base words are exactly its step-1 draws — one ρ variate,
/// then one seed word — and a block's runs sit back to back in the stream.
/// One FillUint64 of those words, one dispatched ρ transform over them,
/// each run's ν substream seeded from its own word and filled from its
/// start, and one dispatched ν transform over the block consume the words
/// of steps 1, 2 and 5 through the kernels of step 4 that the streaming
/// loop would, draw for draw. Steps 1-5 are unchanged and no golden
/// re-record accompanied it; tests/core_batch_runner_test.cc diffs
/// RunTrials against the Reset() + RunAppend loop, streams and state
/// included, and tests/audit_mc_parallel_test.cc pins the auditor's hits.
///
/// Non-finite answers and thresholds (a written contract, which every path
/// — Process(), the batch engine and RunTrials — follows): query i fires
/// exactly when `answer + ν_i >= threshold + ρ` holds in IEEE-754 double
/// arithmetic, evaluated in that form. ν and ρ are always finite (the
/// word→variate map of step 4 never yields ±inf or NaN), so when an
/// answer or a threshold is not finite the outcome is fixed:
///   * a NaN answer or a NaN threshold never fires (every NaN comparison
///     is false) — and still consumes its ν draw like any query;
///   * otherwise a +inf answer always fires, even against a +inf
///     threshold (+inf >= +inf);
///   * otherwise a -inf threshold always fires, even for a -inf answer;
///   * otherwise (a -inf answer, or a +inf threshold) it never fires.
/// A positive emits the same expression as for finite operands, so Alg.
/// 3's q + ν and an ε₃ answer q + Lap are ±inf whenever q is. For finite
/// operands the sums round like any IEEE addition, and the comparison of
/// the rounded sums is the whole rule.
///
/// Hence the k-th emitted Response is the same whether queries arrive one
/// at a time through Process() or in bulk through Run() — and, by (4) and
/// (5), whether the host dispatches scalar, AVX2 or AVX-512 kernels: the
/// batch engine pre-fills whole blocks of the ν substream without
/// disturbing the base stream. After a cutoff abort the ν substream
/// position is unspecified until the next Reset() re-derives it (no
/// further draws can be requested from an exhausted run).
class SpecDrivenSvt : public SvtMechanism {
 public:
  Response Process(double query_answer, double threshold) override;
  bool exhausted() const override { return state_.exhausted; }
  void Reset() override;
  const VariantSpec& spec() const override { return spec_; }
  int positives_emitted() const override { return state_.positives; }
  int64_t queries_processed() const override { return state_.processed; }

  /// Batch execution via core/batch_runner.h (see class comment there).
  size_t RunAppend(std::span<const double> answers,
                   std::span<const double> thresholds,
                   std::vector<Response>* out) override;
  size_t RunAppend(std::span<const double> answers, double threshold,
                   std::vector<Response>* out) override;
  size_t RunAppend(std::span<const double> answers,
                   std::span<const double> thresholds,
                   const BoundPrefilter* prefilter,
                   std::vector<Response>* out) override;
  size_t RunAppend(std::span<const double> answers, double threshold,
                   const BoundPrefilter* prefilter,
                   std::vector<Response>* out) override;

  /// Runs `trials` fresh runs over `window` against a common `threshold`:
  /// exactly `for (t) { Reset(); counts->push_back(RunAppend(window,
  /// threshold, out)); }`, bit for bit — the responses appended back to
  /// back to *out, each run's response count appended to *counts, the base
  /// and ν streams, and the run state and batch_stats() of the last run
  /// afterwards. Returns the number of responses appended. Short windows
  /// of specs that draw nothing from the base stream at a positive are
  /// batched across runs (core/batch_runner.h); everything else takes that
  /// loop. This is the Monte-Carlo auditor's trial loop.
  size_t RunTrials(std::span<const double> window, double threshold,
                   int64_t trials, std::vector<Response>* out,
                   std::vector<size_t>* counts);

  /// Batch-engine tier counters since the last Reset(): how many chunks the
  /// tier-1 bound skipped vs how many ran the tier-2 transform scan.
  /// Diagnostics only — outputs never depend on the tier taken.
  const BatchRunStats& batch_stats() const { return state_.batch; }

  /// Position of the ν substream (contract step 2), so equivalence tests
  /// can check a batch run left it where the Process() loop does.
  Rng::State nu_stream_state() const { return state_.nu_rng.state(); }

  /// The current threshold noise ρ, so equivalence tests can check a
  /// batched path left it where the Process() loop does. Releasing it
  /// voids the privacy guarantee.
  double threshold_noise() const { return state_.rho; }

 protected:
  SpecDrivenSvt(VariantSpec spec, Rng* rng);

 private:
  /// Draws ρ and derives the ν substream per the contract above.
  void InitRun();

  VariantSpec spec_;
  Rng* rng_;  // base stream
  SvtRunState state_;
};

/// Configuration for SparseVector. Defaults give Alg. 1 at ε = 1.
struct SvtOptions {
  /// Total privacy budget ε = ε₁ + ε₂ + ε₃ (> 0).
  double epsilon = 1.0;
  /// Query sensitivity Δ (> 0).
  double sensitivity = 1.0;
  /// Maximum positive outcomes c (≥ 1).
  int cutoff = 1;
  /// How to divide the indicator budget between threshold and query noise.
  /// §4.2 recommends BudgetAllocation::Optimal(cutoff, monotonic).
  BudgetAllocation allocation = BudgetAllocation::Halves();
  /// Fraction of ε reserved as ε₃ for numeric answers to positives
  /// (Alg. 7 lines 5–6); 0 disables numeric output.
  double numeric_output_fraction = 0.0;
  /// Queries are monotonic (§4.3): all answers move the same direction
  /// between neighboring datasets, e.g. counting queries. Halves the query
  /// noise (Lap(cΔ/ε₂) instead of Lap(2cΔ/ε₂), Theorem 5).
  bool monotonic = false;

  /// Noise-distribution axis: the distribution each noise role draws from,
  /// at the standard parameterization's scales. With the default Halves
  /// allocation, rho_kind = kExponential reproduces the exponential-noise
  /// SVT of arXiv 2407.20068 exactly (ρ ~ Exp(Δ/ε₁), ν ~ Lap(2cΔ/ε₂));
  /// additionally setting nu_kind = kExponential and
  /// resample_threshold_noise gives the ThresholdMonitor shape of arXiv
  /// 2010.00917. Numeric answers (ε₃) always use Laplace. This is how the
  /// session and serving layers, which template on SvtOptions, run the
  /// exponential-noise variants.
  NoiseKind rho_kind = NoiseKind::kLaplace;
  NoiseKind nu_kind = NoiseKind::kLaplace;
  /// Redraw ρ after every positive (Alg. 2 / ThresholdMonitor style), at
  /// the same scale as the initial draw.
  bool resample_threshold_noise = false;

  /// Validates ranges; returned Status explains the first violation.
  Status Validate() const;
};

/// The paper's standard SVT (Alg. 7; Alg. 1 by default parameterization),
/// realized on the shared spec-driven engine.
///
/// Typical streaming use:
///
///   Rng rng(seed);
///   auto svt = SparseVector::Create(options, &rng).value();
///   for (...) {
///     if (svt->exhausted()) break;
///     Response r = svt->Process(query.Evaluate(db), threshold);
///   }
class SparseVector final : public SpecDrivenSvt {
 public:
  /// Validates `options` and draws the threshold noise from `rng`.
  /// `rng` must outlive the mechanism.
  static Result<std::unique_ptr<SparseVector>> Create(
      const SvtOptions& options, Rng* rng);

  /// The realized (ε₁, ε₂, ε₃) split.
  const BudgetSplit& budget() const { return spec().budget; }

  /// Scale of the per-query noise ν_i (used by SVT-ReTr's "kD" boosts).
  double query_noise_scale() const { return spec().nu_scale; }

 private:
  SparseVector(VariantSpec spec, Rng* rng)
      : SpecDrivenSvt(std::move(spec), rng) {}
};

}  // namespace svt

#endif  // SPARSEVEC_CORE_SVT_H_
