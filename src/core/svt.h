// The paper's proposed SVT: Alg. 7 ("Our Proposed Standard SVT"), of which
// Alg. 1 is the instantiation with ε₁ = ε₂ = ε/2 and ε₃ = 0.
//
// The primary interface is *streaming*: Process(answer, threshold) returns
// one Response. This is what makes SVT valuable in the interactive setting —
// queries need not be known in advance, and negative outcomes consume no
// privacy budget. Batch workloads go through Run(), which executes with
// the vectorized engine in core/batch_runner.h; the draw-order contract
// below guarantees both paths emit the identical Response sequence for the
// same seed. One class, SparseVector, runs every SVT variant in the
// library: each is a VariantSpec (core/variant_spec.h).
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

/// Execution counters of the batch engine, cleared on Reset(). They report
/// *how* a batch executed (which tier), never *what* it produced — outputs
/// are tier-independent by the chunk bound's conservativeness proof.
struct BatchRunStats {
  /// Chunks proven all-⊥ by the tier-1 bound: emitted without
  /// materializing a single ν (the log-free fast path).
  int64_t tier1_chunks_skipped = 0;
  /// Chunks that ran the tier-2 span scan over their ν (includes every
  /// per-query-threshold chunk with query noise).
  int64_t tier2_chunks_scanned = 0;
  /// Tier-2 scan segments walked — from the chunk's recorded hits or a
  /// compare over its ν block: one per surviving bound span the walk
  /// reaches, plus one per span remainder a resume after a positive
  /// re-enters. Dispatch-level independent, like every counter here.
  int64_t tier2_fused_segments = 0;
  /// Hierarchical-bound skips inside common-threshold tier-2 chunks:
  /// kBoundSpan-sized spans proven all-⊥ by the per-span max-|ν| bound
  /// after the whole-chunk bound failed — their transforms never ran.
  int64_t tier2_spans_skipped = 0;
  /// Span visits pruned by the QUANTIZED bound level (a subset of
  /// tier2_spans_skipped): only nonzero when a BoundPrefilter was attached
  /// to a common-threshold call. Dispatch-level independent, like every
  /// counter here.
  int64_t bound_spans_pruned_q = 0;
  /// Bytes the bound pass's score/threshold-side span reductions read per
  /// chunk: 8 per element and side at full precision, the prefilter's 2
  /// per element when quantized — the two-level prefilter's whole point.
  /// Counted once per chunk entering a bound-carrying path
  /// (deterministic in the workload shape: dispatch-level independent;
  /// resume-head re-reductions after positives are not counted).
  int64_t bound_bytes_touched = 0;
  /// Elements of per-query chunks whose magnitude word's top 53 bits
  /// reached their span's conservative skip word (the span's answer-max
  /// paired with its bar-min at ρ) in the fused pass: their transform is
  /// provably discharged. Element-granular — a pure function of the words
  /// and the skip-word vector — so dispatch-level independent, and the
  /// same whether the noise stage ran ahead or inline. Always 0 for a spec
  /// that resamples ρ: its chunks never take the fused pass.
  int64_t mega_words_skipped_q = 0;
  /// Resume scans entered under a ρ that differs from the ρ the chunk was
  /// entered with: the resumes that compare against the chunk's ν block
  /// under a moved bar. Counted centrally at the resume site, so
  /// dispatch-level independent.
  int64_t replay_rederivations = 0;
  /// Chunks whose noise stage entered the ν stream off a lane boundary:
  /// their fused pass runs the scalar lane at every dispatch level. Through
  /// SparseVector::RunAppend only a prefiltered call that inherits a
  /// mid-lane phase has them; every other call streams its alignment head
  /// first (core/batch_runner.h).
  int64_t unaligned_chunks = 0;
  /// Queries answered by the streaming Process() loop instead of the
  /// engine: every query of a RunAppend call shorter than
  /// BatchRunner::kStreamingCutover, and the alignment head of a longer
  /// call that enters the ν stream off a lane boundary (at most 3 queries;
  /// core/batch_runner.h). None of the counters above move for them.
  int64_t streamed_queries = 0;

  /// Adds `other`'s counters to these (the engine counts each chunk apart
  /// and adds it to the run's once the chunk is done).
  BatchRunStats& operator+=(const BatchRunStats& other) {
    tier1_chunks_skipped += other.tier1_chunks_skipped;
    tier2_chunks_scanned += other.tier2_chunks_scanned;
    tier2_fused_segments += other.tier2_fused_segments;
    tier2_spans_skipped += other.tier2_spans_skipped;
    bound_spans_pruned_q += other.bound_spans_pruned_q;
    bound_bytes_touched += other.bound_bytes_touched;
    mega_words_skipped_q += other.mega_words_skipped_q;
    replay_rederivations += other.replay_rederivations;
    unaligned_chunks += other.unaligned_chunks;
    streamed_queries += other.streamed_queries;
    return *this;
  }
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

/// The slow path at a positive, shared by Process() and the batch engine:
/// counts the positive, exhausts the run at the cutoff, redraws ρ (Alg. 2)
/// and builds the Response — Alg. 3's q + ν, an ε₃ answer q + Lap, or ⊤ —
/// drawing from `base_rng` in the order of contract step 3 below. `nu` is
/// the comparison noise that fired. The caller counts the query processed.
Response TakePositive(const VariantSpec& spec, Rng* base_rng,
                      SvtRunState* state, double answer, double nu);

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

/// The library's one SVT mechanism: a noisy threshold, optional query
/// noise, optional cutoff, optional ρ resampling, optional numeric output,
/// all read from a VariantSpec. The paper's Alg. 1-7, GPTT and the
/// exponential-noise variants are specs (core/variant_spec.h); Create()
/// builds the standard SVT (Alg. 7, Alg. 1 by default) from SvtOptions,
/// and core/svt_variants.h builds the published variants by name.
///
/// Typical streaming use:
///
///   Rng rng(seed);
///   auto svt = SparseVector::Create(options, &rng).value();
///   for (...) {
///     if (svt->exhausted()) break;
///     Response r = svt->Process(query.Evaluate(db), threshold);
///   }
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
///      NextUint64() (BlockRng's one scalar step) and FillUint64() walk
///      this one stream; FillUint64 runs vecmath's generator
///      (vec::FillStream), whose step XoshiroNext is written once over
///      the lane traits, like the kernels of (4). So block prefetch sizes
///      and dispatch level never move a draw's position, and
///      tests/common_rng_block_test.cc pins both walks at every dispatch
///      level against an independent xoshiro256++ reference. Changing the
///      lane count or layout changes every stream — a golden re-record,
///      like (4).
///
/// In-kernel generation is stream-neutral: the batch engine's fused
/// pass (vec::MegaFillMinScanSpans, common/vecmath.h) steps the SAME
/// generator FillUint64 runs — the four lockstep xoshiro256++ lanes of
/// step (5), held in registers — without materializing the words, and
/// pushes each word through the identical word→variate lattice of step
/// (4). A chunk consumes exactly
/// n · words-per-variate words whether it scans, skips, or records hits,
/// so the stream position after any chunk is the one a FillUint64 of its
/// words leaves — restoring the kernel's BlockRng::State moves the cursor,
/// never the stream. tests/common_vecmath_test.cc diffs all four forms of
/// the pass (Laplace or exponential ν, common or per-query bar) against a
/// fill + transform + compare walk at every dispatch level,
/// tests/core_batch_runner_test.cc diffs the engine against streaming, and
/// no golden re-record accompanied the fused pass.
///
/// Filling the ν block is draw-order-neutral: a chunk without a complete
/// hit record (every chunk of a spec that resamples ρ, and any chunk whose
/// record overflowed or that had no sound skip word) compares against a
/// per-chunk block of ν instead of rescanning, transformed whole the first
/// time the walk needs it. The block is transformed from the chunk's own
/// words — the ones the chunk fill consumed, or, when the fused pass
/// consumed them in registers, the same words regenerated from the
/// chunk-entry BlockRng::State — through the block kernels of step (4).
/// The stream position after the chunk is the fused pass's or the fill's
/// either way, so steps 1-5 are unchanged and no golden re-record
/// accompanied it.
///
/// Running the noise stage ahead of the walk is draw-order-neutral: a long
/// call's per-chunk noise stage (core/batch_runner.h) may run on pool
/// workers before the walk reaches the chunk, each group of chunks started
/// from the ν stream position BlockRng::Advance jumps to. xoshiro256's
/// state transition is linear over GF(2), so the jump lands exactly where
/// generating every word before it would, and each chunk reads the words
/// of step (2) the serial loop would; the stage never touches the base
/// stream, whose draws (step 3) stay in the serial walk, in emission
/// order. Steps 1-5 are unchanged and no golden re-record accompanied it;
/// tests/core_batch_runner_test.cc diffs the call run ahead against the
/// same call run inline and against streaming.
///
/// Quantized bound representations are BOUND-ONLY: the BoundPipeline's
/// quantized prefilter level (core/bound_pipeline.h,
/// data/bound_prefilter.h) reads uint16 codes instead of the
/// full-precision answers of a common-threshold call, but those codes
/// feed exclusively the conservative skip decisions and skip-word
/// derivation — never a draw, a word→variate transform, or an emitted
/// value. Every chunk still consumes exactly n · words-per-variate ν words
/// whether a span was pruned by the quantized level, the full-precision
/// level, or not at all, so steps 1-5 are untouched and the emitted
/// Response sequence is bit-identical with the prefilter attached or
/// absent. Tier counters may legitimately differ between the two (the
/// quantized bound is weaker, so it prunes a subset of what full precision
/// would); they remain dispatch-level independent within either setting.
///
/// Monte-Carlo trials run in key-split groups (core/trial_walk.h): the
/// auditor takes one draw from the caller's stream as a key, and lane L of
/// trial group g is the stream Rng(LaneSeed(key, 8g + L)). Each lane is
/// held to the contract above exactly as `SparseVector mech(spec,
/// &lane_rng)` followed by Reset() + RunAppend per run would consume it:
/// the TrialWalker fetches a lane's base words in bulk and transforms ρ
/// and every resample a run can reach through the kernels of step (4);
/// vec::SeededFireMasks seeds every run's ν substream as BlockRng(seed)
/// does, transforms its variates with the same kernel bodies and compares
/// `answer + ν_i >= threshold + ρ` (or + the resample in force) in that
/// form, so each run compares the variates the streaming loop would, draw
/// for draw. tests/core_trial_walk_test.cc diffs every lane against that loop
/// at every dispatch level, and tests/audit_mc_parallel_test.cc pins the
/// auditor's hits, one golden per instance at every worker count.
///
/// Non-finite answers and thresholds (a written contract, which every path
/// — Process(), the batch engine and the trial walker — follows): query i fires
/// exactly when `answer + ν_i >= threshold + ρ` holds in IEEE-754 double
/// arithmetic, evaluated in that form. ν and ρ are always finite (every
/// scale is finite, VariantSpec::Validate(), and the word→variate map of
/// step 4 never yields ±inf or NaN), so when an
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
class SparseVector final {
 public:
  /// Runs `spec`, drawing the threshold noise from `rng`, which must
  /// outlive the mechanism. Aborts unless spec.Validate() passes; the
  /// factories return that failure as a Status instead.
  SparseVector(VariantSpec spec, Rng* rng);

  /// Validates `options`, builds the standard spec and draws the threshold
  /// noise from `rng`. `rng` must outlive the mechanism.
  static Result<std::unique_ptr<SparseVector>> Create(
      const SvtOptions& options, Rng* rng);

  /// Tests one query answer against `threshold`. Must not be called once
  /// exhausted() is true (checked).
  Response Process(double query_answer, double threshold);

  /// True once the mechanism has emitted its c-th positive outcome and
  /// aborted. Always false for specs without a cutoff.
  bool exhausted() const { return state_.exhausted; }

  /// Re-draws the threshold noise and clears counters — a fresh run with a
  /// fresh privacy budget.
  void Reset();

  /// Declarative noise structure (drives the closed-form audit).
  const VariantSpec& spec() const { return spec_; }

  /// Number of positive outcomes emitted since the last Reset().
  int positives_emitted() const { return state_.positives; }

  /// Number of queries processed since the last Reset().
  int64_t queries_processed() const { return state_.processed; }

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
  /// so a caller can keep one response vector across calls instead of
  /// re-allocating (and re-faulting) megabytes per request. Returns the
  /// number of responses appended. Runs the chunked batch engine
  /// (core/batch_runner.h), emitting the sequence a Process() loop would.
  ///
  /// Short-call rule: a call shorter than BatchRunner::kStreamingCutover
  /// queries (8) runs the streaming loop instead, after the same argument
  /// checks as a long call. Below that length the engine's fixed per-call
  /// cost exceeds the scalar draws it saves. bench_call_crossover measures
  /// the crossover (core/batch_runner.h). A longer call that enters the ν
  /// stream off a lane boundary runs its first few queries (at most 3)
  /// through the loop too, so the engine starts lane-aligned: the
  /// alignment head (core/batch_runner.h). The Monte-Carlo auditor's many
  /// short runs batch across runs instead: see core/trial_walk.h.
  ///
  /// Buffer-reuse contract: RunAppend only appends — it never clears,
  /// shrinks, or reorders the elements already in *out, and between calls
  /// the vector is an ordinary std::vector the caller owns. clear() +
  /// RunAppend in a loop therefore reuses one allocation for every batch
  /// once the capacity has grown to the high-water mark. Appended elements
  /// may be invalidated by reallocation on a later append, so take spans
  /// into *out only after the last RunAppend of a cycle. (The serving
  /// drain needs none of this: it clears each request's own vector and
  /// appends straight into it, serving/sharded_server.h.)
  size_t RunAppend(std::span<const double> answers,
                   std::span<const double> thresholds,
                   std::vector<Response>* out);
  size_t RunAppend(std::span<const double> answers, double threshold,
                   std::vector<Response>* out);

  /// Common-threshold RunAppend with a quantized bound prefilter attached
  /// (data/bound_prefilter.h): `prefilter` must have been built over
  /// exactly these answers, or be nullptr. The prefilter only accelerates
  /// the batch engine's conservative bound pass — emitted Responses are
  /// bit-identical with it attached or absent. Calls the streaming loop
  /// answers whole ignore it (the loop has no bound pass).
  size_t RunAppend(std::span<const double> answers, double threshold,
                   const BoundPrefilter* prefilter,
                   std::vector<Response>* out);

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

  /// The realized (ε₁, ε₂, ε₃) split.
  const BudgetSplit& budget() const { return spec_.budget; }

  /// Scale of the per-query noise ν_i (used by SVT-ReTr's "kD" boosts).
  double query_noise_scale() const { return spec_.nu_scale; }

 private:
  /// Draws ρ and derives the ν substream per the contract above.
  void InitRun();

  /// How many leading queries of an n-query RunAppend call the streaming
  /// loop answers before the engine takes the rest: all of a short call,
  /// else the alignment head (core/batch_runner.h), usually 0.
  size_t StreamedHead(size_t n) const;

  /// Every RunAppend but a prefiltered one the engine takes whole, over
  /// its bar form: one common threshold (double) or one threshold per
  /// query (std::span<const double>).
  template <typename Bars>
  size_t RunBars(std::span<const double> answers, Bars bars,
                 std::vector<Response>* out);

  /// The Process() loop behind the short-call rule and the alignment head.
  template <typename Bars>
  size_t Stream(std::span<const double> answers, Bars bars,
                std::vector<Response>* out);

  VariantSpec spec_;
  Rng* rng_;  // base stream
  SvtRunState state_;
};

}  // namespace svt

#endif  // SPARSEVEC_CORE_SVT_H_
