// Chunked batch execution engine for spec-driven SVT mechanisms.
//
// SvtMechanism::Run's reference implementation pays, per query, a virtual
// dispatch, a Laplace distribution construction, two scalar RNG calls and a
// log() stuck behind them. The experiments (Figs. 2–5) and the audit layer
// push millions of queries through that loop. BatchRunner replaces it with:
//
//   * per chunk, one bulk fill of the raw ν words from the mechanism's
//     dedicated ν substream;
//   * a tier-1 chunk bound (common threshold only): an integer min over the
//     magnitude uniforms bounds every |ν| in the chunk, and when even the
//     largest answer provably cannot cross the noisy threshold the whole
//     chunk is emitted as ⊥ without a single log() — the dominant case in
//     ⊥-heavy SVT workloads, where negatives are free;
//   * otherwise a *fused* single-pass sample-and-scan
//     (vec::FusedLaplaceScan*): the full Laplace inverse-CDF transform and
//     the positive test run in the same register pass straight off the raw
//     words — the ν block of the pre-fusion engine is never materialized,
//     and resume segments after a positive re-enter the kernel past it, so
//     every word pair is transformed exactly once per chunk;
//   * per-query-threshold chunks (no sound chunk-wide tier-1 bound — there
//     is no single bar) pull their words through Rng::FillUint64Bounded in
//     L1-resident sub-blocks and scan them fused while still hot, with a
//     per-span bound of their own: the BoundPipeline pairs each span's
//     answer upper bound with its *threshold lower bound*, so spans that
//     provably cannot fire under any of their bars skip the scan outright;
//   * a slow path only at positives, handling the cutoff, Alg. 2's ρ
//     resampling, Alg. 3's q+ν output and ε₃ numeric answers.
//
// On top of the fused structure sits a kernel-mode axis
// (BatchKernelMode below). In the default kMegakernel mode a chunk whose
// bar cannot move and whose answers admit a sound skip word never writes
// its raw words to memory: one lane-resident pass (vecmath's Mega* family
// steps the four lockstep xoshiro lanes in registers) generates them,
// reduces them to the per-span minima the bounds need, and records every
// element that fires under the chunk-entry bar, transforming only the
// lockstep groups the skip word cannot discharge. Resumes then replay the
// record, touching no word. Every other chunk — one whose spec resamples
// ρ, one with an answer at or above the bar, or one whose record
// overflowed — scans its surviving spans by comparing against a ν block:
// each span's ν are transformed once, from the chunk's words, the first
// time the walk needs the span, and every later resume in the chunk, under
// whatever bar ρ has moved to, only compares. Hit-dense calls are where
// this matters: a resume costs a compare, not a regeneration.
// kComposition keeps the FillUint64-into-scratch pipeline with fused scans
// for every surviving span; both modes emit bit-identical responses,
// statistics, and stream positions (core/svt.h), so the toggle is purely a
// performance axis — and the A/B seam the paired benchmarks use.
//
// Every conservative skip decision above — tier-1 chunk tests, tier-2
// span tests (common and per-query), and the megakernels' skip-word
// inputs — is computed by a single BoundPipeline (core/bound_pipeline.h),
// which optionally reads a quantized BoundPrefilter
// (data/bound_prefilter.h) instead of the double arrays; the runner only
// decides how surviving spans get scanned.
//
// Which tier each chunk took is counted in SvtRunState::batch (exposed as
// SpecDrivenSvt::batch_stats()) so tests and capacity planning can verify
// a workload actually exercises the tier they target.
//
// Short calls never reach the chunk engine. SpecDrivenSvt::RunAppend sends
// every call shorter than kStreamingCutover queries through the streaming
// reference loop (SvtMechanism::RunAppend) and counts them in
// BatchRunStats::streamed_queries. Below that length the runner's fixed
// per-call cost — the chunk set-up, a generate-and-bound pass over whole
// lockstep groups, the bound pipeline — outweighs the handful of scalar
// draws it replaces. The loop emits the identical Responses and leaves both
// streams where the runner would (draw-order contract, core/svt.h), so the
// rule is a size test, not a second implementation. bench_call_crossover
// sweeps Reset + one call over lengths 1-64 for Laplace and exponential ν
// on ⊥-heavy, near-bar and ρ-resampling specs; the constant is the length
// from which the runner wins on the geometric mean of those rows (see
// kStreamingCutover).
//
// Repeated short runs batch across runs instead. SpecDrivenSvt::RunTrials
// (Reset + one short call, many times — the Monte-Carlo auditor's trials)
// hands them to RunTrials below when the spec draws nothing from the base
// stream at a positive: every run then consumes exactly one ρ variate and
// one ν seed word, so a block of kTrialBlock runs fills its base words in
// one FillUint64, transforms every ρ in one dispatched call, expands every
// run's ν substream into one buffer (BlockRng::FillSeeded, eight seeds per
// instruction at the AVX-512 level) and transforms all of the block's ν in
// one more, leaving only the comparisons and the Response writes scalar.
// Windows at or above the cutover, and specs that resample ρ or answer
// positives with ε₃ noise, keep the per-run Reset + RunAppend loop.
//
// Under the draw-order contract documented on SpecDrivenSvt (core/svt.h)
// the emitted Response sequence is bit-for-bit the one the streaming
// Process() loop would produce for the same seed — at every vecmath
// dispatch level, since the kernels are bit-identical across levels.

#ifndef SPARSEVEC_CORE_BATCH_RUNNER_H_
#define SPARSEVEC_CORE_BATCH_RUNNER_H_

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/response.h"
#include "core/svt.h"
#include "core/variant_spec.h"

namespace svt {

/// Which tier-2 kernel family the batch engine drives. The modes emit
/// bit-identical responses, statistics, and RNG stream positions; the
/// toggle exists for benchmarking (paired A/B) and as a fallback seam.
enum class BatchKernelMode {
  /// Lane-resident generate-and-scan (vec::Mega*): raw ν words are
  /// produced and consumed inside the kernels, never written to memory.
  kMegakernel,
  /// FillUint64 into an L1 scratch buffer + fused scan kernels reading it.
  kComposition,
};

/// Process-wide kernel mode, initialized once from SVT_BATCH_KERNELS
/// ("megakernel" | "composition"; unset means megakernel; an unrecognized
/// value logs one warning and falls back to megakernel) and adjustable at
/// runtime for A/B and equivalence tests.
BatchKernelMode ActiveBatchKernelMode();
void SetBatchKernelMode(BatchKernelMode mode);

/// Parses a SVT_BATCH_KERNELS value into *mode. Returns false — leaving
/// *mode untouched — on anything other than the two recognized spellings.
bool ParseBatchKernelMode(std::string_view value, BatchKernelMode* mode);

class BatchRunner {
 public:
  /// Queries per chunk: 32 KiB of raw ν words, prefetched whole so the
  /// tier-1 bound can reduce over them before any transform runs.
  static constexpr size_t kChunkSize = 2048;

  /// Queries per hierarchical tier-2 bound span (common threshold): when
  /// the whole-chunk bound fails, the same conservative max-|ν| test is
  /// re-applied per span this size — over few enough draws that
  /// near-threshold workloads still skip most spans' transforms.
  static constexpr size_t kBoundSpan = 128;

  /// Queries per fused per-query sub-block (raw words per bounded fill).
  /// Tuned to one whole chunk on the reference container: sweeping
  /// 256/512/1024/2048 with an in-process A/B showed the smaller fills
  /// 10-25% slower (per-call lockstep state round-trips plus restarted
  /// scan streams outweigh the L1 footprint win there). The sub-block
  /// structure stays because the knob is host-dependent — a machine with
  /// a smaller L1d or slower L2 wants it below the chunk size.
  static constexpr size_t kFusedSubBlock = kChunkSize;

  /// Calls shorter than this many queries run the streaming loop instead
  /// of the runner (header comment). bench_call_crossover put the
  /// crossover at 7, 8 and 7 in three sweeps on a 4-vCPU 2.0 GHz Xeon with
  /// AVX-512: at n = 4 the runner costs 240-430 ns per Reset + call against
  /// 170-360 ns streaming, at n = 8 it costs 270-380 ns against 280-600.
  /// 8 is also one AVX-512 group of variates, the length at which the
  /// runner's cost drops. Hit-dense calls (a positive every few queries)
  /// cross at 8-16: each resume after a positive compares against the
  /// chunk's ν block instead of regenerating words, so at n = 64 the runner
  /// takes 1.1-2.2 µs against 3.0-4.2 µs streaming. The rule does not
  /// chase them.
  static constexpr size_t kStreamingCutover = 8;

  /// Runs per RunTrials block: one base-stream fill, one ρ transform and
  /// one ν transform each. At the longest batched window (7 Laplace ν) the
  /// block's scratch is about 30 KiB of stack.
  static constexpr size_t kTrialBlock = 128;

  /// True when RunTrials may batch runs of `window` queries under `spec`:
  /// the window is shorter than kStreamingCutover, and the spec draws
  /// nothing from the base stream at a positive (no ρ resampling, no ε₃
  /// answer), so every run consumes the same base words.
  static bool CanBatchTrials(const VariantSpec& spec, size_t window);

  /// Aborts unless the arguments of a run agree: per-query thresholds
  /// match the answers in size, and an attached `prefilter` (may be null)
  /// was built over arrays of this size — with bar-side codes for a
  /// per-query run. Every Run applies it, and SpecDrivenSvt applies it
  /// before its short-call branch, so short calls are checked alike.
  static void CheckArgs(std::span<const double> answers,
                        const BoundPrefilter* prefilter);
  static void CheckArgs(std::span<const double> answers,
                        std::span<const double> thresholds,
                        const BoundPrefilter* prefilter);

  /// Runs over the state of a live mechanism; all three must outlive the
  /// runner. `state` is mutated exactly as the streaming path would.
  BatchRunner(const VariantSpec& spec, Rng* base_rng, SvtRunState* state);

  /// Appends one Response per processed query to *out, stopping after the
  /// positive that exhausts the cutoff; returns the number appended.
  /// Appends nothing when the mechanism is already exhausted.
  size_t Run(std::span<const double> answers,
             std::span<const double> thresholds, std::vector<Response>* out);

  /// Common-threshold overload (the hot path of the experiments), with the
  /// tier-1 chunk bound enabled.
  size_t Run(std::span<const double> answers, double threshold,
             std::vector<Response>* out);

  /// Prefiltered forms: `prefilter` (may be null) must be built over
  /// exactly these answers (and, pairwise, thresholds) arrays — sizes are
  /// checked. When attached and SVT_BOUND_PREFILTER is on, the
  /// BoundPipeline's skip decisions read the quantized codes instead of
  /// the doubles; responses, statistics beyond the bound counters, and
  /// stream positions are bit-identical either way (core/svt.h contract).
  size_t Run(std::span<const double> answers,
             std::span<const double> thresholds,
             const BoundPrefilter* prefilter, std::vector<Response>* out);
  size_t Run(std::span<const double> answers, double threshold,
             const BoundPrefilter* prefilter, std::vector<Response>* out);

  /// `trials` fresh runs over `window` (CanBatchTrials must hold), each
  /// starting the way Reset() does: appends every run's responses to *out
  /// back to back and its response count to *counts, and returns the
  /// number of responses appended. The responses, both streams and the
  /// run state afterwards are those of `trials` rounds of Reset() +
  /// RunAppend(window, threshold) — including the last run's counters,
  /// whose queries count as streamed_queries like any short call's.
  size_t RunTrials(std::span<const double> window, double threshold,
                   int64_t trials, std::vector<Response>* out,
                   std::vector<size_t>* counts);

 private:
  Response MakePositiveResponse(double answer, double nu_j);

  template <typename FindNext>
  size_t ScanChunk(const double* answers, size_t n, FindNext find_next,
                   Response* res);

  const VariantSpec& spec_;
  Rng* base_rng_;
  SvtRunState* state_;
};

}  // namespace svt

#endif  // SPARSEVEC_CORE_BATCH_RUNNER_H_
