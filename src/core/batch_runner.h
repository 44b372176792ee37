// Chunked batch execution engine behind SparseVector::Run and RunAppend.
//
// The streaming Process() loop pays, per query, two scalar RNG calls and a
// log() stuck behind them. The experiments (Figs. 2–5) and the audit layer
// push millions of queries through SVT. BatchRunner replaces that loop
// with:
//
//   * per chunk, one pass generating the raw ν words from the mechanism's
//     dedicated ν substream (in registers, or as one bulk fill);
//   * a tier-1 chunk bound (common threshold only): an integer min over the
//     magnitude uniforms bounds every |ν| in the chunk, and when even the
//     largest answer provably cannot cross the noisy threshold the whole
//     chunk is emitted as ⊥ without a single log() — the dominant case in
//     ⊥-heavy SVT workloads, where negatives are free;
//   * otherwise a per-span scan of the chunks that survive, described
//     below;
//   * per-query-threshold chunks (no sound chunk-wide tier-1 bound — there
//     is no single bar) have a per-span bound of their own: the
//     BoundPipeline pairs each span's answer upper bound with its
//     *threshold lower bound*, so spans that provably cannot fire under
//     any of their bars skip the scan outright;
//   * a slow path only at positives, handling the cutoff, Alg. 2's ρ
//     resampling, Alg. 3's q+ν output and ε₃ numeric answers — the
//     streaming loop's own (TakePositive, core/svt.h).
//
// A chunk of a spec that never moves ρ, whose answers admit a sound skip
// word, never writes its raw words to memory: one lane-resident pass
// (vec::MegaFillMinScanSpans steps the four lockstep xoshiro lanes in
// registers) generates them, reduces them to the per-span minima the
// bounds need, and records every element that fires under the call's bar,
// transforming only the lockstep groups the skip word cannot discharge.
// Resumes then replay the record, touching no word. Every other chunk —
// one whose spec resamples ρ, one with an answer at or above the bar, or
// one whose record overflowed — scans its surviving spans by comparing
// against a ν block: the chunk's ν are transformed whole, from its words,
// the first time the walk needs them, and every later resume in the
// chunk, under whatever bar ρ has moved to, only compares. Hit-dense calls
// are where this matters: a resume costs a compare, not a regeneration.
// Either way the responses, statistics and stream positions are the
// streaming loop's (core/svt.h).
//
// Both bar forms — one common threshold, or one threshold per query — run
// one walk, a template over the bar source.
//
// Each call splits into two parts. The *noise stage* is a pure function of
// a chunk's ν entry state, its answers (and thresholds) and, when the spec
// never moves it, ρ: it builds the chunk's bound plan and either runs the
// fused pass (span minima, recorded hits, end state) or fills the chunk's
// words. The serial *walk* does everything that depends on the run so far:
// the bound decisions, replay and compares, positives, the cutoff, the ρ
// and ε₃ draws from the base stream, and the ⊥ fill (ν-free specs, Alg.
// 5, have no stage). Small calls, and calls made from a pool worker or
// inside a ParallelFor slice, run the stage inline, just before the walk
// needs each chunk. A call of at least kParallelMinQueries queries runs it
// on ThreadPool::Global() workers instead: each worker claims the next group
// of chunks, jumps a copy of the call's ν entry state to the group's first
// word (BlockRng::Advance, exact because xoshiro is linear over GF(2)) and
// writes the chunks' records into a bounded ring, which the walk consumes
// in chunk order; the worker also derives the span ν bounds and, for a
// chunk without a complete record, transforms its ν block. A chunk no worker
// has delivered within about one chunk's stage time the walk runs itself,
// so a worker the scheduler preempts on a busy host costs the walk
// microseconds, not a time slice; if that keeps happening the walk stops
// the workers and the next few long calls run inline too. One call at a
// time runs ahead; a long call made meanwhile from another thread runs
// inline, since the first one's workers hold the pool. When the cutoff
// fires, the walk stops the workers. Every chunk sees the words the serial
// loop would, so responses, both streams and every counter are the same
// either way (core/svt.h).
//
// Every conservative skip decision above — tier-1 chunk tests, tier-2
// span tests (common and per-query), and the fused passes' skip-word
// inputs — is computed by a single BoundPipeline (core/bound_pipeline.h),
// which, on a common-threshold call, optionally reads a quantized
// BoundPrefilter (data/bound_prefilter.h) instead of the answers; the
// runner only decides how surviving spans get scanned.
//
// Which tier each chunk took is counted in SvtRunState::batch (exposed as
// SparseVector::batch_stats()) so tests and capacity planning can verify
// a workload actually exercises the tier they target.
//
// Short calls never reach the chunk engine. SparseVector::RunAppend sends
// every call shorter than kStreamingCutover queries through the streaming
// Process() loop and counts them in
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
// A longer call may stream an *alignment head* first. A call inherits the
// ν stream phase the previous call left (an odd-length Laplace call leaves
// it mid-lane), and the fused pass runs its SIMD lanes only from a lane
// boundary: from anywhere else every chunk of the call takes the scalar
// lane. So when a call draws ν, has no prefilter attached and enters off a
// boundary, the loop answers the first h queries — the fewest that bring
// the stream to the next boundary: 1 for Laplace ν, 4 − phase for
// exponential ν — and the runner takes the rest, lane-aligned. A
// prefiltered call keeps the misaligned entry: the prefilter's span grid
// is anchored at the array start, and the shifted walk could not use it.
// BatchRunStats::unaligned_chunks counts the chunks that still enter off a
// boundary.
//
// Under the draw-order contract documented on SparseVector (core/svt.h)
// the emitted Response sequence is bit-for-bit the one the streaming
// Process() loop would produce for the same seed — at every vecmath
// dispatch level, since the kernels are bit-identical across levels.

#ifndef SPARSEVEC_CORE_BATCH_RUNNER_H_
#define SPARSEVEC_CORE_BATCH_RUNNER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/response.h"
#include "core/svt.h"
#include "core/variant_spec.h"

namespace svt {

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

  /// Calls of at least this many queries run the noise stage on pool
  /// workers ahead of the walk (header comment), unless the call is made
  /// from a pool worker or inside a ParallelFor slice. bench_stage_crossover
  /// sweeps lengths 2^13-2^20 for the three batch_scan shapes, ahead
  /// against inline, on a 4-vCPU 2.0 GHz Xeon with AVX-512 (a pool of 4,
  /// so 3 stage workers). Three sweeps put the crossover here: the
  /// geometric mean of the ahead/inline ratios was 1.30, 1.00 and 1.07 at
  /// 2^14, 0.98, 0.75 and 0.86 at 2^15, and 0.50-0.70 from 2^16 on. Below
  /// it, the workers' wakeup (~15-20 µs a call) outweighs what they take
  /// off the walk. At 2^20, ns per query ahead/inline was 2.5-3.8/4.7-6.1
  /// (common), 2.8-3.4/5.7-6.8 (per-query) and 4.2-5.4/8.1-10.5
  /// (resample).
  static constexpr size_t kParallelMinQueries = size_t{1} << 15;

  /// Aborts unless the arguments of a run agree: per-query thresholds
  /// match the answers in size, and an attached `prefilter` (may be null)
  /// was built over an answers array of this size. Every Run applies it,
  /// and SparseVector applies it before its short-call branch, so short
  /// calls are checked alike.
  static void CheckArgs(std::span<const double> answers,
                        const BoundPrefilter* prefilter);
  static void CheckArgs(std::span<const double> answers,
                        std::span<const double> thresholds);

  /// Makes room for `count` more responses in *out, growing it
  /// geometrically, and returns where they start. Run appends chunk by
  /// chunk after it, so each chunk's ⊥ fill lands just before the chunk is
  /// scanned; SparseVector reserves a whole call with it before streaming
  /// the call's alignment head.
  static Response* ReserveAppend(std::vector<Response>* out, size_t count);

  /// Runs over the state of a live mechanism; all three must outlive the
  /// runner. `state` is mutated exactly as the streaming path would.
  /// `parallel_min_queries` replaces kParallelMinQueries for this runner —
  /// the seam the crossover sweep and the equivalence tests use to put
  /// shorter calls through the stage run ahead.
  BatchRunner(const VariantSpec& spec, Rng* base_rng, SvtRunState* state,
              size_t parallel_min_queries = kParallelMinQueries);

  /// Appends one Response per processed query to *out, stopping after the
  /// positive that exhausts the cutoff; returns the number appended.
  /// Appends nothing when the mechanism is already exhausted.
  size_t Run(std::span<const double> answers,
             std::span<const double> thresholds, std::vector<Response>* out);

  /// Common-threshold overload (the hot path of the experiments), with the
  /// tier-1 chunk bound enabled.
  size_t Run(std::span<const double> answers, double threshold,
             std::vector<Response>* out);

  /// Prefiltered form: `prefilter` (may be null) must be built over
  /// exactly these answers — sizes are checked. When attached, the
  /// BoundPipeline's skip decisions read the quantized codes instead of
  /// the doubles; responses, statistics beyond the bound counters, and
  /// stream positions are bit-identical either way (core/svt.h contract).
  size_t Run(std::span<const double> answers, double threshold,
             const BoundPrefilter* prefilter, std::vector<Response>* out);

 private:
  /// True when a call of `total` queries runs its noise stage ahead on
  /// the pool rather than inline.
  bool RunStageAhead(size_t total) const;

  template <typename FindNext>
  size_t ScanChunk(const double* answers, size_t n, FindNext find_next,
                   Response* res);

  /// The walk behind every Run, over a bar source: one common threshold
  /// or per-query thresholds (batch_runner.cc).
  template <typename Bars>
  size_t RunBars(std::span<const double> answers, Bars bars,
                 const BoundPrefilter* prefilter, std::vector<Response>* out);

  const VariantSpec& spec_;
  Rng* base_rng_;
  SvtRunState* state_;
  size_t parallel_min_queries_;
};

}  // namespace svt

#endif  // SPARSEVEC_CORE_BATCH_RUNNER_H_
