#include "audit/monte_carlo.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/svt_variants.h"

namespace svt {

namespace {

/// Runs `trials` simulations of `spec` against `pattern` drawing all
/// randomness from `rng`; returns the number of exact pattern matches.
/// Each worker stream runs this once, on a copy of the stream in its own
/// stack frame that is written back at the end: the parallel workers'
/// streams sit side by side in one vector, and stepping them in place would
/// make every Reset and every ρ redraw write cache lines the neighbouring
/// workers write too.
///
/// Trials execute through SpecDrivenSvt::RunTrials, kTrialsPerCall at a
/// time, over response and count buffers reused for the worker's whole
/// slice. RunTrials batches the short windows of specs that draw nothing
/// from the base stream at a positive — one dispatched ρ transform and one
/// ν transform per block of trials — and runs every other trial as Reset()
/// + RunAppend. Each trial processes its full pattern window (RunAppend
/// does not stop at a mismatch the way the old scalar loop broke early),
/// so for specs that draw from the base stream at positives the stream
/// position after a trial is a function of the trial alone, never of where
/// a mismatch occurred; per-trial outcomes are unchanged (the ν substream
/// is re-derived every Reset()).
int64_t CountPatternHits(const VariantSpec& spec,
                         std::span<const double> query_answers,
                         double threshold, std::string_view pattern,
                         int64_t trials, Rng* rng) {
  // Trials per RunTrials call: enough to fill a couple of the batched
  // path's blocks, few enough that the buffers stay a few tens of KiB.
  constexpr int64_t kTrialsPerCall = 256;
  Rng local = *rng;
  CustomSvt mech(spec, &local);
  const std::span<const double> window =
      query_answers.first(pattern.size());
  std::vector<Response> responses;
  std::vector<size_t> counts;
  responses.reserve(kTrialsPerCall * pattern.size());
  counts.reserve(kTrialsPerCall);
  int64_t hits = 0;
  for (int64_t done = 0; done < trials; done += kTrialsPerCall) {
    responses.clear();
    counts.clear();
    mech.RunTrials(window, threshold,
                   std::min(kTrialsPerCall, trials - done), &responses,
                   &counts);
    const Response* run = responses.data();
    for (size_t count : counts) {
      // Fewer responses than pattern positions means the cutoff exhausted
      // the run before the pattern window completed: no match.
      bool match = count == pattern.size();
      for (size_t i = 0; match && i < count; ++i) {
        match = run[i].is_positive() == (pattern[i] == 'T');
      }
      if (match) ++hits;
      run += count;
    }
  }
  *rng = local;
  return hits;
}

}  // namespace

McEstimate EstimateOutputProbability(const VariantSpec& spec,
                                     std::span<const double> query_answers,
                                     double threshold,
                                     std::string_view pattern, Rng& rng,
                                     const McOptions& options) {
  SVT_CHECK(pattern.size() <= query_answers.size())
      << "pattern longer than the answer stream";
  SVT_CHECK(options.trials > 0);
  // BinomialUpperBound would reject a bad confidence too, but only after
  // every trial has run.
  SVT_CHECK(options.confidence > 0.5 && options.confidence < 1.0)
      << "confidence must lie in (0.5, 1), got " << options.confidence;
  for (char c : pattern) {
    SVT_CHECK(c == '_' || c == 'T') << "invalid pattern char '" << c << "'";
  }

  int workers = options.num_workers <= 0 ? ThreadPool::HardwareThreads()
                                         : options.num_workers;
  workers = static_cast<int>(
      std::min<int64_t>(workers, options.trials));

  int64_t hits = 0;
  if (workers == 1) {
    hits = CountPatternHits(spec, query_answers, threshold, pattern,
                            options.trials, &rng);
  } else {
    // Fork every worker stream up front on the calling thread: the streams
    // (and the trial slices, fixed by ParallelFor's static split) then
    // depend only on (rng state, workers), never on scheduling.
    std::vector<Rng> streams;
    streams.reserve(workers);
    for (int w = 0; w < workers; ++w) streams.push_back(rng.Fork());
    std::vector<int64_t> worker_hits(workers, 0);
    ParallelFor(options.trials, workers,
                [&](int64_t begin, int64_t end, int slice) {
                  worker_hits[slice] =
                      CountPatternHits(spec, query_answers, threshold,
                                       pattern, end - begin, &streams[slice]);
                });
    for (int64_t h : worker_hits) hits += h;
  }

  McEstimate est;
  est.hits = hits;
  est.trials = options.trials;
  est.p_hat = static_cast<double>(hits) / static_cast<double>(options.trials);
  est.lower = BinomialLowerBound(hits, options.trials, options.confidence);
  est.upper = BinomialUpperBound(hits, options.trials, options.confidence);
  return est;
}

}  // namespace svt
