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
/// Each worker stream runs this once.
///
/// Trials execute through RunAppend over one response buffer reused for
/// the worker's whole slice. Windows shorter than
/// BatchRunner::kStreamingCutover run the streaming Process() loop (the
/// scalar vecmath kernels), since the batch engine's fixed per-call cost
/// dominates a 2-6-query trial; longer windows run the engine's block
/// kernels. Each trial processes its full pattern window (RunAppend does
/// not stop at a mismatch the way the old scalar loop broke early), so for
/// specs that draw from the base stream at positives the stream position
/// after a trial is a function of the trial alone, never of where a
/// mismatch occurred; per-trial outcomes are unchanged (the ν substream is
/// re-derived every Reset()).
int64_t CountPatternHits(const VariantSpec& spec,
                         std::span<const double> query_answers,
                         double threshold, std::string_view pattern,
                         int64_t trials, Rng* rng) {
  CustomSvt mech(spec, rng);
  const std::span<const double> window =
      query_answers.first(pattern.size());
  std::vector<Response> responses;
  responses.reserve(pattern.size());
  int64_t hits = 0;
  for (int64_t trial = 0; trial < trials; ++trial) {
    mech.Reset();
    responses.clear();
    // Fewer responses than pattern positions means the cutoff exhausted
    // the run before the pattern window completed: no match.
    bool match = mech.RunAppend(window, threshold, &responses) ==
                 pattern.size();
    for (size_t i = 0; match && i < pattern.size(); ++i) {
      match = responses[i].is_positive() == (pattern[i] == 'T');
    }
    if (match) ++hits;
  }
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
