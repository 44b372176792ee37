#include "audit/monte_carlo.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/trial_walk.h"

namespace svt {

namespace {

/// Walks trial groups `claim` at a time, claimed from *next_group until
/// every one of the `groups` groups of the `trials` trials is taken, and
/// returns how many of the trials it walked reproduced the pattern. A hit
/// is a run that processed the whole window with exactly the pattern's ⊤
/// positions set in its mask (a cutoff that exhausts the run early is a
/// mismatch).
int64_t CountPatternHits(const VariantSpec& spec,
                         std::span<const double> window, double threshold,
                         std::span<const uint64_t> pattern_mask, uint64_t key,
                         int64_t trials, int64_t groups, int64_t claim,
                         std::atomic<int64_t>* next_group) {
  constexpr int64_t kGroup = TrialWalker::kGroupTrials;
  const size_t mask_words = pattern_mask.size();
  TrialWalker walker(spec, window, threshold);
  std::vector<uint64_t> masks(claim * kGroup * mask_words);
  std::vector<size_t> processed(claim * kGroup);
  int64_t hits = 0;
  // g < groups keeps g * kGroup below trials.
  for (int64_t g = next_group->fetch_add(claim, std::memory_order_relaxed);
       g < groups;
       g = next_group->fetch_add(claim, std::memory_order_relaxed)) {
    const size_t runs =
        static_cast<size_t>(std::min(claim * kGroup, trials - g * kGroup));
    walker.WalkGroups(key, g, runs, {masks.data(), runs * mask_words},
                      {processed.data(), runs});
    for (size_t r = 0; r < runs; ++r) {
      bool hit = processed[r] == window.size();
      for (size_t w = 0; w < mask_words; ++w) {
        hit &= masks[r * mask_words + w] == pattern_mask[w];
      }
      hits += hit;
    }
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
  SVT_CHECK(options.trials > 0 && options.trials <= McOptions::kMaxTrials)
      << "trials must lie in [1, " << McOptions::kMaxTrials << "], got "
      << options.trials;
  // BinomialUpperBound would reject a bad confidence too, but only after
  // every trial has run.
  SVT_CHECK(options.confidence > 0.5 && options.confidence < 1.0)
      << "confidence must lie in (0.5, 1), got " << options.confidence;
  for (char c : pattern) {
    SVT_CHECK(c == '_' || c == 'T') << "invalid pattern char '" << c << "'";
  }

  const std::span<const double> window = query_answers.first(pattern.size());
  std::vector<uint64_t> pattern_mask(TrialWalker::MaskWords(pattern.size()));
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == 'T') pattern_mask[i / 64] |= uint64_t{1} << i % 64;
  }

  // The trial sequence's one key (header comment). Groups are claimed
  // dynamically, and a group's hits depend on the key and its index alone.
  const uint64_t key = rng.NextUint64();
  const int64_t groups = (options.trials - 1) / TrialWalker::kGroupTrials + 1;
  const int64_t claim = static_cast<int64_t>(
      TrialWalker::GroupsPerWalk(spec, window.size()));
  const int64_t claims = (groups - 1) / claim + 1;
  int workers = options.num_workers <= 0 ? ThreadPool::HardwareThreads()
                                         : options.num_workers;
  workers = static_cast<int>(std::min<int64_t>(workers, claims));
  std::atomic<int64_t> next_group{0};
  std::vector<int64_t> worker_hits(workers, 0);
  ParallelFor(workers, workers, [&](int64_t, int64_t, int slice) {
    worker_hits[slice] =
        CountPatternHits(spec, window, threshold, pattern_mask, key,
                         options.trials, groups, claim, &next_group);
  });
  int64_t hits = 0;
  for (int64_t h : worker_hits) hits += h;

  McEstimate est;
  est.hits = hits;
  est.trials = options.trials;
  est.p_hat = static_cast<double>(hits) / static_cast<double>(options.trials);
  est.lower = BinomialLowerBound(hits, options.trials, options.confidence);
  est.upper = BinomialUpperBound(hits, options.trials, options.confidence);
  return est;
}

}  // namespace svt
