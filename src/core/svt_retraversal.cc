#include "core/svt_retraversal.h"

#include <cmath>

#include "common/check.h"
#include "common/distributions.h"

namespace svt {

Status RetraversalOptions::Validate() const {
  SVT_RETURN_NOT_OK(svt.Validate());
  if (threshold_boost_devs < 0.0) {
    return Status::InvalidArgument("threshold_boost_devs must be >= 0");
  }
  if (max_passes < 1) {
    return Status::InvalidArgument("max_passes must be >= 1");
  }
  return Status::OK();
}

Result<RetraversalResult> SelectWithRetraversal(
    std::span<const double> scores, double base_threshold,
    const RetraversalOptions& options, Rng& rng) {
  SVT_RETURN_NOT_OK(options.Validate());
  SVT_ASSIGN_OR_RETURN(std::unique_ptr<SparseVector> mech,
                       SparseVector::Create(options.svt, &rng));

  // "kD": one standard deviation of Lap(b) is sqrt(2)*b.
  const double boost = options.threshold_boost_devs * std::sqrt(2.0) *
                       mech->query_noise_scale();
  const double threshold = base_threshold + boost;

  RetraversalResult result;
  result.boosted_threshold = threshold;

  std::vector<size_t> candidates(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) candidates[i] = i;

  // Each pass gathers its candidates' scores and runs them as one engine
  // call; the candidates past a cutoff abort stay unselected.
  std::vector<double> pass_scores;
  std::vector<Response> responses;
  const size_t want = static_cast<size_t>(options.svt.cutoff);
  while (result.selected.size() < want &&
         result.passes_used < options.max_passes && !candidates.empty()) {
    ++result.passes_used;
    pass_scores.clear();
    for (size_t idx : candidates) pass_scores.push_back(scores[idx]);
    responses.clear();
    const size_t count = mech->RunAppend(pass_scores, threshold, &responses);
    result.comparisons += static_cast<int64_t>(count);
    std::vector<size_t> still_unselected;
    still_unselected.reserve(candidates.size());
    for (size_t k = 0; k < candidates.size(); ++k) {
      if (k < count && responses[k].is_positive()) {
        result.selected.push_back(candidates[k]);
      } else {
        still_unselected.push_back(candidates[k]);
      }
    }
    candidates.swap(still_unselected);
    if (mech->exhausted()) break;
  }
  return result;
}

}  // namespace svt
