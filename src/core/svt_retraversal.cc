#include "core/svt_retraversal.h"

#include <cmath>
#include <numeric>

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

  // The pass buffer: the unselected candidates' scores in list order, and
  // beside them their indices into `scores`. Each pass runs the buffer as
  // one engine call; the candidates past a cutoff abort stay unselected.
  std::vector<double> pass_scores(scores.begin(), scores.end());
  std::vector<size_t> candidates(scores.size());
  std::iota(candidates.begin(), candidates.end(), size_t{0});
  std::vector<Response> responses;
  const size_t want = static_cast<size_t>(options.svt.cutoff);
  while (result.selected.size() < want &&
         result.passes_used < options.max_passes && !candidates.empty()) {
    ++result.passes_used;
    responses.clear();
    const size_t count = mech->RunAppend(pass_scores, threshold, &responses);
    result.comparisons += static_cast<int64_t>(count);
    const size_t selected_before = result.selected.size();
    for (size_t k = 0; k < count; ++k) {
      if (responses[k].is_positive()) result.selected.push_back(candidates[k]);
    }
    // Drop this pass's selections from the buffer in place, keeping order.
    // Most passes select nothing and leave it as it is.
    if (result.selected.size() > selected_before) {
      size_t kept = 0;
      for (size_t k = 0; k < candidates.size(); ++k) {
        if (k < count && responses[k].is_positive()) continue;
        pass_scores[kept] = pass_scores[k];
        candidates[kept] = candidates[k];
        ++kept;
      }
      pass_scores.resize(kept);
      candidates.resize(kept);
    }
    if (mech->exhausted()) break;
  }
  return result;
}

}  // namespace svt
