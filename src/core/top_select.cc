#include "core/top_select.h"

#include <algorithm>

#include "common/check.h"

namespace svt {

std::vector<size_t> CollectPositives(SparseVector& mechanism,
                                     std::span<const double> scores,
                                     double threshold) {
  const std::vector<Response> responses = mechanism.Run(scores, threshold);
  std::vector<size_t> selected;
  for (size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].is_positive()) selected.push_back(i);
  }
  return selected;
}

Result<std::vector<size_t>> SelectTopCWithSvt(std::span<const double> scores,
                                              double threshold,
                                              const SvtOptions& options,
                                              Rng& rng) {
  SVT_ASSIGN_OR_RETURN(std::unique_ptr<SparseVector> mech,
                       SparseVector::Create(options, &rng));
  return CollectPositives(*mech, scores, threshold);
}

Result<std::vector<size_t>> SelectTopCWithEm(std::span<const double> scores,
                                             const EmOptions& options,
                                             Rng& rng) {
  return ExponentialMechanism::SelectTopC(scores, options, rng);
}

std::vector<size_t> TrueTopC(std::span<const double> scores, size_t c) {
  SVT_CHECK(c <= scores.size());
  std::vector<size_t> idx(scores.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(c),
                    idx.end(), [&scores](size_t a, size_t b) {
                      if (scores[a] != scores[b]) {
                        return scores[a] > scores[b];
                      }
                      return a < b;  // deterministic tie-break
                    });
  idx.resize(c);
  return idx;
}

double PaperThreshold(std::span<const double> scores, size_t c) {
  SVT_CHECK(c >= 1);
  SVT_CHECK(c < scores.size())
      << "PaperThreshold requires at least c+1 scores";
  std::vector<double> sorted(scores.begin(), scores.end());
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(c),
                   sorted.end(), std::greater<double>());
  // After nth_element with greater<>, elements [0, c) are the top c (in some
  // order) and sorted[c] is the (c+1)-th largest.
  const double cth =
      *std::min_element(sorted.begin(),
                        sorted.begin() + static_cast<std::ptrdiff_t>(c));
  const double next = sorted[c];
  return 0.5 * (cth + next);
}

}  // namespace svt
