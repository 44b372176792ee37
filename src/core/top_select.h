// Top-c selection drivers: the uniform entry points the evaluation harness
// (src/eval) and the examples use to compare SVT-based and EM-based
// selection on a score vector, per §5/§6 of the paper.

#ifndef SPARSEVEC_CORE_TOP_SELECT_H_
#define SPARSEVEC_CORE_TOP_SELECT_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/exponential_mechanism.h"
#include "core/svt.h"
#include "core/svt_retraversal.h"

namespace svt {

/// Runs any SVT-family mechanism over `scores` in order against a single
/// threshold and returns the indices of positive outcomes. Stops at the
/// cutoff (if the mechanism has one) or at the end of the scores. One
/// RunAppend call, so the batch engine answers it.
std::vector<size_t> CollectPositives(SparseVector& mechanism,
                                     std::span<const double> scores,
                                     double threshold);

/// One-shot SVT selection: builds a SparseVector from `options`, runs it
/// over `scores` (in the order given — shuffle first for the paper's
/// randomized-order experiments), returns selected indices.
Result<std::vector<size_t>> SelectTopCWithSvt(std::span<const double> scores,
                                              double threshold,
                                              const SvtOptions& options,
                                              Rng& rng);

/// One-shot EM selection (Gumbel top-c).
Result<std::vector<size_t>> SelectTopCWithEm(std::span<const double> scores,
                                             const EmOptions& options,
                                             Rng& rng);

/// Indices of the true top-c scores (ties broken by lower index), used as
/// ground truth by the FNR/SER metrics.
std::vector<size_t> TrueTopC(std::span<const double> scores, size_t c);

/// The paper's per-c threshold: the average of the c-th and (c+1)-th
/// largest scores ("each time uses the average score for the c'th query and
/// the c+1'th query as the threshold", §6). Requires c < scores.size().
double PaperThreshold(std::span<const double> scores, size_t c);

}  // namespace svt

#endif  // SPARSEVEC_CORE_TOP_SELECT_H_
