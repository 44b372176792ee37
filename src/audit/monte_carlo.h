// Monte-Carlo estimation of SVT output probabilities.
//
// Simulates the actual mechanism (via core/svt_variants.h CustomSvt, i.e.
// the sampling code path) and counts how often it reproduces a target
// indicator pattern. Used to cross-validate the closed-form engine — the
// two paths share no code beyond the Laplace sampler, so agreement is
// strong evidence both are right.
//
// Trials can run in parallel (McOptions::num_workers) on deterministic
// worker streams: the calling thread forks one Rng per worker up front and
// assigns each worker a fixed contiguous trial slice, so for a fixed
// (rng state, num_workers) the hit counts are bitwise-reproducible no
// matter how the OS schedules the threads.
//
// Each worker executes its trials through SpecDrivenSvt::RunTrials over
// reused response and count buffers. A window shorter than
// BatchRunner::kStreamingCutover — every Fig. 2 counterexample — is
// batched across trials when the spec draws nothing from the base stream
// at a positive: each block of trials takes one dispatched ρ transform and
// one dispatched ν transform. Alg. 2 (ρ resampling) and ε₃ specs run
// Reset() + RunAppend per trial, which streams such windows, and longer
// windows run the batch engine. Either way a trial consumes the RNG
// exactly as the Process() loop over its full pattern window does (match
// checking happens after, not by breaking the query loop early).

#ifndef SPARSEVEC_AUDIT_MONTE_CARLO_H_
#define SPARSEVEC_AUDIT_MONTE_CARLO_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "common/rng.h"
#include "core/variant_spec.h"

namespace svt {

struct McOptions {
  int64_t trials = 100000;
  /// Confidence level of the reported interval (Wilson bounds).
  double confidence = 0.999;
  /// Number of deterministic worker streams. 1 (the default) runs every
  /// trial on the caller's `rng` directly (serially, on the calling
  /// thread). 0 means one worker per hardware thread. Workers beyond
  /// `trials` are dropped.
  int num_workers = 1;
};

struct McEstimate {
  double p_hat = 0.0;   ///< hits / trials
  double lower = 0.0;   ///< confidence lower bound
  double upper = 1.0;   ///< confidence upper bound
  int64_t hits = 0;
  int64_t trials = 0;
};

/// Estimates Pr[first |pattern| outputs == pattern] for the mechanism
/// described by `spec` on `query_answers` with a common `threshold`.
/// Only indicator patterns ('_'/'T') are supported — numeric outputs have
/// densities, not probabilities. For variants with numeric positives the
/// comparison treats any positive outcome as matching 'T'.
McEstimate EstimateOutputProbability(const VariantSpec& spec,
                                     std::span<const double> query_answers,
                                     double threshold,
                                     std::string_view pattern, Rng& rng,
                                     const McOptions& options = {});

}  // namespace svt

#endif  // SPARSEVEC_AUDIT_MONTE_CARLO_H_
