// Monte-Carlo estimation of SVT output probabilities.
//
// Simulates the actual mechanism (SparseVector's sampling path, core/svt.h,
// which the trial walker reproduces bit for bit) and counts how often
// it reproduces a target indicator pattern. Used to cross-validate the closed-form engine — the
// two paths share no code beyond the Laplace sampler, so agreement is
// strong evidence both are right.
//
// The trials are a fixed sequence keyed by one draw from the caller's rng
// (core/trial_walk.h): trial t belongs to group t / 256, whose eight lane
// streams are key-split from that draw by the group's index, and the
// TrialWalker reduces each run to a positive mask and a processed count
// that the pattern test reads. Workers (McOptions::num_workers) claim
// groups from a shared counter (four at a time where the walker steps four
// groups' lanes together, TrialWalker::GroupsPerWalk), so the hit count,
// and every estimate built on it, is a function of (rng state, trials)
// alone: the same at every worker count and under any schedule. A trial
// consumes its lane's stream exactly as Reset() + RunAppend over the full
// pattern window does (match checking happens after, not by breaking the
// query loop early).

#ifndef SPARSEVEC_AUDIT_MONTE_CARLO_H_
#define SPARSEVEC_AUDIT_MONTE_CARLO_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "common/rng.h"
#include "core/variant_spec.h"

namespace svt {

struct McOptions {
  /// Largest `trials` accepted: far more than any run could finish, and
  /// small enough that the group arithmetic (trials rounded up to whole
  /// claims, the claim counter running past the last group) stays far
  /// inside int64_t.
  static constexpr int64_t kMaxTrials = int64_t{1} << 62;

  /// Trials to run, 1 to kMaxTrials.
  int64_t trials = 100000;
  /// Confidence level of the reported interval (Wilson bounds).
  double confidence = 0.999;
  /// Threads that walk the trial groups: 1 (the default) walks them on
  /// the calling thread, 0 means one per hardware thread, and workers
  /// beyond the number of claims (the groups a worker takes at once) are
  /// dropped. The hits do not depend on it (header comment).
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
/// comparison treats any positive outcome as matching 'T'. Takes exactly
/// one draw from `rng`, whatever the trials and workers.
McEstimate EstimateOutputProbability(const VariantSpec& spec,
                                     std::span<const double> query_answers,
                                     double threshold,
                                     std::string_view pattern, Rng& rng,
                                     const McOptions& options = {});

}  // namespace svt

#endif  // SPARSEVEC_AUDIT_MONTE_CARLO_H_
