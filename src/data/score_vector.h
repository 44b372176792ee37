// ScoreVector: the per-item query answers ("supports") an experiment run
// selects from. This is the object SVT and EM actually consume in the
// paper's §6 — item i's score is the answer of counting query q_i.

#ifndef SPARSEVEC_DATA_SCORE_VECTOR_H_
#define SPARSEVEC_DATA_SCORE_VECTOR_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "data/bound_prefilter.h"

namespace svt {

class ScoreVector {
 public:
  ScoreVector() = default;
  explicit ScoreVector(std::vector<double> scores);

  size_t size() const { return scores_.size(); }
  bool empty() const { return scores_.empty(); }
  double operator[](size_t i) const { return scores_[i]; }
  std::span<const double> scores() const { return scores_; }

  /// Sum of all scores.
  double Total() const;

  /// Largest score.
  double Max() const;

  /// Scores sorted descending (copy).
  std::vector<double> SortedDescending() const;

  /// The k highest scores, descending. k must be <= size().
  std::vector<double> TopK(size_t k) const;

  /// A copy with the item order permuted uniformly at random — the paper
  /// randomizes the order items are examined in every run.
  ScoreVector Shuffled(Rng& rng) const;

  /// A copy whose entries are permuted by `permutation` (a bijection on
  /// [0, size())).
  ScoreVector Permuted(std::span<const uint32_t> permutation) const;

  /// The vector's quantized bound companion, built lazily on first use
  /// and cached — pass it to the batch engine's prefiltered
  /// common-threshold RunAppend so repeated runs over the same vector (the
  /// paper's sweep shape) pay the quantization once and the per-span
  /// bound pass reads 2 bytes per element instead of 8. Shuffled() and
  /// Permuted() return fresh vectors with their own (unbuilt) cache.
  /// Codes are bound-only: attaching them never changes emitted
  /// responses (core/svt.h contract). Not thread-safe against concurrent
  /// first calls, like the rest of this class.
  const BoundPrefilter* bound_prefilter() const;

 private:
  std::vector<double> scores_;
  mutable std::shared_ptr<const BoundPrefilter> prefilter_;  // lazy cache
};

}  // namespace svt

#endif  // SPARSEVEC_DATA_SCORE_VECTOR_H_
