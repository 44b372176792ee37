// Streaming summary statistics (Welford) for experiment aggregation.

#ifndef SPARSEVEC_COMMON_STATS_H_
#define SPARSEVEC_COMMON_STATS_H_

#include <cstdint>
#include <span>
#include <string>

namespace svt {

/// Accumulates count/mean/variance/min/max in one pass (Welford's update),
/// numerically stable for long experiment sweeps.
class RunningStats {
 public:
  void Add(double value);

  /// Merges another accumulator (parallel runs).
  void Merge(const RunningStats& other);

  int64_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance (n-1 denominator); 0 when count < 2.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// "mean±stddev" with fixed precision, for table cells.
  std::string ToString(int precision = 3) const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bucket latency histogram: log2 buckets keyed by the bit width of
/// the nanosecond value, so Add is one branch-free bucket computation and
/// the whole accumulator is a flat copyable array — cheap enough to sit in
/// per-shard serving stats and be snapshotted/merged under a lock. Driven
/// by the injectable Clock, so tests with a VirtualClock get deterministic
/// percentiles. Quantile answers are bucket UPPER edges: the reported
/// p-quantile is >= the true one, never under — overload shows up, never
/// hides (within the 2x bucket resolution).
class LatencyHistogram {
 public:
  void Add(int64_t nanos);

  /// Merges another histogram (cross-shard aggregation).
  void Merge(const LatencyHistogram& other);

  int64_t count() const { return count_; }

  /// Upper edge of the bucket holding the p-quantile (p in [0, 1]) of the
  /// recorded values; 0 when empty. PercentileUpperNanos(0.5) is the p50
  /// upper bound, (0.99) the p99.
  int64_t PercentileUpperNanos(double p) const;

 private:
  /// One bucket per possible bit width of a non-negative int64 (0..63):
  /// bucket b holds values in [2^(b-1), 2^b - 1], bucket 0 holds 0.
  static constexpr int kBuckets = 64;
  int64_t counts_[kBuckets] = {};
  int64_t count_ = 0;
};

/// One-shot helpers.
double Mean(std::span<const double> values);

/// Two-sided binomial (Clopper-Pearson style via normal approx + continuity)
/// upper bound on a probability given `successes` out of `trials` at level
/// `confidence` (e.g. 0.999). Used by the Monte-Carlo privacy auditor to
/// report conservative empirical-epsilon intervals.
double BinomialUpperBound(int64_t successes, int64_t trials,
                          double confidence);

/// Matching lower bound.
double BinomialLowerBound(int64_t successes, int64_t trials,
                          double confidence);

}  // namespace svt

#endif  // SPARSEVEC_COMMON_STATS_H_
