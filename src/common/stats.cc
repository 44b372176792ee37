#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace svt {

void LatencyHistogram::Add(int64_t nanos) {
  // Negative durations can only come from a skewed clock source; clamp
  // into bucket 0 rather than index out of range.
  const uint64_t v = nanos > 0 ? static_cast<uint64_t>(nanos) : 0;
  counts_[std::bit_width(v)] += 1;
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

int64_t LatencyHistogram::PercentileUpperNanos(double p) const {
  SVT_CHECK(p >= 0.0 && p <= 1.0) << "percentile must be in [0, 1], got "
                                  << p;
  if (count_ == 0) return 0;
  // Smallest bucket whose cumulative count covers p of the total
  // (nearest-rank, ranks 1..count_): its upper edge bounds the true
  // quantile from above.
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(
                               std::ceil(p * static_cast<double>(count_))));
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      return b == 0 ? 0
                    : static_cast<int64_t>((uint64_t{1} << b) - 1);
    }
  }
  return std::numeric_limits<int64_t>::max();
}

void RunningStats::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const int64_t total = count_ + other.count_;
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = total;
}

double RunningStats::mean() const { return count_ > 0 ? mean_ : 0.0; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  SVT_CHECK(count_ > 0) << "min() of empty RunningStats";
  return min_;
}

double RunningStats::max() const {
  SVT_CHECK(count_ > 0) << "max() of empty RunningStats";
  return max_;
}

std::string RunningStats::ToString(int precision) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << mean() << "±" << stddev();
  return os.str();
}

double Mean(std::span<const double> values) {
  RunningStats s;
  for (double v : values) s.Add(v);
  return s.mean();
}

namespace {

// Inverse standard normal CDF (Acklam's rational approximation), accurate to
// ~1e-9 over (0,1); plenty for confidence bounds on audit counts.
double NormalQuantile(double p) {
  SVT_CHECK(p > 0.0 && p < 1.0);
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1.0 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > phigh) {
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace

double BinomialUpperBound(int64_t successes, int64_t trials,
                          double confidence) {
  SVT_CHECK(trials > 0);
  SVT_CHECK(successes >= 0 && successes <= trials);
  SVT_CHECK(confidence > 0.5 && confidence < 1.0);
  // With every trial a success the true p may be 1; the continuity
  // correction below would spuriously exclude it.
  if (successes == trials) return 1.0;
  // Wilson score interval upper limit with continuity correction; this is a
  // conservative, closed-form stand-in for exact Clopper-Pearson that is
  // accurate enough for the audit's order-of-magnitude claims.
  const double n = static_cast<double>(trials);
  const double phat =
      (static_cast<double>(successes) + 0.5) / (n + 1.0);  // continuity
  const double z = NormalQuantile(confidence);
  const double z2 = z * z;
  const double center = phat + z2 / (2.0 * n);
  const double half =
      z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
  const double denom = 1.0 + z2 / n;
  return std::min(1.0, (center + half) / denom);
}

double BinomialLowerBound(int64_t successes, int64_t trials,
                          double confidence) {
  SVT_CHECK(trials > 0);
  SVT_CHECK(successes >= 0 && successes <= trials);
  SVT_CHECK(confidence > 0.5 && confidence < 1.0);
  const double n = static_cast<double>(trials);
  const double phat = (static_cast<double>(successes) - 0.5) / (n + 1.0);
  if (phat <= 0.0) return 0.0;
  const double z = NormalQuantile(confidence);
  const double z2 = z * z;
  const double center = phat + z2 / (2.0 * n);
  const double half =
      z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
  const double denom = 1.0 + z2 / n;
  return std::max(0.0, (center - half) / denom);
}

}  // namespace svt
