#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/stats.h"

namespace svt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LogAddExpTest, MatchesDirectComputation) {
  EXPECT_NEAR(LogAddExp(std::log(2.0), std::log(3.0)), std::log(5.0), 1e-14);
  EXPECT_NEAR(LogAddExp(0.0, 0.0), std::log(2.0), 1e-14);
}

TEST(LogAddExpTest, HandlesLargeMagnitudes) {
  // exp(1000) overflows; the log-sum must not.
  EXPECT_NEAR(LogAddExp(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-10);
  EXPECT_NEAR(LogAddExp(-1000.0, -1001.0),
              -1000.0 + std::log1p(std::exp(-1.0)), 1e-10);
}

TEST(LogAddExpTest, NegativeInfinityIsIdentity) {
  EXPECT_DOUBLE_EQ(LogAddExp(-kInf, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(LogAddExp(3.0, -kInf), 3.0);
  EXPECT_DOUBLE_EQ(LogAddExp(-kInf, -kInf), -kInf);
}

TEST(LogSumExpTest, EmptyIsNegInf) {
  EXPECT_DOUBLE_EQ(LogSumExp({}), -kInf);
}

TEST(LogSumExpTest, SingletonIsIdentity) {
  const std::vector<double> v = {-3.25};
  EXPECT_DOUBLE_EQ(LogSumExp(v), -3.25);
}

TEST(LogSumExpTest, MatchesPairwise) {
  const std::vector<double> v = {0.1, -2.0, 5.0, 3.3};
  double expect = -kInf;
  for (double x : v) expect = LogAddExp(expect, x);
  EXPECT_NEAR(LogSumExp(v), expect, 1e-12);
}

TEST(KahanTest, CompensatesSmallAdds) {
  KahanAccumulator acc;
  acc.Add(1.0);
  for (int i = 0; i < 10000000; ++i) acc.Add(1e-16);
  EXPECT_NEAR(acc.sum(), 1.0 + 1e-9, 1e-12);
}

TEST(KahanTest, ResetClears) {
  KahanAccumulator acc;
  acc.Add(5.0);
  acc.Reset();
  EXPECT_EQ(acc.sum(), 0.0);
}

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValueVarianceZero) {
  RunningStats s;
  s.Add(42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  RunningStats all, a, b;
  const std::vector<double> xs = {1.0, -2.5, 3.0, 7.0, 0.0, 4.4, -1.1};
  for (size_t i = 0; i < xs.size(); ++i) {
    all.Add(xs[i]);
    (i < 3 ? a : b).Add(xs[i]);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  RunningStats b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStatsTest, ToStringFormat) {
  RunningStats s;
  s.Add(1.0);
  s.Add(3.0);
  EXPECT_EQ(s.ToString(2), "2.00±1.41");
}

TEST(OneShotStatsTest, Mean) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
}

TEST(BinomialBoundsTest, BracketsTrueProbability) {
  // 300 successes out of 1000 at 99.9%: interval should contain 0.3.
  const double lo = BinomialLowerBound(300, 1000, 0.999);
  const double hi = BinomialUpperBound(300, 1000, 0.999);
  EXPECT_LT(lo, 0.3);
  EXPECT_GT(hi, 0.3);
  EXPECT_GT(lo, 0.25);
  EXPECT_LT(hi, 0.35);
}

TEST(BinomialBoundsTest, ZeroSuccesses) {
  EXPECT_EQ(BinomialLowerBound(0, 1000, 0.999), 0.0);
  EXPECT_GT(BinomialUpperBound(0, 1000, 0.999), 0.0);
  EXPECT_LT(BinomialUpperBound(0, 1000, 0.999), 0.02);
}

TEST(BinomialBoundsTest, AllSuccesses) {
  EXPECT_EQ(BinomialUpperBound(1000, 1000, 0.999), 1.0);
  EXPECT_LT(BinomialLowerBound(1000, 1000, 0.999), 1.0);
  EXPECT_GT(BinomialLowerBound(1000, 1000, 0.999), 0.98);
}

TEST(BinomialBoundsTest, WiderAtHigherConfidence) {
  const double lo99 = BinomialLowerBound(500, 1000, 0.99);
  const double lo999 = BinomialLowerBound(500, 1000, 0.999);
  EXPECT_LT(lo999, lo99);
}

}  // namespace
}  // namespace svt
