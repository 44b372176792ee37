#include "common/distributions.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"

namespace svt {
namespace {

TEST(LaplaceTest, PdfSymmetricAroundMu) {
  Laplace d(2.0, 1.5);
  EXPECT_DOUBLE_EQ(d.Pdf(2.0 + 0.7), d.Pdf(2.0 - 0.7));
  EXPECT_DOUBLE_EQ(d.Pdf(2.0), 0.5 / 1.5);
}

TEST(LaplaceTest, PdfIntegratesToOneCoarsely) {
  Laplace d(0.0, 1.0);
  double sum = 0.0;
  const double h = 0.001;
  for (double x = -30.0; x < 30.0; x += h) sum += d.Pdf(x + h / 2) * h;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(LaplaceTest, CdfKnownValues) {
  Laplace d(0.0, 1.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.0), 0.5);
  EXPECT_NEAR(d.Cdf(1.0), 1.0 - 0.5 * std::exp(-1.0), 1e-15);
  EXPECT_NEAR(d.Cdf(-1.0), 0.5 * std::exp(-1.0), 1e-15);
}

TEST(LaplaceTest, CdfSfSumToOne) {
  Laplace d(1.0, 3.0);
  for (double x : {-10.0, -1.0, 0.0, 0.5, 1.0, 2.0, 20.0}) {
    EXPECT_NEAR(d.Cdf(x) + d.Sf(x), 1.0, 1e-15) << "x=" << x;
  }
}

TEST(LaplaceTest, LogCdfMatchesLogOfCdf) {
  Laplace d(0.0, 2.0);
  for (double x : {-5.0, -0.1, 0.0, 0.1, 3.0}) {
    EXPECT_NEAR(d.LogCdf(x), std::log(d.Cdf(x)), 1e-12) << "x=" << x;
    EXPECT_NEAR(d.LogSf(x), std::log(d.Sf(x)), 1e-12) << "x=" << x;
  }
}

TEST(LaplaceTest, LogCdfStableInDeepTail) {
  Laplace d(0.0, 1.0);
  // Cdf(-800) underflows to 0, but LogCdf must stay finite and exact.
  EXPECT_NEAR(d.LogCdf(-800.0), std::log(0.5) - 800.0, 1e-9);
  EXPECT_NEAR(d.LogSf(800.0), std::log(0.5) - 800.0, 1e-9);
}

TEST(LaplaceTest, QuantileInvertsCdf) {
  Laplace d(-1.0, 0.7);
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_NEAR(d.Cdf(d.Quantile(p)), p, 1e-12) << "p=" << p;
  }
}

TEST(LaplaceTest, StddevIsSqrt2TimesScale) {
  EXPECT_DOUBLE_EQ(Laplace::Centered(3.0).stddev(), std::sqrt(2.0) * 3.0);
}

// The key DP property: Pr[ρ = z] <= e^eps * Pr[ρ = z + Δ] for scale Δ/eps.
TEST(LaplaceTest, DensityRatioBoundedByShift) {
  const double sensitivity = 1.0;
  const double epsilon = 0.4;
  Laplace d(0.0, sensitivity / epsilon);
  for (double z = -20.0; z <= 20.0; z += 0.37) {
    const double ratio = d.Pdf(z) / d.Pdf(z + sensitivity);
    EXPECT_LE(ratio, std::exp(epsilon) * (1.0 + 1e-12)) << "z=" << z;
  }
}

TEST(LaplaceSampleTest, MomentsMatch) {
  Rng rng(1);
  Laplace d(5.0, 2.0);
  RunningStats stats;
  for (int i = 0; i < 400000; ++i) stats.Add(d.Sample(rng));
  EXPECT_NEAR(stats.mean(), 5.0, 0.03);
  // Var = 2 b^2 = 8.
  EXPECT_NEAR(stats.variance(), 8.0, 0.15);
}

TEST(LaplaceSampleTest, EmpiricalCdfMatchesAnalytic) {
  Rng rng(2);
  Laplace d(0.0, 1.0);
  const int n = 200000;
  std::vector<double> samples(n);
  for (double& s : samples) s = d.Sample(rng);
  for (double x : {-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0}) {
    int below = 0;
    for (double s : samples) below += (s <= x) ? 1 : 0;
    EXPECT_NEAR(below / static_cast<double>(n), d.Cdf(x), 0.005)
        << "x=" << x;
  }
}

TEST(LaplaceSampleTest, SampleLaplaceHelperIsCentered) {
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(SampleLaplace(rng, 1.0));
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
}

TEST(ExponentialTest, CdfQuantileRoundTrip) {
  Exponential d(2.5);
  for (double p : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(d.Cdf(d.Quantile(p)), p, 1e-12);
  }
}

TEST(ExponentialTest, PdfZeroBelowOrigin) {
  Exponential d(1.0);
  EXPECT_EQ(d.Pdf(-0.5), 0.0);
  EXPECT_EQ(d.Cdf(-0.5), 0.0);
}

TEST(ExponentialTest, FromScaleRoundTripsTheScale) {
  // FromScale stores the scale exactly — no 1/(1/b) reciprocal round-trip —
  // so the engine's "multiply by the stored scale" sampling is exact in b.
  for (double b : {1.0, 2.5, 0.3, 1e-3, 7.0}) {
    EXPECT_EQ(Exponential::FromScale(b).scale(), b);
  }
}

TEST(ExponentialTest, LogFunctionsMatchAnalyticForms) {
  const Exponential d = Exponential::FromScale(2.0);  // rate 0.5
  // Support boundary and interior, vs the analytic pdf/cdf/sf in log space.
  EXPECT_EQ(d.LogPdf(-1.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(d.LogCdf(-1.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(d.Sf(-1.0), 1.0);
  EXPECT_EQ(d.LogSf(-1.0), 0.0);
  for (double x : {0.0, 0.01, 0.5, 1.0, 3.0, 50.0, 800.0}) {
    EXPECT_NEAR(d.LogPdf(x), std::log(0.5) - 0.5 * x, 1e-12) << x;
    EXPECT_EQ(d.LogSf(x), -0.5 * x) << x;
    if (x > 0.0) {
      EXPECT_NEAR(d.LogCdf(x), std::log1p(-std::exp(-0.5 * x)), 1e-12) << x;
    }
  }
  // Deep tail: LogCdf of a large x is ~ -exp(-rate·x), not 0 or -inf.
  EXPECT_LT(d.LogCdf(100.0), 0.0);
  EXPECT_GT(d.LogCdf(100.0), -1e-20);
}

TEST(ExponentialTest, SampleMeanIsInverseRate) {
  Rng rng(4);
  Exponential d(4.0);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(d.Sample(rng));
  EXPECT_NEAR(stats.mean(), 0.25, 0.005);
}

TEST(GumbelTest, CdfQuantileRoundTrip) {
  Gumbel g;
  for (double p : {0.01, 0.3, 0.5, 0.8, 0.99}) {
    EXPECT_NEAR(g.Cdf(g.Quantile(p)), p, 1e-12);
  }
}

TEST(GumbelTest, SampleMeanIsEulerGamma) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 300000; ++i) stats.Add(SampleGumbel(rng));
  EXPECT_NEAR(stats.mean(), 0.5772156649, 0.01);
  // Var = pi^2/6.
  EXPECT_NEAR(stats.variance(), 1.6449, 0.05);
}

// Gumbel-max trick: argmax(logit_i + G_i) samples the softmax exactly.
TEST(GumbelTest, GumbelMaxSamplesSoftmax) {
  Rng rng(6);
  const std::vector<double> logits = {0.0, std::log(2.0), std::log(3.0)};
  // Softmax = (1/6, 2/6, 3/6).
  std::vector<int> counts(3, 0);
  const int n = 120000;
  for (int i = 0; i < n; ++i) {
    int best = 0;
    double best_key = -1e300;
    for (int j = 0; j < 3; ++j) {
      const double key = logits[j] + SampleGumbel(rng);
      if (key > best_key) {
        best_key = key;
        best = j;
      }
    }
    ++counts[best];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 1.0 / 6.0, 0.006);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 2.0 / 6.0, 0.006);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 3.0 / 6.0, 0.006);
}

TEST(AliasSamplerTest, MatchesWeights) {
  Rng rng(7);
  AliasSampler sampler({1.0, 2.0, 3.0, 4.0});
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), (k + 1) / 10.0, 0.006);
  }
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  Rng rng(8);
  AliasSampler sampler({0.0, 1.0, 0.0, 1.0});
  for (int i = 0; i < 20000; ++i) {
    const uint32_t s = sampler.Sample(rng);
    ASSERT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasSamplerTest, SingleWeight) {
  Rng rng(9);
  AliasSampler sampler({5.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.Sample(rng), 0u);
}

TEST(AliasSamplerTest, ProbabilityAccessorNormalizes) {
  AliasSampler sampler({2.0, 6.0});
  EXPECT_DOUBLE_EQ(sampler.Probability(0), 0.25);
  EXPECT_DOUBLE_EQ(sampler.Probability(1), 0.75);
}

using ScaleParam = double;
class LaplaceScaleSweep : public ::testing::TestWithParam<ScaleParam> {};

// Property sweep: for every scale, sampling moments and tail masses match
// the analytic distribution.
TEST_P(LaplaceScaleSweep, SampleQuantilesMatch) {
  const double scale = GetParam();
  Rng rng(static_cast<uint64_t>(scale * 1000) + 17);
  Laplace d(0.0, scale);
  const int n = 80000;
  std::vector<double> samples(n);
  for (double& s : samples) s = d.Sample(rng);
  std::sort(samples.begin(), samples.end());
  for (double p : {0.1, 0.5, 0.9}) {
    const double empirical = samples[static_cast<size_t>(p * n)];
    const double expected = d.Quantile(p);
    EXPECT_NEAR(empirical, expected, 0.05 * scale + 0.02)
        << "scale=" << scale << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, LaplaceScaleSweep,
                         ::testing::Values(0.1, 0.5, 1.0, 4.0, 25.0, 400.0));

}  // namespace
}  // namespace svt
