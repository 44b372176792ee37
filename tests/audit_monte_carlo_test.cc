// Cross-validation of the two independent probability paths: the sampled
// mechanism (SparseVector) vs. the closed-form quadrature.

#include "audit/monte_carlo.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/closed_form.h"
#include "audit/privacy_auditor.h"
#include "common/rng.h"
#include "core/variant_spec.h"

namespace svt {
namespace {

McOptions FastMc() {
  McOptions o;
  o.trials = 60000;
  o.confidence = 0.9999;
  return o;
}

void ExpectAgreement(const VariantSpec& spec,
                     const std::vector<double>& answers, double threshold,
                     const std::string& pattern, Rng& rng) {
  const McEstimate mc = EstimateOutputProbability(spec, answers, threshold,
                                                  pattern, rng, FastMc());
  const double closed = OutputProbability(spec, answers, threshold,
                                          PatternFromString(pattern));
  EXPECT_GE(closed, mc.lower - 0.003)
      << spec.name << " pattern=" << pattern << " mc=" << mc.p_hat;
  EXPECT_LE(closed, mc.upper + 0.003)
      << spec.name << " pattern=" << pattern << " mc=" << mc.p_hat;
}

TEST(McCrossCheckTest, Alg1SmallInstances) {
  Rng rng(1);
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  ExpectAgreement(spec, {0.0}, 0.0, "T", rng);
  ExpectAgreement(spec, {0.0}, 0.0, "_", rng);
  ExpectAgreement(spec, {0.5, -0.5}, 0.0, "_T", rng);
  ExpectAgreement(spec, {0.5, -0.5}, 0.0, "__", rng);
  ExpectAgreement(spec, {2.0, 1.0}, 1.5, "T", rng);
}

TEST(McCrossCheckTest, Alg1CutoffTwo) {
  Rng rng(2);
  const VariantSpec spec = MakeAlg1Spec(2.0, 1.0, 2);
  ExpectAgreement(spec, {1.0, 0.0, -1.0}, 0.0, "__T", rng);
  ExpectAgreement(spec, {1.0, 0.0, -1.0}, 0.0, "T_T", rng);
  ExpectAgreement(spec, {1.0, 0.0, -1.0}, 0.0, "___", rng);
  ExpectAgreement(spec, {1.0, 0.0}, 0.0, "TT", rng);
}

TEST(McCrossCheckTest, Alg2Resampling) {
  Rng rng(3);
  const VariantSpec spec = MakeAlg2Spec(2.0, 1.0, 2);
  ExpectAgreement(spec, {0.4, -0.2, 0.1}, 0.0, "T__", rng);
  ExpectAgreement(spec, {0.4, -0.2}, 0.0, "TT", rng);
  ExpectAgreement(spec, {0.4, -0.2, 0.3}, 0.0, "_T_", rng);
}

TEST(McCrossCheckTest, Alg4) {
  Rng rng(4);
  const VariantSpec spec = MakeAlg4Spec(1.0, 1.0, 2);
  ExpectAgreement(spec, {0.0, 0.5, -0.5}, 0.2, "_T_", rng);
  ExpectAgreement(spec, {0.0, 0.5}, 0.2, "TT", rng);
}

TEST(McCrossCheckTest, Alg5DegenerateNoise) {
  Rng rng(5);
  const VariantSpec spec = MakeAlg5Spec(1.0, 1.0);
  ExpectAgreement(spec, {0.0, 1.0}, 0.0, "_T", rng);
  ExpectAgreement(spec, {0.0, 1.0}, 0.0, "TT", rng);
  ExpectAgreement(spec, {0.0, 1.0}, 0.0, "__", rng);
  // The Theorem 3 zero-probability event: MC must see zero hits.
  const std::vector<double> swapped = {1.0, 0.0};
  const McEstimate mc = EstimateOutputProbability(spec, swapped, 0.0, "_T",
                                                  rng, FastMc());
  EXPECT_EQ(mc.hits, 0);
}

TEST(McCrossCheckTest, Alg6NoCutoff) {
  Rng rng(6);
  const VariantSpec spec = MakeAlg6Spec(1.0, 1.0);
  ExpectAgreement(spec, {0.5, -0.5, 0.0, 1.0}, 0.0, "T_TT", rng);
  ExpectAgreement(spec, {0.5, -0.5}, 0.0, "__", rng);
}

TEST(McCrossCheckTest, GpttSkewed) {
  Rng rng(7);
  const VariantSpec spec = MakeGpttSpec(0.7, 0.3, 1.0);
  ExpectAgreement(spec, {0.0, 0.3}, 0.1, "_T", rng);
}

TEST(McCrossCheckTest, StandardMonotone) {
  Rng rng(8);
  const BudgetSplit split =
      BudgetAllocation::Optimal(2, true).Split(1.0);
  const VariantSpec spec = MakeStandardSpec(split, 1.0, 2, true);
  ExpectAgreement(spec, {0.3, 0.6, -0.3}, 0.0, "_T_", rng);
}

TEST(McCrossCheckTest, ExpNoiseLiu) {
  // Exponential threshold noise, Laplace query noise: both auditor paths
  // must track the one-sided ρ support (the MC estimator from raw
  // sampling, the closed form from the clamped integration window).
  Rng rng(13);
  const VariantSpec spec = MakeExpNoiseSpec(1.0, 1.0, 2);
  ExpectAgreement(spec, {0.0}, 0.0, "T", rng);
  ExpectAgreement(spec, {0.0}, 0.0, "_", rng);
  ExpectAgreement(spec, {0.5, -0.5}, 0.0, "_T", rng);
  ExpectAgreement(spec, {1.0, 0.0, -1.0}, 0.0, "T_T", rng);
  ExpectAgreement(spec, {1.0, 0.0, -1.0}, 0.0, "___", rng);
  ExpectAgreement(spec, {2.0, 1.0}, 1.5, "T", rng);
}

TEST(McCrossCheckTest, RevisitedKaplan) {
  // All-exponential monitor with ρ resampling after each ⊤: the pattern
  // factorizes into per-segment integrals over one-sided ρ, each ⊥ factor
  // contributing an extra support clamp.
  Rng rng(14);
  const VariantSpec spec = MakeRevisitedSpec(2.0, 1.0, 2);
  ExpectAgreement(spec, {0.4, -0.2, 0.1}, 0.0, "T__", rng);
  ExpectAgreement(spec, {0.4, -0.2}, 0.0, "TT", rng);
  ExpectAgreement(spec, {0.4, -0.2, 0.3}, 0.0, "_T_", rng);
  ExpectAgreement(spec, {1.0, 0.5, -1.0}, 0.5, "___", rng);
}

TEST(McCrossCheckTest, ExpNoiseOneSidedImpossibleEvent) {
  // Under exponential ν with threshold far above the answer, a ⊤ needs
  // ν ≥ gap + ρ ≥ gap: at gap = 50 on scale 8 that is ~e^-6 ≈ 0.2% — but at
  // a gap of 500 it is below 6e-28: MC must see zero hits and the closed
  // form must agree it is (numerically) impossible.
  Rng rng(15);
  const VariantSpec spec = MakeRevisitedSpec(2.0, 1.0, 1);
  const std::vector<double> answers = {-500.0};
  const McEstimate mc =
      EstimateOutputProbability(spec, answers, 0.0, "T", rng, FastMc());
  EXPECT_EQ(mc.hits, 0);
  EXPECT_LT(OutputProbability(spec, answers, 0.0, PatternFromString("T")),
            1e-20);
}

TEST(McEstimateTest, BoundsBracketPointEstimate) {
  Rng rng(9);
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> one = {0.0};
  const McEstimate mc =
      EstimateOutputProbability(spec, one, 0.0, "T", rng, FastMc());
  EXPECT_LE(mc.lower, mc.p_hat);
  EXPECT_GE(mc.upper, mc.p_hat);
  EXPECT_NEAR(mc.p_hat, 0.5, 0.02);
}

TEST(McEstimateTest, PatternLongerMeansRarer) {
  Rng rng(10);
  const VariantSpec spec = MakeAlg6Spec(1.0, 1.0);
  const std::vector<double> one = {0.0};
  const std::vector<double> three = {0.0, 0.0, 0.0};
  const McEstimate short_pattern =
      EstimateOutputProbability(spec, one, 0.0, "T", rng, FastMc());
  const McEstimate long_pattern =
      EstimateOutputProbability(spec, three, 0.0, "TTT", rng, FastMc());
  EXPECT_LT(long_pattern.p_hat, short_pattern.p_hat);
}

TEST(McEstimateTest, RejectsBadPattern) {
  Rng rng(11);
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> one = {0.0};
  EXPECT_DEATH(
      EstimateOutputProbability(spec, one, 0.0, "X", rng, FastMc()),
      "invalid pattern");
}

TEST(McEstimateTest, RejectsAnUnrunnableSpecAtEveryWindowLength) {
  // A 4-query window runs the trial walker's fixed-stride kernel and an
  // 8-query one the SparseVector loop; both check the spec alike.
  VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  spec.rho_scale = std::numeric_limits<double>::infinity();
  const std::vector<double> zeros(8, 0.0);
  for (const char* pattern : {"____", "________"}) {
    Rng rng(11);
    EXPECT_DEATH(
        EstimateOutputProbability(spec, zeros, 0.0, pattern, rng, FastMc()),
        "Alg1-LyuSuLi: rho_scale must be positive")
        << pattern;
  }
}

TEST(McEstimateTest, RejectsBadConfidenceBeforeRunningTrials) {
  // Checked up front: a billion trials would take minutes before the
  // interval computation noticed.
  Rng rng(11);
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> one = {0.0};
  McOptions options;
  options.trials = 1'000'000'000;
  for (double confidence : {0.5, 1.0, 0.2, 1.5}) {
    options.confidence = confidence;
    EXPECT_DEATH(
        EstimateOutputProbability(spec, one, 0.0, "T", rng, options),
        "confidence must lie in");
  }
}

TEST(McEstimateTest, RejectsTrialsPastTheCapBeforeRunningTrials) {
  // Near INT64_MAX, rounding the trials up to whole groups would overflow;
  // such a count is refused up front, so this runs no trials.
  Rng rng(11);
  const VariantSpec spec = MakeAlg2Spec(1.0, 1.0, 1);
  const std::vector<double> one = {0.0};
  McOptions options;
  for (int64_t trials : {std::numeric_limits<int64_t>::max(),
                         McOptions::kMaxTrials + 1, int64_t{0},
                         int64_t{-1}}) {
    options.trials = trials;
    EXPECT_DEATH(
        EstimateOutputProbability(spec, one, 0.0, "T", rng, options),
        "trials must lie in")
        << trials;
  }
}

TEST(McEpsilonBoundTest, CertifiesAlg6ViolationBlackBox) {
  // Black-box certification: without any closed-form analysis, the MC
  // bound must certify that Alg. 6 is not eps-DP at its claimed eps = 1 on
  // a small Theorem 7 instance (the true log-ratio at m = 4 is ~3.5).
  Rng rng(20);
  const VariantSpec spec = MakeAlg6Spec(1.0, 1.0);
  const McEpsilonBound bound = EstimateEpsilonLowerBoundMc(
      spec, Alg6Counterexample(4), /*trials=*/400000, /*confidence=*/0.999,
      rng);
  EXPECT_GT(bound.certified_lower, 1.0) << "point=" << bound.point_estimate;
}

TEST(McEpsilonBoundTest, DoesNotFalselyAccuseAlg1) {
  Rng rng(21);
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const NeighborInstance inst = ShiftInstance(2, "_T");
  const McEpsilonBound bound = EstimateEpsilonLowerBoundMc(
      spec, inst, /*trials=*/200000, /*confidence=*/0.999, rng);
  // Certified lower bound must stay below eps for an actually-private
  // mechanism (with overwhelming probability at this confidence).
  EXPECT_LT(bound.certified_lower, 1.0);
}

TEST(McEpsilonBoundTest, Alg5ZeroSideGivesZeroCertificate) {
  // On Theorem 3's instance Pr[D'] = 0, so p-hat on D' is 0 and the Wilson
  // upper bound is small but positive: the certificate is finite but the
  // point estimate diverges.
  Rng rng(22);
  const VariantSpec spec = MakeAlg5Spec(1.0, 1.0);
  const McEpsilonBound bound = EstimateEpsilonLowerBoundMc(
      spec, Alg5Counterexample(), /*trials=*/100000, /*confidence=*/0.999,
      rng);
  EXPECT_EQ(bound.hits_dprime, 0);
  EXPECT_TRUE(std::isinf(bound.point_estimate));
  EXPECT_GT(bound.certified_lower, 1.0);  // still a strong certificate
}

// Monte-Carlo validation of the total-probability identity: frequencies of
// all observed patterns sum to 1 (trivially) AND each matches closed form.
TEST(McCrossCheckTest, FullDistributionAlg1) {
  Rng rng(12);
  const VariantSpec spec = MakeAlg1Spec(1.5, 1.0, 2);
  const std::vector<double> answers = {0.5, -0.5, 0.2};
  double closed_total = 0.0;
  for (const std::string& pattern :
       EnumerateOutputPatterns(answers.size(), 2)) {
    const std::vector<double> prefix(answers.begin(),
                                     answers.begin() + pattern.size());
    const double p =
        OutputProbability(spec, prefix, 0.0, PatternFromString(pattern));
    closed_total += p;
    const McEstimate mc =
        EstimateOutputProbability(spec, prefix, 0.0, pattern, rng, FastMc());
    EXPECT_GE(p, mc.lower - 0.004) << pattern;
    EXPECT_LE(p, mc.upper + 0.004) << pattern;
  }
  EXPECT_NEAR(closed_total, 1.0, 1e-6);
}

}  // namespace
}  // namespace svt
