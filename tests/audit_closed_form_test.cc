#include "audit/closed_form.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "audit/privacy_auditor.h"
#include "common/distributions.h"

namespace svt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(PatternFromStringTest, ParsesSymbols) {
  const auto p = PatternFromString("_T_");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0].kind, OutputEvent::Kind::kBelow);
  EXPECT_EQ(p[1].kind, OutputEvent::Kind::kAbove);
  EXPECT_TRUE(p[1].is_positive());
  EXPECT_FALSE(p[0].is_positive());
}

TEST(PatternFromStringTest, RejectsGarbage) {
  EXPECT_DEATH(PatternFromString("_X"), "pattern characters");
}

TEST(ClosedFormTest, EmptyPatternIsCertain) {
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> no_answers;
  const std::vector<OutputEvent> no_events;
  EXPECT_DOUBLE_EQ(
      LogOutputProbability(spec, no_answers, no_answers, no_events), 0.0);
}

// Symmetry: one query exactly at the threshold splits 50/50 for any
// variant with symmetric noise.
TEST(ClosedFormTest, BorderlineSingleQueryIsHalf) {
  for (const VariantSpec& spec :
       {MakeAlg1Spec(1.0, 1.0, 1), MakeAlg2Spec(1.0, 1.0, 1),
        MakeAlg4Spec(1.0, 1.0, 1), MakeAlg6Spec(1.0, 1.0),
        MakeAlg5Spec(1.0, 1.0)}) {
    const std::vector<double> q = {0.0};
    const double p_above =
        OutputProbability(spec, q, 0.0, PatternFromString("T"));
    const double p_below =
        OutputProbability(spec, q, 0.0, PatternFromString("_"));
    EXPECT_NEAR(p_above, 0.5, 1e-8) << spec.name;
    EXPECT_NEAR(p_below, 0.5, 1e-8) << spec.name;
  }
}

TEST(ClosedFormTest, FarAboveIsNearCertainPositive) {
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> q = {1000.0};
  EXPECT_GT(OutputProbability(spec, q, 0.0, PatternFromString("T")), 0.999);
  EXPECT_LT(OutputProbability(spec, q, 0.0, PatternFromString("_")), 0.001);
}

TEST(ClosedFormTest, CutoffInvalidPatterns) {
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);  // c = 1
  const std::vector<double> q2 = {0.0, 0.0};
  // Output continuing after the first ⊤ is impossible.
  EXPECT_EQ(LogOutputProbability(spec, q2, 0.0, PatternFromString("T_")),
            -kInf);
  EXPECT_EQ(LogOutputProbability(spec, q2, 0.0, PatternFromString("TT")),
            -kInf);
  // ⊤ at the end is fine.
  EXPECT_GT(LogOutputProbability(spec, q2, 0.0, PatternFromString("_T")),
            -kInf);
}

TEST(ClosedFormTest, TotalProbabilityIsOneAcrossVariants) {
  const std::vector<double> answers = {0.5, -1.0, 2.0, 0.0};
  for (const VariantSpec& spec :
       {MakeAlg1Spec(1.0, 1.0, 2), MakeAlg2Spec(1.0, 1.0, 2),
        MakeAlg4Spec(1.0, 1.0, 2), MakeAlg5Spec(1.0, 1.0),
        MakeAlg6Spec(1.0, 1.0), MakeGpttSpec(0.3, 0.7, 1.0)}) {
    EXPECT_NEAR(TotalProbabilityOverPatterns(spec, answers, 0.4), 1.0, 1e-7)
        << spec.name;
  }
}

TEST(ClosedFormTest, TotalProbabilityIsOneForExponentialVariants) {
  // The support clamps must not lose mass: summing over every pattern of
  // the new exponential-noise variants still gives exactly 1.
  const std::vector<double> answers = {0.5, -1.0, 2.0, 0.0};
  for (const VariantSpec& spec :
       {MakeExpNoiseSpec(1.0, 1.0, 2), MakeRevisitedSpec(1.0, 1.0, 2)}) {
    EXPECT_NEAR(TotalProbabilityOverPatterns(spec, answers, 0.4), 1.0, 1e-7)
        << spec.name;
  }
}

TEST(ClosedFormTest, ExpNoiseBorderlineIsAnalytic) {
  // One query at the threshold: P[⊤] = P[ν ≥ ρ]. With ρ ~ Exp(b_ρ) and
  // ν ~ Lap(b_ν), conditioning on z = ρ ≥ 0 gives
  //   P = ∫₀^∞ (1/b_ρ)e^(−z/b_ρ) · ½e^(−z/b_ν) dz = ½·b_ν/(b_ν + b_ρ) —
  // NOT one half: the one-sided threshold noise breaks the symmetry every
  // Laplace variant has (BorderlineSingleQueryIsHalf above).
  const VariantSpec spec = MakeExpNoiseSpec(1.0, 1.0, 1);  // b_ρ=2, b_ν=4
  const std::vector<double> q = {0.0};
  EXPECT_NEAR(OutputProbability(spec, q, 0.0, PatternFromString("T")),
              0.5 * 4.0 / 6.0, 1e-8);
  EXPECT_NEAR(OutputProbability(spec, q, 0.0, PatternFromString("_")),
              1.0 - 0.5 * 4.0 / 6.0, 1e-8);
}

TEST(ClosedFormTest, RevisitedBorderlineIsAnalytic) {
  // All-exponential: P[ν ≥ ρ] = ∫₀^∞ (1/b_ρ)e^(−z/b_ρ)·e^(−z/b_ν) dz
  //                           = b_ν/(b_ν + b_ρ).
  const VariantSpec spec = MakeRevisitedSpec(2.0, 1.0, 1);  // b_ρ=1, b_ν=2
  const std::vector<double> q = {0.0};
  EXPECT_NEAR(OutputProbability(spec, q, 0.0, PatternFromString("T")),
              2.0 / 3.0, 1e-8);
  EXPECT_NEAR(OutputProbability(spec, q, 0.0, PatternFromString("_")),
              1.0 / 3.0, 1e-8);
}

// ν = 0 with one-sided ρ: probabilities reduce to exact exponential-CDF
// differences, and events requiring ρ ≤ 0 are hard (not just numeric)
// zeros — the support clamp at z = 0 in action.
TEST(ClosedFormTest, ExpRhoIndicatorProbabilitiesExact) {
  VariantSpec spec;
  spec.name = "exp-rho-nu0";
  spec.rho_kind = NoiseKind::kExponential;
  spec.rho_scale = 2.0;
  spec.nu_scale = 0.0;
  const Exponential rho = Exponential::FromScale(2.0);
  const std::vector<double> q = {0.0, 1.0};
  // ⊥⊤ with T = 0: z > 0 (first ⊥) and z ≤ 1 (second ⊤): P = F(1) − F(0)
  // = F(1).
  EXPECT_NEAR(OutputProbability(spec, q, 0.0, PatternFromString("_T")),
              rho.Cdf(1.0), 1e-10);
  // ⊤⊤ needs z ≤ 0, but ρ ≥ 0 almost surely puts zero mass there.
  EXPECT_EQ(LogOutputProbability(spec, q, 0.0, PatternFromString("TT")),
            -kInf);
  // ⊥⊥: z > 1: P = Sf(1).
  EXPECT_NEAR(OutputProbability(spec, q, 0.0, PatternFromString("__")),
              rho.Sf(1.0), 1e-10);
}

TEST(ClosedFormTest, RevisitedSegmentsMultiply) {
  // The resample-ρ factorization carries over to the exponential axis:
  // Pr[⊤ then ⊥] = Pr[⊤] · Pr[⊥ under a fresh one-sided ρ].
  const VariantSpec rev = MakeRevisitedSpec(1.0, 1.0, 2);
  const std::vector<double> q = {0.5, -0.4};
  const double joint =
      LogOutputProbability(rev, q, 0.0, PatternFromString("T_"));

  const std::vector<double> q1 = {0.5};
  const std::vector<double> q2 = {-0.4};
  const double first =
      LogOutputProbability(rev, q1, 0.0, PatternFromString("T"));
  VariantSpec fresh = rev;
  fresh.rho_scale = rev.rho_resample_scale;
  const double second =
      LogOutputProbability(fresh, q2, 0.0, PatternFromString("_"));
  EXPECT_NEAR(joint, first + second, 1e-8);
}

TEST(ClosedFormTest, ExpNoiseProbabilityMonotoneInAnswer) {
  const VariantSpec spec = MakeExpNoiseSpec(0.5, 1.0, 1);
  double prev = 0.0;
  for (double answer : {-5.0, -1.0, 0.0, 1.0, 5.0}) {
    const std::vector<double> q = {answer};
    const double p = OutputProbability(spec, q, 0.0, PatternFromString("T"));
    EXPECT_GT(p, prev) << "answer=" << answer;
    prev = p;
  }
}

TEST(ClosedFormTest, PerQueryThresholdsShiftEquivalence) {
  // Figure 1 footnote: (q_i, T_i) ≡ (q_i − T_i, 0).
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 2);
  const std::vector<double> q = {3.0, 1.0, -2.0};
  const std::vector<double> t = {2.5, 1.5, -3.0};
  std::vector<double> shifted(q.size());
  for (size_t i = 0; i < q.size(); ++i) shifted[i] = q[i] - t[i];
  for (const char* pattern : {"___", "T__", "_T_", "__T", "TT", "_TT"}) {
    const auto events = PatternFromString(pattern);
    const std::vector<double> qq(q.begin(), q.begin() + events.size());
    const std::vector<double> tt(t.begin(), t.begin() + events.size());
    const std::vector<double> ss(shifted.begin(),
                                 shifted.begin() + events.size());
    EXPECT_NEAR(LogOutputProbability(spec, qq, tt, events),
                LogOutputProbability(spec, ss, 0.0, events), 1e-8)
        << pattern;
  }
}

// Alg. 5 (ν = 0): probabilities reduce to exact Laplace-CDF differences of
// the threshold noise.
TEST(ClosedFormTest, Alg5ExactIndicatorProbabilities) {
  const VariantSpec spec = MakeAlg5Spec(1.0, 1.0);  // rho ~ Lap(2)
  const Laplace rho(0.0, 2.0);
  const std::vector<double> q = {0.0, 1.0};
  // Pattern ⊥⊤ with T = 0: needs z > 0 (first ⊥) and z ≤ 1 (second ⊤):
  // P = F(1) − F(0).
  EXPECT_NEAR(OutputProbability(spec, q, 0.0, PatternFromString("_T")),
              rho.Cdf(1.0) - rho.Cdf(0.0), 1e-10);
  // Pattern ⊤⊥: needs z ≤ 0 and z > 1: impossible.
  EXPECT_EQ(LogOutputProbability(spec, q, 0.0, PatternFromString("T_")),
            -kInf);
  // Pattern ⊤⊤: z ≤ 0 and z ≤ 1 => z ≤ 0: P = F(0) = 1/2.
  EXPECT_NEAR(OutputProbability(spec, q, 0.0, PatternFromString("TT")), 0.5,
              1e-10);
  // Pattern ⊥⊥: z > 1: P = 1 − F(1).
  EXPECT_NEAR(OutputProbability(spec, q, 0.0, PatternFromString("__")),
              rho.Sf(1.0), 1e-10);
}

// Theorem 3's exact statement: for Alg. 5, Pr[A(D)=⟨⊥,⊤⟩] > 0 while
// Pr[A(D')=⟨⊥,⊤⟩] = 0.
TEST(ClosedFormTest, Theorem3HardZero) {
  const VariantSpec spec = MakeAlg5Spec(1.0, 1.0);
  const std::vector<double> qd = {0.0, 1.0};
  const std::vector<double> qdp = {1.0, 0.0};
  const auto pattern = PatternFromString("_T");
  EXPECT_GT(LogOutputProbability(spec, qd, 0.0, pattern), -kInf);
  EXPECT_EQ(LogOutputProbability(spec, qdp, 0.0, pattern), -kInf);
}

// Numeric outputs (Alg. 3): the emitted value contributes the density of
// the comparison noise and caps the feasible threshold noise.
TEST(ClosedFormTest, Alg3NumericOutputSingleQuery) {
  const double epsilon = 1.0;
  const VariantSpec spec = MakeAlg3Spec(epsilon, 1.0, 1);
  // One query with q = 0, T = 0, output = value 0. Event: ν = 0 (density)
  // and 0 ≥ T + z, i.e. z ≤ 0 (half the rho mass).
  std::vector<OutputEvent> pattern = {OutputEvent::AboveValue(0.0)};
  const std::vector<double> q = {0.0};
  const Laplace nu(0.0, spec.nu_scale);
  const double expect = std::log(nu.Pdf(0.0)) + std::log(0.5);
  EXPECT_NEAR(LogOutputProbability(spec, q, 0.0, pattern), expect, 1e-8);
}

TEST(ClosedFormTest, Alg3EmittedValueCapsThresholdNoise) {
  const VariantSpec spec = MakeAlg3Spec(1.0, 1.0, 1);
  // Emitting value −5 with T = 0 requires z ≤ −5: much less likely than
  // emitting value +5 (z ≤ 5), even though the ν densities match for q=0...
  // note pdf_ν(−5) = pdf_ν(5), so the entire difference is the z-cap.
  const std::vector<double> q = {0.0};
  const double log_p_neg = LogOutputProbability(
      spec, q, 0.0, std::vector<OutputEvent>{OutputEvent::AboveValue(-5.0)});
  const double log_p_pos = LogOutputProbability(
      spec, q, 0.0, std::vector<OutputEvent>{OutputEvent::AboveValue(5.0)});
  EXPECT_LT(log_p_neg, log_p_pos);
}

TEST(ClosedFormTest, IndicatorPatternOnNumericVariantDies) {
  const VariantSpec spec = MakeAlg3Spec(1.0, 1.0, 1);
  const std::vector<double> q = {0.0};
  EXPECT_DEATH(
      LogOutputProbability(spec, q, 0.0, PatternFromString("T")),
      "emits numeric");
}

TEST(ClosedFormTest, UnrunnableSpecDies) {
  VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  spec.rho_scale = kInf;
  const std::vector<double> q(4, 0.0);
  EXPECT_DEATH(LogOutputProbability(spec, q, 0.0, PatternFromString("____")),
               "Alg1-LyuSuLi: rho_scale must be positive");
}

// Alg. 2's resampling factorizes across segments: for patterns with no
// positives it must agree with a no-resampling spec of the same scales.
TEST(ClosedFormTest, Alg2AllNegativeMatchesNoResample) {
  const VariantSpec alg2 = MakeAlg2Spec(1.0, 1.0, 2);
  VariantSpec no_resample = alg2;
  no_resample.resample_rho_after_positive = false;
  const std::vector<double> q = {0.3, -0.7, 1.1};
  const auto pattern = PatternFromString("___");
  EXPECT_NEAR(LogOutputProbability(alg2, q, 0.0, pattern),
              LogOutputProbability(no_resample, q, 0.0, pattern), 1e-9);
}

TEST(ClosedFormTest, Alg2SegmentsMultiply) {
  // With resampling, Pr[⊤ then ⊥] = Pr[⊤] · Pr[⊥ under fresh rho] — the
  // segments are independent.
  const VariantSpec alg2 = MakeAlg2Spec(1.0, 1.0, 2);
  const std::vector<double> q = {0.5, -0.4};
  const double joint =
      LogOutputProbability(alg2, q, 0.0, PatternFromString("T_"));

  const std::vector<double> q1 = {0.5};
  const std::vector<double> q2 = {-0.4};
  const double first =
      LogOutputProbability(alg2, q1, 0.0, PatternFromString("T"));
  // Second segment uses the resample scale.
  VariantSpec fresh = alg2;
  fresh.rho_scale = alg2.rho_resample_scale;
  const double second =
      LogOutputProbability(fresh, q2, 0.0, PatternFromString("_"));
  EXPECT_NEAR(joint, first + second, 1e-8);
}

// Alg. 7 with ε₃ > 0: numeric answers use fresh noise, so the value's
// density factors out and the indicator marginal matches the ⊤ pattern.
TEST(ClosedFormTest, StandardNumericMarginalizes) {
  const BudgetSplit split{0.25, 0.25, 0.5};
  const VariantSpec spec = MakeStandardSpec(split, 1.0, 1, false);
  const std::vector<double> q = {1.0};
  const double log_indicator =
      LogOutputProbability(spec, q, 0.0, PatternFromString("T"));
  // Joint with a particular value = indicator × density(value).
  const double v = 1.7;
  const double log_joint = LogOutputProbability(
      spec, q, 0.0, std::vector<OutputEvent>{OutputEvent::AboveValue(v)});
  const Laplace numeric(0.0, spec.numeric_scale);
  EXPECT_NEAR(log_joint, log_indicator + numeric.LogPdf(v - 1.0), 1e-8);
}

TEST(ClosedFormTest, ProbabilityMonotoneInAnswer) {
  const VariantSpec spec = MakeAlg1Spec(0.5, 1.0, 1);
  double prev = 0.0;
  for (double answer : {-5.0, -1.0, 0.0, 1.0, 5.0}) {
    const std::vector<double> q = {answer};
    const double p = OutputProbability(spec, q, 0.0, PatternFromString("T"));
    EXPECT_GT(p, prev) << "answer=" << answer;
    prev = p;
  }
}

TEST(ClosedFormTest, PatternLongerThanAnswersDies) {
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> q = {0.0};
  EXPECT_DEATH(LogOutputProbability(spec, q, 0.0, PatternFromString("_T")),
               "mismatch");
}

TEST(ClosedFormTest, PrefixPatternUsesLeadingAnswers) {
  // A pattern shorter than the answer stream is the probability of that
  // prefix; trailing answers are ignored.
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> all = {0.7, 123.0, -456.0};
  const std::vector<double> first = {0.7};
  EXPECT_NEAR(LogOutputProbability(spec, all, 0.0, PatternFromString("T")),
              LogOutputProbability(spec, first, 0.0, PatternFromString("T")),
              1e-12);
}

}  // namespace
}  // namespace svt
