#include "core/svt_variants.h"

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace svt {
namespace {

constexpr VariantId kAllVariantIds[] = {
    VariantId::kAlg1,     VariantId::kAlg2,     VariantId::kAlg3,
    VariantId::kAlg4,     VariantId::kAlg5,     VariantId::kAlg6,
    VariantId::kStandard, VariantId::kGptt,     VariantId::kExpNoise,
    VariantId::kRevisited};

TEST(DworkRothSvtTest, RespectsCutoff) {
  Rng rng(1);
  auto mech = DworkRothSvt::Create(10.0, 1.0, 3, &rng).value();
  int positives = 0;
  for (int i = 0; i < 500 && !mech->exhausted(); ++i) {
    if (mech->Process(1e9, 0.0).is_positive()) ++positives;
  }
  EXPECT_EQ(positives, 3);
}

TEST(DworkRothSvtTest, ResamplesThresholdAfterPositive) {
  // Indirect but deterministic evidence of resampling: with a shared seed,
  // a variant that resamples consumes more RNG draws after a positive than
  // one that does not, so subsequent outputs diverge from a non-resampling
  // spec with identical scales.
  VariantSpec resample = MakeAlg2Spec(1.0, 1.0, 5);
  VariantSpec no_resample = resample;
  no_resample.resample_rho_after_positive = false;

  int diverged = 0;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng_a(seed), rng_b(seed);
    SparseVector a(resample, &rng_a);
    SparseVector b(no_resample, &rng_b);
    std::string pattern_a, pattern_b;
    for (int i = 0; i < 40; ++i) {
      if (a.exhausted() || b.exhausted()) break;
      pattern_a += a.Process(i % 2 ? 50.0 : -50.0, 0.0).is_positive() ? 'T'
                                                                      : '_';
      pattern_b += b.Process(i % 2 ? 50.0 : -50.0, 0.0).is_positive() ? 'T'
                                                                      : '_';
    }
    if (pattern_a != pattern_b) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

TEST(RothNotesSvtTest, PositivesCarryNoisyValue) {
  Rng rng(2);
  auto mech = RothNotesSvt::Create(10.0, 1.0, 5, &rng).value();
  int numeric = 0;
  for (int i = 0; i < 100 && !mech->exhausted(); ++i) {
    const Response r = mech->Process(1000.0, 0.0);
    if (r.is_positive()) {
      ASSERT_EQ(r.outcome, Outcome::kAboveValue);
      // Value is q + ν with ν ~ Lap(cΔ/ε2) = Lap(1); must be near q.
      EXPECT_NEAR(r.value, 1000.0, 60.0);
      ++numeric;
    }
  }
  EXPECT_GT(numeric, 0);
}

TEST(RothNotesSvtTest, EmittedValueExceedsNoisyThresholdImplicitly) {
  // The emitted value is the same noisy answer that won the comparison, so
  // it can never be smaller than (T + rho) at emission time. We can't see
  // rho directly, but emitted values must all exceed the threshold minus
  // the maximum plausible |rho| — a smoke check that the comparison noise
  // is reused rather than redrawn.
  Rng rng(3);
  VariantSpec spec = MakeAlg3Spec(1.0, 1.0, 1);
  for (int trial = 0; trial < 200; ++trial) {
    SparseVector mech(spec, &rng);
    // Answer far above: positive on the first query almost surely.
    const Response r = mech.Process(1000.0, 999.0);
    if (r.is_positive()) {
      // value = 1000 + nu; threshold 999 + rho. value >= 999 + rho always.
      EXPECT_GT(r.value, 999.0 - 200.0);
    }
  }
}

TEST(LeeCliftonSvtTest, CutoffHolds) {
  Rng rng(4);
  auto mech = LeeCliftonSvt::Create(1.0, 1.0, 2, &rng).value();
  int positives = 0;
  for (int i = 0; i < 100 && !mech->exhausted(); ++i) {
    if (mech->Process(1e9, 0.0).is_positive()) ++positives;
  }
  EXPECT_EQ(positives, 2);
}

TEST(LeeCliftonSvtTest, MonotonicFlagChangesClaimOnly) {
  Rng rng(5);
  auto gen = LeeCliftonSvt::Create(1.0, 1.0, 5, &rng, false).value();
  auto mono = LeeCliftonSvt::Create(1.0, 1.0, 5, &rng, true).value();
  EXPECT_DOUBLE_EQ(gen->spec().nu_scale, mono->spec().nu_scale);
  EXPECT_NE(gen->spec().privacy_scale_factor,
            mono->spec().privacy_scale_factor);
}

TEST(StoddardSvtTest, NeverExhaustsAndAddsNoQueryNoise) {
  Rng rng(6);
  auto mech = StoddardSvt::Create(1.0, 1.0, &rng).value();
  // ν = 0: answers far from the (noisy) threshold behave deterministically
  // given rho; with answer >> any plausible rho, every output is ⊤.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_FALSE(mech->exhausted());
    ASSERT_TRUE(mech->Process(1e9, 0.0).is_positive());
  }
  EXPECT_EQ(mech->positives_emitted(), 1000);
}

TEST(StoddardSvtTest, OutputIsDeterministicGivenThresholdNoise) {
  // With ν = 0 the entire output vector is a deterministic function of rho:
  // outputs for the same query can never flip within one run.
  Rng rng(7);
  auto mech = StoddardSvt::Create(1.0, 1.0, &rng).value();
  const Response first = mech->Process(0.123, 0.0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(mech->Process(0.123, 0.0).is_positive(), first.is_positive());
  }
}

TEST(ChenSvtTest, NoCutoffUnlimitedPositives) {
  Rng rng(8);
  auto mech = ChenSvt::Create(1.0, 1.0, &rng).value();
  int positives = 0;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_FALSE(mech->exhausted());
    if (mech->Process(1e9, 0.0).is_positive()) ++positives;
  }
  EXPECT_EQ(positives, 2000);
}

TEST(GpttTest, GeneralizesAlg6) {
  Rng rng(9);
  auto gptt = Gptt::Create(0.5, 0.5, 1.0, &rng).value();
  EXPECT_DOUBLE_EQ(gptt->spec().rho_scale, 2.0);
  EXPECT_DOUBLE_EQ(gptt->spec().nu_scale, 2.0);
  EXPECT_FALSE(gptt->spec().cutoff.has_value());

  auto skewed = Gptt::Create(0.9, 0.1, 1.0, &rng).value();
  EXPECT_NEAR(skewed->spec().rho_scale, 1.0 / 0.9, 1e-12);
  EXPECT_NEAR(skewed->spec().nu_scale, 10.0, 1e-12);
}

TEST(VariantFactoryTest, AllIdsConstruct) {
  Rng rng(10);
  for (VariantId id : {VariantId::kAlg1, VariantId::kAlg2, VariantId::kAlg3,
                       VariantId::kAlg4, VariantId::kAlg5, VariantId::kAlg6,
                       VariantId::kStandard, VariantId::kGptt,
                       VariantId::kExpNoise, VariantId::kRevisited}) {
    auto mech = MakeVariantMechanism(id, 1.0, 1.0, 3, &rng);
    ASSERT_TRUE(mech.ok()) << VariantIdToString(id);
    // Every mechanism can process a query.
    (*mech)->Process(0.0, 0.0);
    EXPECT_EQ((*mech)->queries_processed(), 1);
  }
}

TEST(VariantFactoryTest, RejectsBadArgs) {
  Rng rng(11);
  EXPECT_FALSE(MakeVariantMechanism(VariantId::kAlg1, -1.0, 1.0, 3, &rng).ok());
  EXPECT_FALSE(MakeVariantMechanism(VariantId::kAlg2, 1.0, 0.0, 3, &rng).ok());
  EXPECT_FALSE(MakeVariantMechanism(VariantId::kAlg3, 1.0, 1.0, 0, &rng).ok());
  EXPECT_FALSE(
      MakeVariantMechanism(VariantId::kAlg1, 1.0, 1.0, 3, nullptr).ok());

  // (ε, Δ) pairs whose noise scales are not finite (or, at ε = +inf, a zero
  // ρ scale): every factory must refuse them rather than build a mechanism
  // that draws ρ = ±inf or aborts in the sampler. At ε = 5e-324 half of ε
  // rounds to 0, which the Alg. 7 and GPTT spec makers abort on.
  using Factory = std::function<Result<std::unique_ptr<SparseVector>>(
      double epsilon, double sensitivity, Rng* rng)>;
  std::vector<std::pair<std::string, Factory>> factories = {
      {"SparseVector",
       [](double e, double s, Rng* r) {
         SvtOptions o;
         o.epsilon = e;
         o.sensitivity = s;
         o.cutoff = 2;
         return SparseVector::Create(o, r);
       }},
      {"DworkRothSvt",
       [](double e, double s, Rng* r) {
         return DworkRothSvt::Create(e, s, 2, r);
       }},
      {"RothNotesSvt",
       [](double e, double s, Rng* r) {
         return RothNotesSvt::Create(e, s, 2, r);
       }},
      {"LeeCliftonSvt",
       [](double e, double s, Rng* r) {
         return LeeCliftonSvt::Create(e, s, 2, r);
       }},
      {"StoddardSvt",
       [](double e, double s, Rng* r) { return StoddardSvt::Create(e, s, r); }},
      {"ChenSvt",
       [](double e, double s, Rng* r) { return ChenSvt::Create(e, s, r); }},
      {"Gptt",
       [](double e, double s, Rng* r) {
         return Gptt::Create(e / 2.0, e / 2.0, s, r);
       }},
      {"ExpNoiseSvt",
       [](double e, double s, Rng* r) {
         return ExpNoiseSvt::Create(e, s, 2, r);
       }},
      {"RevisitedSvt",
       [](double e, double s, Rng* r) {
         return RevisitedSvt::Create(e, s, 2, r);
       }},
  };
  for (VariantId id : kAllVariantIds) {
    factories.push_back(
        {"MakeVariantMechanism " + std::string(VariantIdToString(id)),
         [id](double e, double s, Rng* r) {
           return MakeVariantMechanism(id, e, s, 2, r);
         }});
  }
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> bad[] = {
      {inf, 1.0}, {1.0, inf}, {1e-310, 1.0}, {1.0, 1e308}, {5e-324, 1.0}};
  for (const auto& [name, factory] : factories) {
    ASSERT_TRUE(factory(1.0, 1.0, &rng).ok()) << name;
    for (const auto& [epsilon, sensitivity] : bad) {
      const auto mech = factory(epsilon, sensitivity, &rng);
      ASSERT_FALSE(mech.ok()) << name << " eps=" << epsilon
                              << " sens=" << sensitivity;
      EXPECT_EQ(mech.status().code(), StatusCode::kInvalidArgument) << name;
    }
  }
}

TEST(VariantSpecTest, ValidateRejectsUnrunnableSpecs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const VariantSpec good = MakeAlg2Spec(1.0, 1.0, 2);
  EXPECT_TRUE(good.Validate().ok());
  EXPECT_TRUE(MakeAlg5Spec(1.0, 1.0).Validate().ok());  // ν scale 0

  std::vector<std::pair<std::string, VariantSpec>> cases;
  const auto with = [&](const std::string& what, auto edit) {
    VariantSpec spec = good;
    edit(spec);
    cases.emplace_back(what, spec);
  };
  with("rho 0", [](VariantSpec& s) { s.rho_scale = 0.0; });
  with("rho inf", [&](VariantSpec& s) { s.rho_scale = inf; });
  with("rho nan", [&](VariantSpec& s) { s.rho_scale = nan; });
  // Finite, but its largest variate (53 ln 2 scales) is not.
  with("rho huge", [](VariantSpec& s) { s.rho_scale = 1e307; });
  with("nu negative", [](VariantSpec& s) { s.nu_scale = -1.0; });
  with("nu inf", [&](VariantSpec& s) { s.nu_scale = inf; });
  with("resample 0", [](VariantSpec& s) { s.rho_resample_scale = 0.0; });
  with("resample inf", [&](VariantSpec& s) { s.rho_resample_scale = inf; });
  with("numeric inf", [&](VariantSpec& s) { s.numeric_scale = inf; });
  with("numeric negative", [](VariantSpec& s) { s.numeric_scale = -1.0; });
  with("cutoff 0", [](VariantSpec& s) { s.cutoff = 0; });
  for (const auto& [what, spec] : cases) {
    const Status status = spec.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
  }
}

TEST(VariantSpecDeathTest, ConstructorChecksTheSpec) {
  VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 2);
  spec.nu_scale = std::numeric_limits<double>::infinity();
  Rng rng(12);
  EXPECT_DEATH({ SparseVector mech(spec, &rng); }, "nu_scale");
}

TEST(VariantSpecDeathTest, MakeSpecRejectsAnEpsilonTooSmallToSplit) {
  // Half (and a quarter) of the smallest subnormal rounds to 0.
  for (VariantId id : kAllVariantIds) {
    EXPECT_DEATH(MakeSpec(id, 5e-324, 1.0, 2),
                 "epsilon 4.94066e-324 is too small to split")
        << VariantIdToString(id);
  }
  EXPECT_FALSE(CanSplitEpsilon(5e-324));
  EXPECT_FALSE(CanSplitEpsilon(0.0));
  EXPECT_TRUE(CanSplitEpsilon(1e-300));
}

TEST(SparseVectorSpecTest, RunsArbitrarySpec) {
  Rng rng(12);
  VariantSpec spec = MakeAlg1Spec(2.0, 1.0, 2);
  SparseVector mech(spec, &rng);
  const std::vector<double> answers = {100.0, -100.0, 100.0, 100.0};
  const std::vector<Response> rs = mech.Run(answers, 0.0);
  int positives = 0;
  for (const Response& r : rs) positives += r.is_positive() ? 1 : 0;
  EXPECT_LE(positives, 2);
}

TEST(SparseVectorSpecTest, ResetRedrawsThreshold) {
  Rng rng(13);
  VariantSpec spec = MakeAlg5Spec(1.0, 1.0);  // ν = 0: output reveals rho side
  SparseVector mech(spec, &rng);
  // For answer 0 and threshold 0, output is ⊤ iff 0 >= rho, i.e. rho <= 0:
  // a fair coin across resets. Both outcomes must occur over many resets.
  int positives = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    positives += mech.Process(0.0, 0.0).is_positive() ? 1 : 0;
    mech.Reset();
  }
  EXPECT_GT(positives, trials / 3);
  EXPECT_LT(positives, 2 * trials / 3);
}

class AllVariantsSweep : public ::testing::TestWithParam<VariantId> {};

TEST_P(AllVariantsSweep, DeterministicGivenSeed) {
  const VariantId id = GetParam();
  const std::vector<double> answers = {3.0, -5.0, 11.0, 0.5, -2.0, 8.0};
  Rng rng1(77), rng2(77);
  auto m1 = MakeVariantMechanism(id, 0.7, 1.0, 2, &rng1).value();
  auto m2 = MakeVariantMechanism(id, 0.7, 1.0, 2, &rng2).value();
  EXPECT_EQ(ToString(m1->Run(answers, 1.0)), ToString(m2->Run(answers, 1.0)));
}

TEST_P(AllVariantsSweep, ResetZeroesCounters) {
  const VariantId id = GetParam();
  Rng rng(78);
  auto mech = MakeVariantMechanism(id, 0.7, 1.0, 2, &rng).value();
  mech->Process(10.0, 0.0);
  mech->Reset();
  EXPECT_EQ(mech->queries_processed(), 0);
  EXPECT_EQ(mech->positives_emitted(), 0);
  EXPECT_FALSE(mech->exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    Variants, AllVariantsSweep,
    ::testing::Values(VariantId::kAlg1, VariantId::kAlg2, VariantId::kAlg3,
                      VariantId::kAlg4, VariantId::kAlg5, VariantId::kAlg6,
                      VariantId::kStandard, VariantId::kGptt,
                      VariantId::kExpNoise, VariantId::kRevisited));

TEST(ExpNoiseSvtTest, SpecMatchesLiuParameterization) {
  Rng rng(14);
  auto mech = ExpNoiseSvt::Create(1.0, 1.0, 4, &rng).value();
  const VariantSpec& spec = mech->spec();
  EXPECT_EQ(spec.rho_kind, NoiseKind::kExponential);
  EXPECT_EQ(spec.nu_kind, NoiseKind::kLaplace);
  EXPECT_DOUBLE_EQ(spec.rho_scale, 2.0);       // Δ/ε₁ = 1/(ε/2)
  EXPECT_DOUBLE_EQ(spec.nu_scale, 16.0);       // 2cΔ/ε₂ = 8/(ε/2)
  EXPECT_FALSE(spec.resample_rho_after_positive);
  ASSERT_TRUE(spec.cutoff.has_value());
  EXPECT_EQ(*spec.cutoff, 4);
  EXPECT_EQ(spec.actual_privacy, PrivacyClass::kPureDp);
}

TEST(ExpNoiseSvtTest, RespectsCutoff) {
  Rng rng(15);
  auto mech = ExpNoiseSvt::Create(10.0, 1.0, 3, &rng).value();
  int positives = 0;
  for (int i = 0; i < 500 && !mech->exhausted(); ++i) {
    if (mech->Process(1e9, 0.0).is_positive()) ++positives;
  }
  EXPECT_EQ(positives, 3);
}

TEST(RevisitedSvtTest, SpecMatchesMonitorParameterization) {
  Rng rng(16);
  auto mech = RevisitedSvt::Create(1.0, 1.0, 4, &rng).value();
  const VariantSpec& spec = mech->spec();
  EXPECT_EQ(spec.rho_kind, NoiseKind::kExponential);
  EXPECT_EQ(spec.nu_kind, NoiseKind::kExponential);
  EXPECT_DOUBLE_EQ(spec.rho_scale, 8.0);       // cΔ/ε₁ = 4/(ε/2)
  EXPECT_DOUBLE_EQ(spec.nu_scale, 16.0);       // 2cΔ/ε₂
  EXPECT_TRUE(spec.resample_rho_after_positive);
  EXPECT_DOUBLE_EQ(spec.rho_resample_scale, spec.rho_scale);
  EXPECT_EQ(spec.actual_privacy, PrivacyClass::kPureDp);
}

TEST(ExpNoiseSvtTest, ThresholdNoiseIsOneSided) {
  // ρ ~ Exp(b) ≥ 0 means an answer exactly at the threshold can only fire
  // when ν ≥ ρ — unlike the Laplace variants, where ρ < 0 half the time.
  // Observable consequence: with ν's scale tiny relative to ρ's, answers
  // slightly below the threshold essentially never fire.
  int fired = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    // ε large → tiny ν scale relative to the probe offset below.
    auto mech = ExpNoiseSvt::Create(20.0, 1.0, 1, &rng).value();
    if (mech->Process(-5.0, 0.0).is_positive()) ++fired;
  }
  // Pr[ν − ρ ≥ 5] with ν ~ Lap(0.2), ρ ~ Exp(0.1): ~e^{-25}, never fires.
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace svt
