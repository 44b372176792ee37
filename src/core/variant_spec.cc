#include "core/variant_spec.h"

#include <limits>

#include "common/check.h"
#include "common/distributions.h"

namespace svt {

namespace {

void CheckCommon(double epsilon, double sensitivity) {
  SVT_CHECK(epsilon > 0.0) << "epsilon must be positive, got " << epsilon;
  SVT_CHECK(sensitivity > 0.0)
      << "sensitivity must be positive, got " << sensitivity;
}

// A scale no larger than this keeps its largest variate finite: the
// word→variate map (core/svt.h, step 4) yields at most 53·ln 2 ≈ 36.7
// scales.
constexpr double kMaxScale = std::numeric_limits<double>::max() / 64.0;

Status CheckScale(const char* what, double scale, bool positive) {
  if (!(scale <= kMaxScale) || !(positive ? scale > 0.0 : scale >= 0.0)) {
    return Status::InvalidArgument(
        std::string(what) + " must be " +
        (positive ? "positive" : "non-negative") +
        " and finite with a finite largest variate, got " +
        std::to_string(scale));
  }
  return Status::OK();
}

}  // namespace

Status VariantSpec::Validate() const {
  SVT_RETURN_NOT_OK(CheckScale("rho_scale", rho_scale, /*positive=*/true));
  SVT_RETURN_NOT_OK(CheckScale("nu_scale", nu_scale, /*positive=*/false));
  SVT_RETURN_NOT_OK(CheckScale("rho_resample_scale", rho_resample_scale,
                               /*positive=*/resample_rho_after_positive));
  SVT_RETURN_NOT_OK(
      CheckScale("numeric_scale", numeric_scale, /*positive=*/false));
  if (cutoff.has_value() && *cutoff < 1) {
    return Status::InvalidArgument("cutoff must be >= 1, got " +
                                   std::to_string(*cutoff));
  }
  return Status::OK();
}

std::string_view PrivacyClassToString(PrivacyClass c) {
  switch (c) {
    case PrivacyClass::kPureDp:
      return "eps-DP";
    case PrivacyClass::kScaledDp:
      return "scaled-eps-DP";
    case PrivacyClass::kInfiniteDp:
      return "inf-DP";
  }
  return "unknown";
}

std::string_view VariantIdToString(VariantId id) {
  switch (id) {
    case VariantId::kAlg1:
      return "Alg1-LyuSuLi";
    case VariantId::kAlg2:
      return "Alg2-DworkRoth";
    case VariantId::kAlg3:
      return "Alg3-RothNotes";
    case VariantId::kAlg4:
      return "Alg4-LeeClifton";
    case VariantId::kAlg5:
      return "Alg5-Stoddard";
    case VariantId::kAlg6:
      return "Alg6-Chen";
    case VariantId::kStandard:
      return "Alg7-Standard";
    case VariantId::kGptt:
      return "GPTT";
    case VariantId::kExpNoise:
      return "ExpSVT-Liu24";
    case VariantId::kRevisited:
      return "RevSVT-KMS20";
  }
  return "unknown";
}

std::string_view NoiseKindToString(NoiseKind k) {
  switch (k) {
    case NoiseKind::kLaplace:
      return "laplace";
    case NoiseKind::kExponential:
      return "exponential";
  }
  return "unknown";
}

size_t WordsPerVariate(NoiseKind kind) {
  return kind == NoiseKind::kExponential ? 1 : 2;
}

double SampleNoise(Rng& rng, NoiseKind kind, double scale) {
  switch (kind) {
    case NoiseKind::kLaplace:
      return SampleLaplace(rng, scale);
    case NoiseKind::kExponential:
      return SampleExponential(rng, scale);
  }
  SVT_CHECK(false) << "unknown NoiseKind";
  return 0.0;
}

void TransformNoise(NoiseKind kind, double scale,
                    std::span<const uint64_t> words, std::span<double> out) {
  if (kind == NoiseKind::kExponential) {
    Exponential::FromScale(scale).TransformBlock(words, out);
  } else {
    Laplace::Centered(scale).TransformBlock(words, out);
  }
}

VariantSpec MakeAlg1Spec(double epsilon, double sensitivity, int cutoff) {
  CheckCommon(epsilon, sensitivity);
  SVT_CHECK(cutoff >= 1);
  VariantSpec s;
  s.name = "Alg1-LyuSuLi";
  s.epsilon = epsilon;
  s.sensitivity = sensitivity;
  s.budget = BudgetSplit{epsilon / 2.0, epsilon / 2.0, 0.0};
  s.rho_scale = sensitivity / s.budget.epsilon1;
  s.nu_scale = 2.0 * cutoff * sensitivity / s.budget.epsilon2;
  s.cutoff = cutoff;
  s.actual_privacy = PrivacyClass::kPureDp;
  return s;
}

VariantSpec MakeAlg2Spec(double epsilon, double sensitivity, int cutoff) {
  CheckCommon(epsilon, sensitivity);
  SVT_CHECK(cutoff >= 1);
  VariantSpec s;
  s.name = "Alg2-DworkRoth";
  s.epsilon = epsilon;
  s.sensitivity = sensitivity;
  s.budget = BudgetSplit{epsilon / 2.0, epsilon / 2.0, 0.0};
  const double c = static_cast<double>(cutoff);
  // Figure 1, Alg. 2: rho ~ Lap(cΔ/ε₁); ν ~ Lap(2cΔ/ε₁); on ⊤ the threshold
  // noise is re-drawn as Lap(cΔ/ε₂). With ε₁ = ε₂ = ε/2 the two rho scales
  // coincide, but we keep them as written.
  s.rho_scale = c * sensitivity / s.budget.epsilon1;
  s.nu_scale = 2.0 * c * sensitivity / s.budget.epsilon1;
  s.resample_rho_after_positive = true;
  s.rho_resample_scale = c * sensitivity / s.budget.epsilon2;
  s.cutoff = cutoff;
  s.actual_privacy = PrivacyClass::kPureDp;
  return s;
}

VariantSpec MakeAlg3Spec(double epsilon, double sensitivity, int cutoff) {
  CheckCommon(epsilon, sensitivity);
  SVT_CHECK(cutoff >= 1);
  VariantSpec s;
  s.name = "Alg3-RothNotes";
  s.epsilon = epsilon;
  s.sensitivity = sensitivity;
  s.budget = BudgetSplit{epsilon / 2.0, epsilon / 2.0, 0.0};
  s.rho_scale = sensitivity / s.budget.epsilon1;
  s.nu_scale = cutoff * sensitivity / s.budget.epsilon2;
  s.cutoff = cutoff;
  s.output_query_value_on_positive = true;
  s.actual_privacy = PrivacyClass::kInfiniteDp;
  return s;
}

VariantSpec MakeAlg4Spec(double epsilon, double sensitivity, int cutoff,
                         bool monotonic) {
  CheckCommon(epsilon, sensitivity);
  SVT_CHECK(cutoff >= 1);
  VariantSpec s;
  s.name = "Alg4-LeeClifton";
  s.epsilon = epsilon;
  s.sensitivity = sensitivity;
  s.budget = BudgetSplit{epsilon / 4.0, 3.0 * epsilon / 4.0, 0.0};
  s.rho_scale = sensitivity / s.budget.epsilon1;
  s.nu_scale = sensitivity / s.budget.epsilon2;
  s.cutoff = cutoff;
  s.actual_privacy = PrivacyClass::kScaledDp;
  // §3.2: (1+6c)/4 in general; (1+3c)/4 for monotonic counting queries.
  s.privacy_scale_factor =
      monotonic ? (1.0 + 3.0 * cutoff) / 4.0 : (1.0 + 6.0 * cutoff) / 4.0;
  return s;
}

VariantSpec MakeAlg5Spec(double epsilon, double sensitivity) {
  CheckCommon(epsilon, sensitivity);
  VariantSpec s;
  s.name = "Alg5-Stoddard";
  s.epsilon = epsilon;
  s.sensitivity = sensitivity;
  s.budget = BudgetSplit{epsilon / 2.0, epsilon / 2.0, 0.0};
  s.rho_scale = sensitivity / s.budget.epsilon1;
  s.nu_scale = 0.0;  // no query noise at all
  s.cutoff = std::nullopt;
  s.actual_privacy = PrivacyClass::kInfiniteDp;
  return s;
}

VariantSpec MakeAlg6Spec(double epsilon, double sensitivity) {
  CheckCommon(epsilon, sensitivity);
  VariantSpec s;
  s.name = "Alg6-Chen";
  s.epsilon = epsilon;
  s.sensitivity = sensitivity;
  s.budget = BudgetSplit{epsilon / 2.0, epsilon / 2.0, 0.0};
  s.rho_scale = sensitivity / s.budget.epsilon1;
  s.nu_scale = sensitivity / s.budget.epsilon2;
  s.cutoff = std::nullopt;
  s.actual_privacy = PrivacyClass::kInfiniteDp;
  return s;
}

VariantSpec MakeStandardSpec(const BudgetSplit& split, double sensitivity,
                             int cutoff, bool monotonic) {
  SVT_CHECK(split.epsilon1 > 0.0 && split.epsilon2 > 0.0);
  SVT_CHECK(split.epsilon3 >= 0.0);
  SVT_CHECK(sensitivity > 0.0);
  SVT_CHECK(cutoff >= 1);
  VariantSpec s;
  s.name = "Alg7-Standard";
  s.epsilon = split.total();
  s.sensitivity = sensitivity;
  s.budget = split;
  const double c = static_cast<double>(cutoff);
  s.rho_scale = sensitivity / split.epsilon1;
  const double k = monotonic ? 1.0 : 2.0;
  s.nu_scale = k * c * sensitivity / split.epsilon2;
  s.cutoff = cutoff;
  if (split.epsilon3 > 0.0) {
    s.numeric_scale = c * sensitivity / split.epsilon3;
  }
  s.actual_privacy = PrivacyClass::kPureDp;
  return s;
}

VariantSpec MakeGpttSpec(double epsilon1, double epsilon2,
                         double sensitivity) {
  SVT_CHECK(epsilon1 > 0.0 && epsilon2 > 0.0);
  SVT_CHECK(sensitivity > 0.0);
  VariantSpec s;
  s.name = "GPTT";
  s.epsilon = epsilon1 + epsilon2;
  s.sensitivity = sensitivity;
  s.budget = BudgetSplit{epsilon1, epsilon2, 0.0};
  s.rho_scale = sensitivity / epsilon1;
  s.nu_scale = sensitivity / epsilon2;
  s.cutoff = std::nullopt;
  s.actual_privacy = PrivacyClass::kInfiniteDp;
  return s;
}

VariantSpec MakeExpNoiseSpec(double epsilon, double sensitivity, int cutoff) {
  CheckCommon(epsilon, sensitivity);
  SVT_CHECK(cutoff >= 1);
  VariantSpec s;
  s.name = "ExpSVT-Liu24";
  s.epsilon = epsilon;
  s.sensitivity = sensitivity;
  s.budget = BudgetSplit{epsilon / 2.0, epsilon / 2.0, 0.0};
  // Alg. 1's split, with the threshold noise swapped for one-sided
  // Exp(Δ/ε₁). The SVT privacy argument bounds the ρ-density ratio only
  // through p(z + Δ)/p(z) >= e^{-ε₁}; the exponential density e^{-x/b}/b
  // gives exactly e^{-Δ/b} = e^{-ε₁} on its support (and shifts of the
  // support only help the ⊥-branch factors, which are monotone in z), so
  // the ε accounting of Alg. 1 carries over while sd(ρ) halves:
  // sd(Exp(b)) = b vs sd(Lap(b)) = √2·b — the accuracy enhancement of
  // arXiv 2407.20068.
  s.rho_kind = NoiseKind::kExponential;
  s.rho_scale = sensitivity / s.budget.epsilon1;
  s.nu_kind = NoiseKind::kLaplace;
  s.nu_scale = 2.0 * cutoff * sensitivity / s.budget.epsilon2;
  s.cutoff = cutoff;
  s.actual_privacy = PrivacyClass::kPureDp;
  return s;
}

VariantSpec MakeRevisitedSpec(double epsilon, double sensitivity,
                              int cutoff) {
  CheckCommon(epsilon, sensitivity);
  SVT_CHECK(cutoff >= 1);
  VariantSpec s;
  s.name = "RevSVT-KMS20";
  s.epsilon = epsilon;
  s.sensitivity = sensitivity;
  s.budget = BudgetSplit{epsilon / 2.0, epsilon / 2.0, 0.0};
  const double c = static_cast<double>(cutoff);
  // The ThresholdMonitor shape of arXiv 2010.00917 on the exponential
  // axis: ρ ~ Exp(cΔ/ε₁) re-drawn (same kind, same scale) after every ⊤,
  // ν ~ Exp(2cΔ/ε₂) one-sided. ε-DP in this pure-ε parameterization by
  // adaptive composition of at most c unit-cutoff AboveThreshold segments,
  // each funded ε/c: per segment the ρ-density ratio is bounded by
  // e^{-Δ/(cΔ/ε₁)} = e^{-ε₁/c} and the ⊤-branch survival ratio by
  // S(x + 2Δ)/S(x) >= e^{-2Δ/(2cΔ/ε₂)} = e^{-ε₂/c} (Exp survival
  // S(x) = e^{-x/b} on x >= 0, 1 below). The paper's tighter ~√c analysis
  // requires (ε, δ) accounting, which is outside this library's pure-ε
  // auditor; this spec is the pure-ε member of that family.
  s.rho_kind = NoiseKind::kExponential;
  s.rho_scale = c * sensitivity / s.budget.epsilon1;
  s.resample_rho_after_positive = true;
  s.rho_resample_scale = s.rho_scale;
  s.nu_kind = NoiseKind::kExponential;
  s.nu_scale = 2.0 * c * sensitivity / s.budget.epsilon2;
  s.cutoff = cutoff;
  s.actual_privacy = PrivacyClass::kPureDp;
  return s;
}

bool CanSplitEpsilon(double epsilon) { return epsilon / 4.0 > 0.0; }

VariantSpec MakeSpec(VariantId id, double epsilon, double sensitivity,
                     int cutoff) {
  SVT_CHECK(CanSplitEpsilon(epsilon))
      << "epsilon " << epsilon
      << " is too small to split between threshold and query noise";
  switch (id) {
    case VariantId::kAlg1:
      return MakeAlg1Spec(epsilon, sensitivity, cutoff);
    case VariantId::kAlg2:
      return MakeAlg2Spec(epsilon, sensitivity, cutoff);
    case VariantId::kAlg3:
      return MakeAlg3Spec(epsilon, sensitivity, cutoff);
    case VariantId::kAlg4:
      return MakeAlg4Spec(epsilon, sensitivity, cutoff);
    case VariantId::kAlg5:
      return MakeAlg5Spec(epsilon, sensitivity);
    case VariantId::kAlg6:
      return MakeAlg6Spec(epsilon, sensitivity);
    case VariantId::kStandard: {
      const BudgetSplit split =
          BudgetAllocation::Halves().Split(epsilon, /*numeric_fraction=*/0.0);
      return MakeStandardSpec(split, sensitivity, cutoff);
    }
    case VariantId::kGptt:
      return MakeGpttSpec(epsilon / 2.0, epsilon / 2.0, sensitivity);
    case VariantId::kExpNoise:
      return MakeExpNoiseSpec(epsilon, sensitivity, cutoff);
    case VariantId::kRevisited:
      return MakeRevisitedSpec(epsilon, sensitivity, cutoff);
  }
  SVT_CHECK(false) << "unknown VariantId";
  return VariantSpec{};
}

}  // namespace svt
