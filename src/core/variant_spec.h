// VariantSpec: declarative description of an SVT variant's noise structure.
//
// Every SVT-family mechanism in the library exposes a VariantSpec describing
// exactly how it perturbs the threshold and queries, whether it stops after
// c positives, whether it refreshes the threshold noise, and what it emits
// for positives. The audit module (src/audit) evaluates output
// probabilities *from the spec alone*, independently of the sampling code,
// so closed-form analysis and simulation cross-validate each other.
//
// The spec fields line up with the four-step decomposition of §3 of the
// paper and with the rows of its Figure 2.

#ifndef SPARSEVEC_CORE_VARIANT_SPEC_H_
#define SPARSEVEC_CORE_VARIANT_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "common/status.h"
#include "core/budget.h"

namespace svt {

/// The privacy property a variant actually satisfies (Figure 2, last row).
enum class PrivacyClass {
  /// ε-DP with the stated ε (Alg. 1, 2, 7).
  kPureDp,
  /// ε'-DP only for ε' = factor·ε with factor > 1 (Alg. 4: (1+6c)/4).
  kScaledDp,
  /// Not ε'-DP for any finite ε' — "∞-DP" in the paper (Alg. 3, 5, 6, GPTT).
  kInfiniteDp,
};

std::string_view PrivacyClassToString(PrivacyClass c);

/// Which of the six published algorithms (plus our standard Alg. 7 and the
/// GPTT abstraction) a spec corresponds to.
enum class VariantId {
  kAlg1,      ///< paper's proposed instantiation (ε-DP)
  kAlg2,      ///< Dwork & Roth 2014 book (ε-DP)
  kAlg3,      ///< Roth's 2011 lecture notes (∞-DP)
  kAlg4,      ///< Lee & Clifton 2014 ((1+6c)/4·ε-DP)
  kAlg5,      ///< Stoddard et al. 2014 (∞-DP)
  kAlg6,      ///< Chen et al. 2015 (∞-DP)
  kStandard,  ///< Alg. 7, the paper's generalized standard SVT (ε-DP)
  kGptt,      ///< generalized private threshold testing ([2], §3.3)
  kExpNoise,  ///< exponential-noise SVT (Liu et al., arXiv 2407.20068)
  kRevisited, ///< revisited SVT monitor (Kaplan et al., arXiv 2010.00917)
};

std::string_view VariantIdToString(VariantId id);

/// Which family a noise role draws from. This is the pluggable
/// distribution axis of the engine: the spec names a kind per role, the
/// streaming/batch engines pick the matching vecmath kernels, and the
/// auditor picks the matching densities/CDFs — no layer hard-codes
/// Laplace.
enum class NoiseKind {
  /// Two-sided Lap(b), density (1/2b) e^{-|x|/b}; two 64-bit draws per
  /// variate (magnitude word + sign word).
  kLaplace,
  /// One-sided Exp(b), density (1/b) e^{-x/b} on [0, +inf); one 64-bit
  /// draw per variate.
  kExponential,
};

std::string_view NoiseKindToString(NoiseKind k);

/// Raw 64-bit words one variate of `kind` consumes (draw-order contract
/// steps 1 and 2, core/svt.h): 2 for Laplace (magnitude word, then sign
/// word), 1 for exponential (one-sided, no sign word).
std::size_t WordsPerVariate(NoiseKind kind);

/// One variate of `kind` at `scale`, drawn from `rng` as the streaming
/// Process() loop draws every ρ, ν and resample (contract steps 1-3).
double SampleNoise(Rng& rng, NoiseKind kind, double scale);

/// Block form of SampleNoise: out[i] is the variate SampleNoise draws from
/// words [i * WordsPerVariate(kind), ...), through the distribution's
/// TransformBlock, which equals its Sample() loop bit for bit (contract
/// step 4).
void TransformNoise(NoiseKind kind, double scale,
                    std::span<const std::uint64_t> words,
                    std::span<double> out);

/// Noise structure of one SVT variant. Each scale is interpreted under its
/// role's NoiseKind: b in Lap(b) for kLaplace, b in Exp(b) (the mean) for
/// kExponential. The numeric-answer noise (numeric_scale) is always
/// Laplace — a one-sided numeric answer would bias the emitted values.
struct VariantSpec {
  std::string name;

  /// Total privacy budget the variant claims to satisfy.
  double epsilon = 1.0;
  /// Query sensitivity Δ.
  double sensitivity = 1.0;

  /// Distribution family of the threshold noise ρ (and of its resamples).
  NoiseKind rho_kind = NoiseKind::kLaplace;
  /// Distribution family of the per-query noise ν_i.
  NoiseKind nu_kind = NoiseKind::kLaplace;

  /// Scale of the threshold noise ρ.
  double rho_scale = 0.0;
  /// Scale of the per-query noise ν_i; 0 means no query noise (Alg. 5).
  double nu_scale = 0.0;

  /// Maximum number of positive outcomes before aborting; nullopt means the
  /// variant answers unbounded ⊤'s (Alg. 5, 6, GPTT) — one of the two
  /// "not private" rows in Figure 2.
  std::optional<int> cutoff;

  /// Alg. 2: re-draw ρ with scale `rho_resample_scale` after each ⊤.
  bool resample_rho_after_positive = false;
  double rho_resample_scale = 0.0;

  /// Alg. 3: emit q_i(D)+ν_i (the comparison noise!) instead of ⊤ — the
  /// other "not private" row in Figure 2.
  bool output_query_value_on_positive = false;

  /// Alg. 7 with ε₃ > 0: emit q_i(D)+Lap(numeric_scale) (fresh noise; this
  /// one is private).
  double numeric_scale = 0.0;

  /// Budget split behind the scales above (informational).
  BudgetSplit budget;

  /// What the variant actually satisfies, per the paper's analysis.
  PrivacyClass actual_privacy = PrivacyClass::kPureDp;
  /// For kScaledDp: the multiplier on ε (e.g. (1+6c)/4 for Alg. 4, or
  /// (1+3c)/4 for monotonic queries).
  double privacy_scale_factor = 1.0;

  /// True when this mechanism emits numeric values for positives.
  bool emits_numeric() const {
    return output_query_value_on_positive || numeric_scale > 0.0;
  }

  /// Checks that the spec can run: rho_scale is positive, the ν, resample
  /// and numeric scales are non-negative (the resample scale positive when
  /// resampling is on), every scale is finite with a finite largest variate
  /// (so ν and ρ are always finite, core/svt.h), and a set cutoff is >= 1.
  /// Every SparseVector factory returns its failure as InvalidArgument.
  Status Validate() const;
};

/// Factory functions reproducing Figure 1's parameterizations exactly.
/// All require epsilon > 0, sensitivity > 0, and (where applicable)
/// cutoff >= 1.

/// Alg. 1: ε₁ = ε/2, ρ ~ Lap(Δ/ε₁); ν ~ Lap(2cΔ/ε₂); cutoff c. ε-DP.
VariantSpec MakeAlg1Spec(double epsilon, double sensitivity, int cutoff);

/// Alg. 2 (Dwork & Roth book): ρ ~ Lap(cΔ/ε₁), resampled with scale cΔ/ε₂
/// after each ⊤; ν ~ Lap(2cΔ/ε₁); cutoff c. ε-DP, but the extra factor of
/// c on the threshold noise costs accuracy (§6's SVT-DPBook).
VariantSpec MakeAlg2Spec(double epsilon, double sensitivity, int cutoff);

/// Alg. 3 (Roth's notes): ν ~ Lap(cΔ/ε₂); positives emit q+ν. ∞-DP.
VariantSpec MakeAlg3Spec(double epsilon, double sensitivity, int cutoff);

/// Alg. 4 (Lee & Clifton): ε₁ = ε/4; ν ~ Lap(Δ/ε₂). Only ((1+6c)/4)ε-DP
/// (or ((1+3c)/4)ε for monotonic queries).
VariantSpec MakeAlg4Spec(double epsilon, double sensitivity, int cutoff,
                         bool monotonic = false);

/// Alg. 5 (Stoddard et al.): ν = 0, no cutoff. ∞-DP.
VariantSpec MakeAlg5Spec(double epsilon, double sensitivity);

/// Alg. 6 (Chen et al.): ν ~ Lap(Δ/ε₂), no cutoff. ∞-DP.
VariantSpec MakeAlg6Spec(double epsilon, double sensitivity);

/// Alg. 7, the paper's standard SVT: explicit (ε₁, ε₂, ε₃); ρ ~ Lap(Δ/ε₁);
/// ν ~ Lap(2cΔ/ε₂) (or Lap(cΔ/ε₂) when monotonic, Thm. 5); positives emit
/// ⊤, or q+Lap(cΔ/ε₃) when ε₃ > 0. (ε₁+ε₂+ε₃)-DP.
VariantSpec MakeStandardSpec(const BudgetSplit& split, double sensitivity,
                             int cutoff, bool monotonic = false);

/// GPTT ([2]): ρ ~ Lap(Δ/ε₁), ν ~ Lap(Δ/ε₂), no cutoff. Equals Alg. 6 when
/// ε₁ = ε₂ = ε/2. ∞-DP.
VariantSpec MakeGpttSpec(double epsilon1, double epsilon2,
                         double sensitivity);

/// Exponential-noise SVT (Liu et al., arXiv 2407.20068): ε₁ = ε₂ = ε/2,
/// ρ ~ Exp(Δ/ε₁) one-sided, ν ~ Lap(2cΔ/ε₂); cutoff c. ε-DP — the SVT
/// privacy proof constrains the ρ density only through
/// p(z + Δ) >= e^{-ε₁} p(z), which Exp(Δ/ε₁) satisfies on its support
/// exactly like Lap(Δ/ε₁), at half the standard deviation (the accuracy
/// enhancement).
VariantSpec MakeExpNoiseSpec(double epsilon, double sensitivity, int cutoff);

/// Revisited SVT (Kaplan, Mansour & Stemmer, arXiv 2010.00917) — the
/// ThresholdMonitor shape on the exponential axis: cutoff c, ρ ~ Exp(cΔ/ε₁)
/// re-drawn (same kind and scale) after every ⊤, ν ~ Exp(2cΔ/ε₂) one-sided,
/// ε₁ = ε₂ = ε/2. ε-DP in this pure-ε parameterization via adaptive
/// composition of at most c unit-cutoff AboveThreshold segments, each
/// funded ε/c; the paper's tighter ~√c analysis needs (ε, δ) accounting,
/// outside this library's pure-ε auditor.
VariantSpec MakeRevisitedSpec(double epsilon, double sensitivity, int cutoff);

/// True when ε is large enough for every variant to split: ε > 0 and no
/// share of it rounds to 0 (Alg. 4's ε/4 is the smallest share).
bool CanSplitEpsilon(double epsilon);

/// Spec for a variant id with the default paper parameterization. Aborts
/// unless CanSplitEpsilon(epsilon).
VariantSpec MakeSpec(VariantId id, double epsilon, double sensitivity,
                     int cutoff);

}  // namespace svt

#endif  // SPARSEVEC_CORE_VARIANT_SPEC_H_
