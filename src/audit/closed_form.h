// Closed-form (numerically integrated) output probabilities for SVT
// variants.
//
// This is the analytic half of the privacy auditor. It evaluates the
// paper's Eq. (5),
//
//   Pr[A(D) = a] = ∫ p_ρ(z) · Π_{i∈I⊥} Pr[q_i+ν_i < T_i+z]
//                           · Π_{i∈I⊤} Pr[q_i+ν_i ≥ T_i+z] dz,
//
// directly from a VariantSpec, handling all the structural quirks the
// variants introduce:
//
//   * noise kinds     — ρ and ν each follow their role's NoiseKind
//                       (Laplace or one-sided exponential, per the spec's
//                       rho_kind/nu_kind); exponential roles contribute
//                       hard support bounds on top of their smooth
//                       factors (p_ρ(z) = 0 for z < 0; a ⊥ factor under
//                       exponential ν is identically 0 for z ≤ q_i − T_i);
//   * cutoff c        — patterns with more output after the c-th positive
//                       are impossible (probability 0);
//   * ν = 0 (Alg. 5)  — the CDF factors degenerate to indicators, which
//                       become hard limits on the integration range;
//   * ρ resampling    — Alg. 2 draws a fresh ρ after each positive, so the
//     (Alg. 2)          pattern factorizes into independent per-segment
//                       integrals;
//   * numeric outputs — Alg. 3 emits q_i+ν_i, contributing a density
//                       factor pdf_ν(a_i−q_i) AND the constraint
//                       z ≤ a_i−T_i (the leak exploited by Theorem 6);
//                       Alg. 7 with ε₃>0 emits q_i+Lap(cΔ/ε₃), a fresh
//                       z-independent density factor.
//
// For patterns containing numeric outputs the returned value is a log
// *density* (jointly over the numeric coordinates); ratios between
// neighboring datasets — which is all DP cares about — remain meaningful.

#ifndef SPARSEVEC_AUDIT_CLOSED_FORM_H_
#define SPARSEVEC_AUDIT_CLOSED_FORM_H_

#include <span>
#include <string>
#include <vector>

#include "audit/integrator.h"
#include "core/variant_spec.h"

namespace svt {

/// One expected output position.
struct OutputEvent {
  enum class Kind { kBelow, kAbove, kAboveValue };
  Kind kind = Kind::kBelow;
  /// Expected numeric answer, meaningful for kAboveValue only.
  double value = 0.0;

  static OutputEvent Below() { return {Kind::kBelow, 0.0}; }
  static OutputEvent Above() { return {Kind::kAbove, 0.0}; }
  static OutputEvent AboveValue(double v) { return {Kind::kAboveValue, v}; }

  bool is_positive() const { return kind != Kind::kBelow; }
};

/// Builds an indicator-only pattern from a string of '_' (⊥) and 'T' (⊤),
/// e.g. "__T_T".
std::vector<OutputEvent> PatternFromString(const std::string& pattern);

/// log Pr[first |pattern| outputs are exactly `pattern`] when the mechanism
/// described by `spec` processes `query_answers` (aligned with
/// `thresholds`) in order on a dataset where those are the true answers.
///
/// Returns -infinity for impossible patterns (e.g. output continuing after
/// the cutoff aborted, or a ⊤ under ν=0 with q strictly below every
/// feasible noisy threshold). Aborts unless spec.Validate() passes, as the
/// SparseVector constructor does.
double LogOutputProbability(const VariantSpec& spec,
                            std::span<const double> query_answers,
                            std::span<const double> thresholds,
                            std::span<const OutputEvent> pattern,
                            const IntegrationOptions& options = {});

/// Single-threshold convenience.
double LogOutputProbability(const VariantSpec& spec,
                            std::span<const double> query_answers,
                            double threshold,
                            std::span<const OutputEvent> pattern,
                            const IntegrationOptions& options = {});

/// Linear-space convenience (may underflow to 0 for long patterns; prefer
/// the log form).
double OutputProbability(const VariantSpec& spec,
                         std::span<const double> query_answers,
                         double threshold,
                         std::span<const OutputEvent> pattern,
                         const IntegrationOptions& options = {});

}  // namespace svt

#endif  // SPARSEVEC_AUDIT_CLOSED_FORM_H_
