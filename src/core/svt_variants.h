// The six published SVT variants analyzed in §3 (Figure 1) plus GPTT.
//
// Every variant runs on SparseVector (core/svt.h); Alg. 1 is
// SparseVector::Create with default options. The factories below build the
// remaining variants *exactly as published*, including the ones that are
// not differentially private — those exist so that the audit module can
// demonstrate their privacy failures numerically (reproducing Theorems 3,
// 6, 7) and so the benches can reproduce Figure 2.
//
// ┌──────────────────────┬────────┬───────────────┬──────────────┬────────┐
// │ factory              │ ε₁     │ ρ scale       │ ν scale      │ DP?    │
// ├──────────────────────┼────────┼───────────────┼──────────────┼────────┤
// │ DworkRothSvt  (Alg2) │ ε/2    │ cΔ/ε₁ (resmpl)│ 2cΔ/ε₁       │ ε-DP   │
// │ RothNotesSvt  (Alg3) │ ε/2    │ Δ/ε₁          │ cΔ/ε₂  (emit)│ ∞-DP   │
// │ LeeCliftonSvt (Alg4) │ ε/4    │ Δ/ε₁          │ Δ/ε₂         │ scaled │
// │ StoddardSvt   (Alg5) │ ε/2    │ Δ/ε₁          │ 0            │ ∞-DP   │
// │ ChenSvt       (Alg6) │ ε/2    │ Δ/ε₁          │ Δ/ε₂         │ ∞-DP   │
// │ Gptt                 │ ε₁     │ Δ/ε₁          │ Δ/ε₂         │ ∞-DP   │
// └──────────────────────┴────────┴───────────────┴──────────────┴────────┘
//
// Post-paper variants on the exponential-noise axis (ROADMAP item 5(b);
// "E" marks a one-sided Exp(b) role, everything above is Laplace):
//
// ┌──────────────────────┬────────┬────────────────┬──────────────┬───────┐
// │ factory              │ ε₁     │ ρ scale        │ ν scale      │ DP?   │
// ├──────────────────────┼────────┼────────────────┼──────────────┼───────┤
// │ ExpNoiseSvt          │ ε/2    │ Δ/ε₁ (E)       │ 2cΔ/ε₂       │ ε-DP  │
// │ RevisitedSvt         │ ε/2    │ cΔ/ε₁ (E,rsmpl)│ 2cΔ/ε₂ (E)   │ ε-DP  │
// └──────────────────────┴────────┴────────────────┴──────────────┴───────┘

#ifndef SPARSEVEC_CORE_SVT_VARIANTS_H_
#define SPARSEVEC_CORE_SVT_VARIANTS_H_

#include <memory>

#include "common/result.h"
#include "common/rng.h"
#include "core/svt.h"
#include "core/variant_spec.h"

namespace svt {

// Each factory below validates its arguments, builds the variant's
// VariantSpec and returns the SparseVector that runs it, or
// InvalidArgument when the arguments (or the scales they give,
// VariantSpec::Validate()) are out of range.

/// Alg. 2 — SVT as given in Dwork & Roth's 2014 book. ε-DP, but both noise
/// scales carry an extra factor of c relative to Alg. 1, making it the
/// least accurate private variant (§6's SVT-DPBook curves).
struct DworkRothSvt {
  static Result<std::unique_ptr<SparseVector>> Create(double epsilon,
                                                      double sensitivity,
                                                      int cutoff, Rng* rng);
};

/// Alg. 3 — Roth's 2011 lecture notes. NOT differentially private for any
/// finite ε (Theorem 6 / Appendix 10.1): it answers positives with
/// q_i(D)+ν_i, and the emitted value upper-bounds the noisy threshold,
/// leaking ρ.
struct RothNotesSvt {
  static Result<std::unique_ptr<SparseVector>> Create(double epsilon,
                                                      double sensitivity,
                                                      int cutoff, Rng* rng);
};

/// Alg. 4 — Lee & Clifton 2014. Claims ε-DP but satisfies only
/// ((1+6c)/4)ε-DP in general ((1+3c)/4 for monotonic queries): the query
/// noise Lap(Δ/ε₂) does not scale with the cutoff c.
struct LeeCliftonSvt {
  static Result<std::unique_ptr<SparseVector>> Create(
      double epsilon, double sensitivity, int cutoff, Rng* rng,
      bool monotonic = false);
};

/// Alg. 5 — Stoddard et al. 2014. NOT differentially private for any finite
/// ε (Theorem 3): adds no query noise and never stops, so a single
/// ⟨⊥,⊤⟩-vs-⟨⊤,⊥⟩ pair of neighboring datasets already has unbounded
/// probability ratio.
struct StoddardSvt {
  static Result<std::unique_ptr<SparseVector>> Create(double epsilon,
                                                      double sensitivity,
                                                      Rng* rng);
};

/// Alg. 6 — Chen et al. 2015. NOT differentially private for any finite ε
/// (Theorem 7 / Appendix 10.2): per-query noise without the factor of c and
/// no cutoff on positive outcomes.
struct ChenSvt {
  static Result<std::unique_ptr<SparseVector>> Create(double epsilon,
                                                      double sensitivity,
                                                      Rng* rng);
};

/// GPTT — the "generalized private threshold testing" abstraction of
/// [Chen & Machanavajjhala 2015] analyzed in §3.3: threshold noise Lap(Δ/ε₁),
/// query noise Lap(Δ/ε₂), no cutoff. Equals Alg. 6 at ε₁ = ε₂ = ε/2.
/// ∞-DP (although, as §3.3 shows, the non-privacy proof in [2] was itself
/// flawed; see audit/counterexamples.h).
struct Gptt {
  static Result<std::unique_ptr<SparseVector>> Create(double epsilon1,
                                                      double epsilon2,
                                                      double sensitivity,
                                                      Rng* rng);
};

/// Exponential-noise SVT (Liu et al., arXiv 2407.20068): Alg. 1's budget
/// split with the threshold noise swapped for one-sided Exp(Δ/ε₁) — same
/// ε-DP guarantee, half the threshold-noise standard deviation. ε-DP.
struct ExpNoiseSvt {
  static Result<std::unique_ptr<SparseVector>> Create(double epsilon,
                                                      double sensitivity,
                                                      int cutoff, Rng* rng);
};

/// Revisited SVT (Kaplan, Mansour & Stemmer, arXiv 2010.00917), the
/// ThresholdMonitor shape on the exponential axis: ρ ~ Exp(cΔ/ε₁) re-drawn
/// after every ⊤, ν ~ Exp(2cΔ/ε₂), cutoff c. ε-DP in the library's pure-ε
/// parameterization (see MakeRevisitedSpec for the accounting).
struct RevisitedSvt {
  static Result<std::unique_ptr<SparseVector>> Create(double epsilon,
                                                      double sensitivity,
                                                      int cutoff, Rng* rng);
};

/// Builds any variant by id with its paper-default parameterization
/// (MakeSpec). `cutoff` is ignored by the no-cutoff variants (Alg. 5, 6,
/// GPTT). An arbitrary VariantSpec runs through SparseVector's constructor.
Result<std::unique_ptr<SparseVector>> MakeVariantMechanism(
    VariantId id, double epsilon, double sensitivity, int cutoff, Rng* rng);

}  // namespace svt

#endif  // SPARSEVEC_CORE_SVT_VARIANTS_H_
