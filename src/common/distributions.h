// Probability distributions used by the DP mechanisms.
//
// Each distribution offers density / log-density / CDF / quantile and
// sampling via inverse-CDF over Rng's 53-bit uniforms, so every draw is
// platform-reproducible. The Laplace distribution is the workhorse: both the
// SVT threshold noise rho and the per-query noise nu_i are Laplace, and the
// audit module (src/audit) consumes the pdf/cdf to evaluate output
// probabilities in closed form.
//
// Sampling-side transcendentals route through common/vecmath.h: scalar
// Sample() calls use vec::Log (the polynomial reference lane) and the
// *Block paths use the dispatched SIMD kernels, which are bit-identical to
// it by construction. That keeps the block/scalar draw-for-draw guarantees
// below independent of the host's dispatch level. Density/CDF/quantile
// evaluation (the audit-side math) deliberately stays on libm: it feeds
// closed-form probability computations, not the draw stream, so it has no
// bitwise contract to honor.

#ifndef SPARSEVEC_COMMON_DISTRIBUTIONS_H_
#define SPARSEVEC_COMMON_DISTRIBUTIONS_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace svt {

/// Laplace(mu, b): density (1/2b) exp(-|x-mu|/b).
///
/// In DP terms, `Lap(b)` with b = sensitivity/epsilon satisfies
/// epsilon-indistinguishability under shifts of up to `sensitivity`.
class Laplace {
 public:
  /// Creates a Laplace distribution with location `mu` and scale `b > 0`.
  Laplace(double mu, double b);

  /// Zero-centered convenience, matching the paper's Lap(b) notation.
  static Laplace Centered(double b) { return Laplace(0.0, b); }

  double mu() const { return mu_; }
  double scale() const { return b_; }

  /// Standard deviation: sqrt(2) * b. Used by SVT-ReTr's "kD" threshold
  /// boosts ("1D means adding one standard deviation of the added noises").
  double stddev() const;

  /// Probability density at x.
  double Pdf(double x) const;

  /// Natural log of the density at x.
  double LogPdf(double x) const;

  /// Cumulative distribution function P(X <= x).
  double Cdf(double x) const;

  /// log P(X <= x), stable in the deep lower tail.
  double LogCdf(double x) const;

  /// P(X > x) = 1 - Cdf(x), stable in the deep upper tail.
  double Sf(double x) const;

  /// log P(X > x).
  double LogSf(double x) const;

  /// Inverse CDF; p must lie in (0, 1).
  double Quantile(double p) const;

  /// Draws a sample by inverse-CDF.
  double Sample(Rng& rng) const;

  /// Fills `out` with out.size() i.i.d. draws. Consumes uniforms from `rng`
  /// in exactly the order Sample() would (two 64-bit draws per variate), so
  /// for a given rng state the k-th element is bit-for-bit the k-th scalar
  /// Sample() result — the batch execution engine relies on this. The win
  /// over a Sample() loop is block RNG generation plus a tight transform
  /// whose independent log() calls overlap in the pipeline.
  void SampleBlock(Rng& rng, std::span<double> out) const;

  /// The pure transform behind SampleBlock: out[i] is computed from
  /// words[2i] (magnitude uniform) and words[2i+1] (sign uniform) with the
  /// exact expressions of Sample(). words.size() must be 2 * out.size().
  /// Exposed so the batch engine can pre-fetch raw words, decide per chunk
  /// whether the transform is needed at all, and stay draw-for-draw aligned
  /// with the streaming path either way.
  void TransformBlock(std::span<const uint64_t> words,
                      std::span<double> out) const;

 private:
  double mu_;
  double b_;
};

/// Samples Lap(scale) centered at zero — the paper's `Lap(scale)` notation.
double SampleLaplace(Rng& rng, double scale);

/// Bulk version of SampleLaplace; same draw-for-draw equivalence guarantee
/// as Laplace::SampleBlock.
void SampleLaplaceBlock(Rng& rng, double scale, std::span<double> out);

/// Exponential(rate): density rate * exp(-rate x) on x >= 0.
///
/// In DP terms the scale parameterization b = 1/rate mirrors Lap(b): an
/// Exp(b) threshold perturbation with b = sensitivity/epsilon satisfies the
/// same epsilon-indistinguishability bound the SVT proof needs from the ρ
/// density (the proof only uses p(z + Δ) >= e^-ε p(z), which the one-sided
/// density e^{-x/b}/b satisfies for b = Δ/ε) at half the standard
/// deviation — the accuracy win of the exponential-noise SVT variants.
class Exponential {
 public:
  explicit Exponential(double rate);

  /// Scale parameterization: Exp(b) with density (1/b) e^{-x/b} on x >= 0.
  /// The noise-kind axis of VariantSpec is specified in scales, and the
  /// draw contract below multiplies by the scale — so engine code must use
  /// this factory (1/(1/b) is not always b in IEEE arithmetic).
  static Exponential FromScale(double scale);

  double rate() const { return rate_; }
  double scale() const { return scale_; }
  double Pdf(double x) const;
  /// Natural log of the density at x (-inf for x < 0). Audit-side libm.
  double LogPdf(double x) const;
  double Cdf(double x) const;
  /// log P(X <= x), stable in the deep lower tail.
  double LogCdf(double x) const;
  /// P(X > x) = e^{-x/b} for x >= 0, 1 below the support.
  double Sf(double x) const;
  /// log P(X > x), exact (= -x/b) on the support.
  double LogSf(double x) const;
  double Quantile(double p) const;

  /// Draws a sample as scale * -log(u), with u on Rng's (0, 1] 53-bit
  /// lattice via vec::NegLogUnitPositive — one 64-bit draw per variate, and
  /// the product evaluated as b * e so scalar and block draws are
  /// draw-for-draw bit-identical (the guarantee SampleBlock documents).
  double Sample(Rng& rng) const;

  /// Fills `out` with out.size() i.i.d. draws, consuming one 64-bit draw
  /// per variate in exactly Sample()'s order: for a given rng state the
  /// k-th element is bit-for-bit the k-th scalar Sample() result at every
  /// dispatch level.
  void SampleBlock(Rng& rng, std::span<double> out) const;

  /// The pure transform behind SampleBlock: out[i] is computed from
  /// words[i] with the exact expressions of Sample(). words.size() must
  /// equal out.size(). Exposed for the batch engine, like
  /// Laplace::TransformBlock.
  void TransformBlock(std::span<const uint64_t> words,
                      std::span<double> out) const;

 private:
  Exponential(double rate, double scale) : rate_(rate), scale_(scale) {}

  double rate_;
  double scale_;
};

/// Samples Exp(scale) — one-sided, scale parameterization, zero draws of
/// sign words. Mirrors SampleLaplace.
double SampleExponential(Rng& rng, double scale);

/// Bulk version of SampleExponential; same draw-for-draw equivalence
/// guarantee as Exponential::SampleBlock.
void SampleExponentialBlock(Rng& rng, double scale, std::span<double> out);

/// Standard Gumbel(0, 1): density exp(-(x + exp(-x))).
///
/// Used for the Gumbel-max implementation of the Exponential Mechanism:
/// argmax_i (phi_i + G_i) with i.i.d. standard Gumbel G_i samples exactly
/// from the softmax over phi, and taking the top-c of the perturbed values
/// samples c rounds of EM without replacement (Gumbel-top-k).
class Gumbel {
 public:
  double Pdf(double x) const;
  double Cdf(double x) const;
  double Quantile(double p) const;
  double Sample(Rng& rng) const;
};

/// Draws one standard Gumbel variate: -log(-log(U)).
double SampleGumbel(Rng& rng);

/// Fills `out` with standard Gumbel variates, one 64-bit draw each,
/// bit-for-bit matching a SampleGumbel() loop (used by the bulk
/// Gumbel-top-k path of the Exponential Mechanism).
void SampleGumbelBlock(Rng& rng, std::span<double> out);

/// O(1) sampling from an arbitrary discrete distribution (Walker/Vose alias
/// method). Used by the synthetic transaction generator, where item draws
/// follow a fitted power-law popularity profile over up to millions of
/// items.
class AliasSampler {
 public:
  /// Builds the alias table from non-negative weights (sum > 0). O(n).
  explicit AliasSampler(std::vector<double> weights);

  /// Draws an index in [0, size()) with probability weight_i / sum.
  uint32_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

  /// Normalized probability of index i (for tests).
  double Probability(uint32_t i) const;

 private:
  std::vector<double> prob_;      // acceptance probability per column
  std::vector<uint32_t> alias_;   // alias target per column
  std::vector<double> norm_;      // normalized input weights
};

}  // namespace svt

#endif  // SPARSEVEC_COMMON_DISTRIBUTIONS_H_
