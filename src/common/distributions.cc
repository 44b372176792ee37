#include "common/distributions.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/vecmath.h"

namespace svt {

Laplace::Laplace(double mu, double b) : mu_(mu), b_(b) {
  SVT_CHECK(b > 0.0) << "Laplace scale must be positive, got " << b;
  SVT_CHECK(std::isfinite(mu));
}

double Laplace::stddev() const { return std::sqrt(2.0) * b_; }

double Laplace::Pdf(double x) const {
  return 0.5 / b_ * std::exp(-std::abs(x - mu_) / b_);
}

double Laplace::LogPdf(double x) const {
  return -std::log(2.0 * b_) - std::abs(x - mu_) / b_;
}

double Laplace::Cdf(double x) const {
  const double z = (x - mu_) / b_;
  if (z < 0.0) return 0.5 * std::exp(z);
  return 1.0 - 0.5 * std::exp(-z);
}

double Laplace::LogCdf(double x) const {
  const double z = (x - mu_) / b_;
  if (z < 0.0) return std::log(0.5) + z;
  return std::log1p(-0.5 * std::exp(-z));
}

double Laplace::Sf(double x) const {
  const double z = (x - mu_) / b_;
  if (z > 0.0) return 0.5 * std::exp(-z);
  return 1.0 - 0.5 * std::exp(z);
}

double Laplace::LogSf(double x) const {
  const double z = (x - mu_) / b_;
  if (z > 0.0) return std::log(0.5) - z;
  return std::log1p(-0.5 * std::exp(z));
}

double Laplace::Quantile(double p) const {
  SVT_CHECK(p > 0.0 && p < 1.0) << "Laplace quantile requires p in (0,1)";
  if (p < 0.5) return mu_ + b_ * std::log(2.0 * p);
  return mu_ - b_ * std::log(2.0 * (1.0 - p));
}

double Laplace::Sample(Rng& rng) const {
  // Exact two-draw scheme: Laplace = signed Exponential. Avoids the
  // open/closed interval edge cases of the single-uniform inverse CDF.
  // The log is vecmath's polynomial kernel — the same kernel (scalar or
  // SIMD lane, bit-identical) that TransformBlock applies in bulk.
  const double e = -vec::Log(rng.NextDoublePositive());
  const bool negative = rng.NextBernoulli(0.5);
  return negative ? mu_ - b_ * e : mu_ + b_ * e;
}

void Laplace::TransformBlock(std::span<const uint64_t> words,
                             std::span<double> out) const {
  SVT_CHECK(words.size() == 2 * out.size());
  // One fused dispatched pass: even word -> (0,1] uniform -> -log ->
  // scale -> sign select, the exact op-for-op composition Sample()
  // evaluates per draw (see the kernel contract in common/vecmath.h for
  // why the branch-free sign select is IEEE-identical to Sample()'s
  // ternary). Bitwise-equal to a Sample() loop at every dispatch level.
  vec::LaplaceTransformBlock(words, mu_, b_, out);
}

void Laplace::SampleBlock(Rng& rng, std::span<double> out) const {
  constexpr size_t kBlock = 256;
  uint64_t words[2 * kBlock];
  size_t done = 0;
  while (done < out.size()) {
    const size_t n = std::min(kBlock, out.size() - done);
    rng.FillUint64({words, 2 * n});
    TransformBlock({words, 2 * n}, out.subspan(done, n));
    done += n;
  }
}

double SampleLaplace(Rng& rng, double scale) {
  return Laplace::Centered(scale).Sample(rng);
}

void SampleLaplaceBlock(Rng& rng, double scale, std::span<double> out) {
  Laplace::Centered(scale).SampleBlock(rng, out);
}

Exponential::Exponential(double rate) : rate_(rate), scale_(1.0 / rate) {
  SVT_CHECK(rate > 0.0) << "Exponential rate must be positive, got " << rate;
}

Exponential Exponential::FromScale(double scale) {
  SVT_CHECK(scale > 0.0) << "Exponential scale must be positive, got "
                         << scale;
  return Exponential(1.0 / scale, scale);
}

double Exponential::Pdf(double x) const {
  return x < 0.0 ? 0.0 : rate_ * std::exp(-rate_ * x);
}

double Exponential::LogPdf(double x) const {
  if (x < 0.0) return -std::numeric_limits<double>::infinity();
  return std::log(rate_) - rate_ * x;
}

double Exponential::Cdf(double x) const {
  return x < 0.0 ? 0.0 : -std::expm1(-rate_ * x);
}

double Exponential::LogCdf(double x) const {
  if (x < 0.0) return -std::numeric_limits<double>::infinity();
  // log(1 - e^-z), stable for both tails of z = x/b.
  const double z = rate_ * x;
  if (z > 1.0) return std::log1p(-std::exp(-z));
  return std::log(-std::expm1(-z));
}

double Exponential::Sf(double x) const {
  return x < 0.0 ? 1.0 : std::exp(-rate_ * x);
}

double Exponential::LogSf(double x) const {
  return x < 0.0 ? 0.0 : -rate_ * x;
}

double Exponential::Quantile(double p) const {
  SVT_CHECK(p >= 0.0 && p < 1.0);
  return -std::log1p(-p) / rate_;
}

double Exponential::Sample(Rng& rng) const {
  // One draw per variate, evaluated as b * e with e = -log(u) through the
  // shared vecmath lattice map — bit for bit the product
  // ExponentialTransformBlock computes, so a Sample() loop is bit-for-bit
  // SampleBlock() for the same rng state (dividing by rate_ would not be:
  // e/r and (1/r)*e differ in the last ulp for general r).
  return scale_ * vec::NegLogUnitPositive(rng.NextUint64());
}

void Exponential::TransformBlock(std::span<const uint64_t> words,
                                 std::span<double> out) const {
  SVT_CHECK(words.size() == out.size());
  vec::ExponentialTransformBlock(words, scale_, out);
}

void Exponential::SampleBlock(Rng& rng, std::span<double> out) const {
  constexpr size_t kBlock = 512;
  uint64_t words[kBlock];
  size_t done = 0;
  while (done < out.size()) {
    const size_t n = std::min(kBlock, out.size() - done);
    rng.FillUint64({words, n});
    TransformBlock({words, n}, out.subspan(done, n));
    done += n;
  }
}

double SampleExponential(Rng& rng, double scale) {
  return Exponential::FromScale(scale).Sample(rng);
}

void SampleExponentialBlock(Rng& rng, double scale, std::span<double> out) {
  Exponential::FromScale(scale).SampleBlock(rng, out);
}

double Gumbel::Pdf(double x) const {
  return std::exp(-(x + std::exp(-x)));
}

double Gumbel::Cdf(double x) const { return std::exp(-std::exp(-x)); }

double Gumbel::Quantile(double p) const {
  SVT_CHECK(p > 0.0 && p < 1.0);
  return -std::log(-std::log(p));
}

double Gumbel::Sample(Rng& rng) const { return SampleGumbel(rng); }

double SampleGumbel(Rng& rng) {
  return -vec::Log(-vec::Log(rng.NextDoublePositive()));
}

void SampleGumbelBlock(Rng& rng, std::span<double> out) {
  // Two fused vecmath passes: t = -log(u) from the raw words (the
  // Exponential(1) transform: (-1)·log(u) is exactly -log(u)), then
  // -log(t) in place — each step the exact op sequence of SampleGumbel(),
  // so the block is bit-for-bit a scalar loop at any dispatch level. The
  // only special inner value is t == -0.0 (u == 1, probability 2^-53),
  // which LogBlock's special handling maps to -inf, negated to +inf —
  // exactly what the scalar composition produces.
  constexpr size_t kBlock = 512;
  uint64_t words[kBlock];
  size_t done = 0;
  while (done < out.size()) {
    const size_t n = std::min(kBlock, out.size() - done);
    rng.FillUint64({words, n});
    std::span<double> chunk = out.subspan(done, n);
    vec::ExponentialTransformBlock({words, n}, 1.0, chunk);
    vec::LogBlock(chunk, chunk);
    for (double& g : chunk) g = -g;
    done += n;
  }
}

AliasSampler::AliasSampler(std::vector<double> weights) {
  const size_t n = weights.size();
  SVT_CHECK(n >= 1) << "AliasSampler needs at least one weight";
  double total = 0.0;
  for (double w : weights) {
    SVT_CHECK(w >= 0.0) << "AliasSampler weights must be non-negative";
    total += w;
  }
  SVT_CHECK(total > 0.0) << "AliasSampler weights must not all be zero";

  norm_.resize(n);
  for (size_t i = 0; i < n; ++i) norm_[i] = weights[i] / total;

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  // Scaled probabilities; split into under- and over-full columns.
  std::vector<double> scaled(n);
  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = norm_[i] * static_cast<double>(n);
    if (scaled[i] < 1.0) {
      small.push_back(static_cast<uint32_t>(i));
    } else {
      large.push_back(static_cast<uint32_t>(i));
    }
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are 1 up to rounding.
  for (uint32_t i : large) prob_[i] = 1.0;
  for (uint32_t i : small) prob_[i] = 1.0;
}

uint32_t AliasSampler::Sample(Rng& rng) const {
  const uint32_t column =
      static_cast<uint32_t>(rng.NextBounded(prob_.size()));
  return rng.NextDouble() < prob_[column] ? column : alias_[column];
}

double AliasSampler::Probability(uint32_t i) const {
  SVT_CHECK(i < norm_.size());
  return norm_[i];
}

}  // namespace svt
