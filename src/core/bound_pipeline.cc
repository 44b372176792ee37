#include "core/bound_pipeline.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/rng.h"
#include "common/vecmath.h"

namespace svt {

namespace {

// Inflation applied to a ν magnitude bound before any cannot-fire test.
// IEEE rounding of the bound chain (log, multiply, add) is monotone, but
// the vecmath log kernel is only *nearly* correctly rounded, so pad the
// bound by ~1e-12 relative — four orders of magnitude above any few-ulp
// kernel error — to make every skip strictly conservative. The bound
// evaluates the same vec::Log the fused scan kernels apply per word, so
// this slack only has to absorb the kernel's own sub-ulp rounding wiggle,
// never a libm-vs-polynomial discrepancy.
constexpr double kBoundSlack = 1.0 + 1e-12;

}  // namespace

BoundPipeline::BoundPipeline(const BoundPrefilter* prefilter, double nu_scale,
                             size_t span_elems, BatchRunStats* stats)
    : prefilter_(prefilter),
      nu_scale_(nu_scale),
      span_elems_(span_elems),
      stats_(stats) {
  SVT_CHECK(span_elems_ >= 1);
  SVT_CHECK(stats_ != nullptr);
}

void BoundPipeline::BeginChunk(const double* answers, const double* thresholds,
                               size_t offset, size_t n) {
  SVT_DCHECK(n >= 1);
  SVT_DCHECK(prefilter_ == nullptr || thresholds == nullptr);
  t_ = thresholds;
  nspans_ = (n + span_elems_ - 1) / span_elems_;
  SVT_DCHECK(nspans_ <= kMaxSpans);
  span_nu_ready_ = false;
  for (size_t j = 0; j < nspans_; ++j) {
    const size_t s = j * span_elems_;
    const size_t m = std::min(span_elems_, n - s);
    span_upper_[j] = prefilter_ != nullptr
                         ? prefilter_->ScoreUpper(offset + s, m)
                         : vec::MaxBlock({answers + s, m});
    if (thresholds != nullptr) {
      span_bar_lower_[j] = vec::MinBlock({thresholds + s, m});
    }
  }
  // Max is exact, so the reduction over span uppers equals the whole-chunk
  // upper — and in full precision it is bit-for-bit the pre-refactor
  // whole-chunk a_max.
  chunk_upper_ = span_upper_[0];
  for (size_t j = 1; j < nspans_; ++j) {
    chunk_upper_ = std::max(chunk_upper_, span_upper_[j]);
  }
  // The level's bound-pass read volume, charged once per chunk (chunk
  // granularity makes the counter dispatch-level independent: every span
  // of every chunk is reduced exactly once here).
  const size_t score_bytes = prefilter_ != nullptr
                                 ? BoundPrefilter::score_bytes_per_element()
                                 : sizeof(double);
  stats_->bound_bytes_touched += static_cast<int64_t>(n * score_bytes);
  if (thresholds != nullptr) {
    stats_->bound_bytes_touched += static_cast<int64_t>(n * sizeof(double));
  }
}

double BoundPipeline::NuBound(std::uint64_t w_min) const {
  return nu_scale_ * (-vec::Log(Rng::ToUnitDoublePositive(w_min))) *
         kBoundSlack;
}

void BoundPipeline::SetNoiseMinima(const std::uint64_t* span_min) {
  // Unsigned word min is association-free, so the reduction over span
  // minima is the chunk minimum — the same word a whole-chunk reduction
  // produces.
  std::uint64_t w_min = span_min[0];
  for (size_t j = 0; j < nspans_; ++j) {
    span_min_[j] = span_min[j];
    w_min = std::min(w_min, span_min[j]);
  }
  chunk_nu_bound_ = NuBound(w_min);
  // Per-span ν bounds are derived lazily on first span query: a chunk the
  // tier-1 bound discharges pays exactly one log, as before the refactor.
  span_nu_ready_ = false;
}

void BoundPipeline::EnsureSpanNuBounds() {
  if (span_nu_ready_) return;
  for (size_t j = 0; j < nspans_; ++j) {
    span_nu_bound_[j] = NuBound(span_min_[j]);
  }
  span_nu_ready_ = true;
}

std::uint64_t BoundPipeline::ChunkSkipWord(double bar) const {
  return vec::MegaSkipWordThreshold(chunk_upper_, bar, nu_scale_);
}

std::uint64_t BoundPipeline::SpanSkipWordPerQuery(size_t j, double rho) const {
  SVT_DCHECK(j < nspans_ && t_ != nullptr);
  // The rounded add matches the kernels' per-element fl(t_i + ρ) shape;
  // MegaSkipWordThreshold's contract only needs a_max >= every a_i and
  // the bar <= every per-element bar, both of which the span plan holds
  // (quantized uppers/lowers included — see the class comment).
  return vec::MegaSkipWordThreshold(span_upper_[j], span_bar_lower_[j] + rho,
                                    nu_scale_);
}

bool BoundPipeline::ChunkCanFire(double bar) const {
  // fl(up + NB) < bar with up >= every a_i and NB >= every ν_i on the side
  // that can fire implies fl(a_i + ν_i) < bar for all i (monotone rounded
  // add) — no element's computed positive test can pass.
  return !(chunk_upper_ + chunk_nu_bound_ < bar);
}

bool BoundPipeline::SpanCanFire(size_t j, double bar) {
  SVT_DCHECK(j < nspans_);
  EnsureSpanNuBounds();
  if (span_upper_[j] + span_nu_bound_[j] < bar) {
    ++stats_->tier2_spans_skipped;
    if (prefilter_ != nullptr) ++stats_->bound_spans_pruned_q;
    return false;
  }
  return true;
}

bool BoundPipeline::SpanCanFirePerQuery(size_t j, double rho) {
  SVT_DCHECK(j < nspans_ && t_ != nullptr);
  EnsureSpanNuBounds();
  // fl(dn + ρ) <= fl(t_i + ρ) for every non-NaN t_i in the span, so a span
  // whose padded upper stays below it cannot fire any per-query test.
  if (span_upper_[j] + span_nu_bound_[j] < span_bar_lower_[j] + rho) {
    ++stats_->tier2_spans_skipped;
    return false;
  }
  return true;
}

}  // namespace svt
