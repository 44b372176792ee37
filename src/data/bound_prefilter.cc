#include "data/bound_prefilter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/vecmath.h"

namespace svt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint16_t kSentinel = std::numeric_limits<std::uint16_t>::max();
// The highest affine code; kSentinel itself dequantizes to +inf.
constexpr double kTop = kSentinel - 1.0;

// The affine dequant both Build and the span queries evaluate — one
// definition so the build-time fixup verifies exactly the value the bound
// pass will use. Monotone in `code`: scale > 0, and correctly-rounded
// multiply/add are monotone non-decreasing in each operand.
double Dequant(double scale, double offset, std::uint16_t code) {
  return offset + scale * static_cast<double>(code);
}

// The affine map of the finite values: `offset` is their minimum and the
// scale spreads them over codes 0..kTop. The span estimate hi/n - lo/n is
// finite for any finite hi/lo (each quotient is <= DBL_MAX/n) and >=
// (hi-lo)/n. When the map stays finite up to kTop it is kept as is.
// Otherwise — a range reaching toward ±DBL_MAX, where offset + scale * kTop
// overflows — it is replaced by the widest map that cannot overflow: the
// scale that puts scale * 65535 just under DBL_MAX (an exact power-of-two
// division), and the offset clamped so offset + scale * kTop stays at or
// under DBL_MAX. Tightness is best-effort only: the per-element fixup in
// Build keeps every code conservative under either map; the wide one
// merely bounds coarsely.
void AffineMap(std::span<const double> values, double* scale,
               double* offset) {
  double lo = kInf, hi = -kInf;
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (lo > hi) lo = hi = 0.0;  // no finite value
  double s = hi / kTop - lo / kTop;
  if (!(s > 0.0) || !std::isfinite(s)) s = 1.0;
  *scale = s;
  *offset = lo;
  if (std::isfinite(*offset + *scale * kTop)) return;
  constexpr double kMax = std::numeric_limits<double>::max();
  *scale = kMax / 65536.0;
  *offset = std::clamp(*offset, -kMax, kMax - *scale * kTop);
}

}  // namespace

BoundPrefilter BoundPrefilter::Build(std::span<const double> answers) {
  BoundPrefilter pf;
  AffineMap(answers, &pf.scale_, &pf.offset_);
  // Codes 0..kTop are affine, kSentinel is +inf. Invariant established per
  // element: Dequant(code_i) >= v_i for non-NaN v_i (NaN needs no bound —
  // it can never fire — and gets code 0).
  pf.codes_.resize(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    const double v = answers[i];
    if (std::isnan(v)) {
      pf.codes_[i] = 0;
      continue;
    }
    double cand = std::ceil((v - pf.offset_) / pf.scale_);
    if (!(cand >= 0.0)) cand = 0.0;  // also catches NaN from inf - inf
    cand = std::min(cand, kTop);
    auto c = static_cast<std::uint16_t>(cand);
    // Fixup against the actual dequant value: walk up until conservative
    // (the sentinel, dequanting to +inf, always terminates the loop), then
    // tighten a bounded few steps — tightness is optional, soundness not.
    while (c < kSentinel && Dequant(pf.scale_, pf.offset_, c) < v) ++c;
    for (int t = 0;
         t < 4 && c > 0 && Dequant(pf.scale_, pf.offset_, c - 1) >= v; ++t) {
      --c;
    }
    pf.codes_[i] = c;
  }
  return pf;
}

double BoundPrefilter::ScoreUpper(size_t begin, size_t len) const {
  SVT_DCHECK(len >= 1 && begin + len <= codes_.size());
  const std::uint16_t span_max =
      vec::QuantizedSpanMax({codes_.data() + begin, len});
  // A non-finite dequant value (impossible under the finite map Build
  // installs; guarded anyway, since a NaN bound would silently read as
  // "can fire") is replaced by the sentinel's +inf, which is always sound.
  if (span_max == kSentinel) return kInf;
  const double up = Dequant(scale_, offset_, span_max);
  return std::isfinite(up) ? up : kInf;
}

}  // namespace svt
