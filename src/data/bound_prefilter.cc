#include "data/bound_prefilter.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/check.h"
#include "common/vecmath.h"

namespace svt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool InitialPrefilterEnabled() {
  const char* env = std::getenv("SVT_BOUND_PREFILTER");
  if (env == nullptr) return true;
  const std::string_view v(env);
  if (v == "on") return true;
  if (v == "off") return false;
  SVT_CHECK(false) << "SVT_BOUND_PREFILTER must be 'on' or 'off', got '"
                   << env << "'";
  return true;
}

std::atomic<bool>& PrefilterEnabledVar() {
  static std::atomic<bool> enabled{InitialPrefilterEnabled()};
  return enabled;
}

// The affine dequant both Build and the span queries evaluate — one
// definition so the build-time fixup verifies exactly the value the bound
// pass will use. Monotone in `code`: scale > 0, and correctly-rounded
// multiply/add are monotone non-decreasing in each operand.
template <typename Code>
double Dequant(double scale, double offset, Code code) {
  return offset + scale * static_cast<double>(code);
}

// Shared range scan: finite min/max and whether every finite value is an
// integer small enough to embed exactly in a 254-wide 8-bit code range.
struct ValueRange {
  double lo = kInf, hi = -kInf;
  bool any_finite = false;
  bool u8_exact = true;
};

ValueRange ScanRange(std::span<const double> values) {
  ValueRange r;
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    r.any_finite = true;
    r.lo = std::min(r.lo, v);
    r.hi = std::max(r.hi, v);
    if (v != std::floor(v) || std::abs(v) > 9.007199254740992e15) {
      r.u8_exact = false;
    }
  }
  if (!r.any_finite) {
    r.lo = r.hi = 0.0;
    r.u8_exact = false;
  } else if (r.u8_exact) {
    r.u8_exact = r.hi - r.lo <= 254.0;
  }
  return r;
}

// Overflow-safe span estimate for the 16-bit scale: hi/n - lo/n is finite
// for any finite hi/lo (each quotient is <= DBL_MAX/n) and >= (hi-lo)/n.
// Tightness is best-effort only — the per-element fixup below restores
// exactness of the invariant whatever scale/offset come out as.
double SafeScale(double lo, double hi, double normal_span) {
  double s = hi / normal_span - lo / normal_span;
  if (!(s > 0.0) || !std::isfinite(s)) s = 1.0;
  return s;
}

// The 16-bit affine map of one side: `offset` is the ideal anchor (the
// score side's lo, the bar side's lo - scale) and `top` the highest code
// that dequantizes. When the map stays finite from code 0 to `top` it is
// kept as is. Otherwise — a range reaching toward ±DBL_MAX, where lo -
// scale or offset + scale * top overflows and -inf + inf would dequant to
// NaN — it is replaced by the widest map that cannot overflow: the scale
// that puts scale * 65535 just under DBL_MAX (an exact power-of-two
// division), and the ideal anchor clamped so offset + scale * top stays
// at or under DBL_MAX. The build-time fixups keep every code conservative
// under either map; the wide one merely bounds coarsely.
void FiniteAffineMap(double* scale, double* offset, double top) {
  if (std::isfinite(*offset) && std::isfinite(*offset + *scale * top)) return;
  constexpr double kMax = std::numeric_limits<double>::max();
  *scale = kMax / 65536.0;
  *offset = std::clamp(*offset, -kMax, kMax - *scale * top);
}

// Score side: codes 0..sentinel-1 affine, top code = +inf sentinel.
// Invariant established per element: Dequant(code_i) >= v_i for non-NaN
// v_i (NaN needs no bound — it can never fire — and gets code 0).
template <typename Code>
void QuantizeUp(std::span<const double> values, double scale, double offset,
                std::vector<Code>* out) {
  constexpr Code kSentinel = std::numeric_limits<Code>::max();
  out->resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    if (std::isnan(v)) {
      (*out)[i] = 0;
      continue;
    }
    double cand = std::ceil((v - offset) / scale);
    if (!(cand >= 0.0)) cand = 0.0;  // also catches NaN from inf - inf
    if (cand > static_cast<double>(kSentinel) - 1.0) {
      cand = static_cast<double>(kSentinel) - 1.0;
    }
    Code c = static_cast<Code>(cand);
    // Fixup against the actual dequant value: walk up until conservative
    // (the sentinel, dequanting to +inf, always terminates the loop), then
    // tighten a bounded few steps — tightness is optional, soundness not.
    while (c < kSentinel && Dequant(scale, offset, c) < v) ++c;
    for (int t = 0; t < 4 && c > 0 && Dequant(scale, offset, c - 1) >= v;
         ++t) {
      --c;
    }
    (*out)[i] = c;
  }
}

// Bar side: codes 1..max affine, code 0 = -inf sentinel. Invariant:
// Dequant(code_i) <= v_i for non-NaN v_i (NaN bars can never fire and get
// the top code so they don't deflate the span min).
template <typename Code>
void QuantizeDown(std::span<const double> values, double scale, double offset,
                  std::vector<Code>* out) {
  constexpr Code kMax = std::numeric_limits<Code>::max();
  out->resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    if (std::isnan(v)) {
      (*out)[i] = kMax;
      continue;
    }
    double cand = std::floor((v - offset) / scale);
    if (!(cand >= 1.0)) cand = 1.0;
    if (cand > static_cast<double>(kMax)) cand = static_cast<double>(kMax);
    Code c = static_cast<Code>(cand);
    while (c > 0 && Dequant(scale, offset, c) > v) --c;
    for (int t = 0; t < 4 && c < kMax && Dequant(scale, offset, c + 1) <= v;
         ++t) {
      ++c;
    }
    (*out)[i] = c;
  }
}

// Span queries. A non-finite dequant value (impossible under the finite
// maps Build installs; guarded anyway, since a NaN bound would silently
// read as "can fire") is replaced by the side's sentinel, which is always
// sound.
template <typename Code>
double DequantScoreUpper(double scale, double offset, Code span_max) {
  if (span_max == std::numeric_limits<Code>::max()) return kInf;
  const double up = Dequant(scale, offset, span_max);
  return std::isfinite(up) ? up : kInf;
}

template <typename Code>
double DequantBarLower(double scale, double offset, Code span_min) {
  if (span_min == 0) return -kInf;
  const double dn = Dequant(scale, offset, span_min);
  return std::isfinite(dn) ? dn : -kInf;
}

}  // namespace

bool BoundPrefilterEnabled() {
  return PrefilterEnabledVar().load(std::memory_order_relaxed);
}

void SetBoundPrefilterEnabled(bool enabled) {
  PrefilterEnabledVar().store(enabled, std::memory_order_relaxed);
}

BoundPrefilter BoundPrefilter::Build(std::span<const double> answers) {
  BoundPrefilter pf;
  pf.size_ = answers.size();
  const ValueRange r = ScanRange(answers);
  if (r.u8_exact) {
    // Exact integer embedding: scale 1, code = v - lo, zero quantization
    // slack — counting-query score vectors land here and prune exactly as
    // the full-precision bound would, at 1/8 the bytes.
    pf.score_scale_ = 1.0;
    pf.score_offset_ = r.lo;
    QuantizeUp(answers, pf.score_scale_, pf.score_offset_, &pf.score8_);
  } else {
    pf.score_scale_ = SafeScale(r.lo, r.hi, 65534.0);
    pf.score_offset_ = r.lo;
    FiniteAffineMap(&pf.score_scale_, &pf.score_offset_, 65534.0);
    QuantizeUp(answers, pf.score_scale_, pf.score_offset_, &pf.score16_);
  }
  return pf;
}

BoundPrefilter BoundPrefilter::Build(std::span<const double> answers,
                                     std::span<const double> thresholds) {
  SVT_CHECK(answers.size() == thresholds.size())
      << "BoundPrefilter answers/thresholds size mismatch: " << answers.size()
      << " vs " << thresholds.size();
  BoundPrefilter pf = Build(answers);
  pf.has_thresholds_ = true;
  const ValueRange r = ScanRange(thresholds);
  if (r.u8_exact) {
    pf.bar_scale_ = 1.0;
    pf.bar_offset_ = r.lo - 1.0;  // code 0 is the -inf sentinel
    QuantizeDown(thresholds, pf.bar_scale_, pf.bar_offset_, &pf.bar8_);
  } else {
    pf.bar_scale_ = SafeScale(r.lo, r.hi, 65534.0);
    pf.bar_offset_ = r.lo - pf.bar_scale_;
    FiniteAffineMap(&pf.bar_scale_, &pf.bar_offset_, 65535.0);
    QuantizeDown(thresholds, pf.bar_scale_, pf.bar_offset_, &pf.bar16_);
  }
  return pf;
}

double BoundPrefilter::ScoreUpper(size_t begin, size_t len) const {
  SVT_DCHECK(len >= 1 && begin + len <= size_);
  if (!score8_.empty()) {
    return DequantScoreUpper(
        score_scale_, score_offset_,
        vec::QuantizedSpanMax({score8_.data() + begin, len}));
  }
  return DequantScoreUpper(
      score_scale_, score_offset_,
      vec::QuantizedSpanMax({score16_.data() + begin, len}));
}

double BoundPrefilter::BarLower(size_t begin, size_t len) const {
  SVT_DCHECK(has_thresholds_);
  SVT_DCHECK(len >= 1 && begin + len <= size_);
  if (!bar8_.empty()) {
    return DequantBarLower(bar_scale_, bar_offset_,
                           vec::QuantizedSpanMin({bar8_.data() + begin, len}));
  }
  return DequantBarLower(bar_scale_, bar_offset_,
                         vec::QuantizedSpanMin({bar16_.data() + begin, len}));
}

}  // namespace svt
