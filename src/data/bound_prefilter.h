// BoundPrefilter: the quantized primary level of the two-level bound
// prefilter (the SVS Turbo-LVQ / LeanVec pattern mapped onto the batch
// engine's tier structure — scan a compressed representation, touch full
// precision only for survivors).
//
// The batch engine's conservative "can this span possibly fire?" chain
// (core/bound_pipeline.h) needs, per 128-query span, an upper bound on the
// span's answers. Reading the doubles for that reduction costs 8 bytes per
// element, which on bandwidth-starved 1M-query common-threshold workloads
// is where the bound pass's time goes. A BoundPrefilter is an immutable
// quantized companion of one answers array: uint16 codes whose per-span
// integer max (vec::QuantizedSpanMax) dequantizes to an upper bound that
// is conservative BY CONSTRUCTION. Values are rounded toward +inf: every
// element satisfies Dequant(code_i) >= answers[i]. Build computes a
// candidate code from the affine fit and then FIXES IT UP against the
// actual dequant value (the same fl(offset + fl(scale*code)) the query
// path evaluates), so the invariant holds per element regardless of any
// rounding in scale/offset themselves. The top code is a +inf sentinel:
// +inf answers — and any value the affine range cannot bound — land
// there, and a span containing one is never pruned. NaN answers map to
// code 0: a NaN answer can never fire the positive test fl(a + nu) >= bar
// (NaN compares false), so it needs no bound and must not inflate its
// span's max.
//
// Dequantization is monotone in the code (scale > 0; correctly-rounded
// multiply and add are monotone), so dequant(max code over a span) >=
// dequant(code_i) >= answers[i] for every i — the span reduction
// inherits the per-element invariant. That is the entire quantization
// side of the conservativeness proof; the bound chain it feeds is proved
// in core/bound_pipeline.h.
//
// The affine map is finite at every code. A value range reaching toward
// ±DBL_MAX would overflow the natural map (scale * code → +inf); such a
// range falls back to the widest map that cannot overflow, and a
// non-finite dequant is read as the +inf sentinel besides. Ranges whose
// natural map is finite keep it, so their codes are unchanged.
//
// Only common-threshold runs attach a prefilter: per-query-threshold runs
// reduce their answers and thresholds at full precision.
//
// Quantized codes are BOUND-ONLY: they feed skip decisions and skip-word
// derivation, never a draw, a transform, or an emitted value (core/svt.h
// draw-order contract note), so final output is bit-identical with the
// prefilter attached or absent.

#ifndef SPARSEVEC_DATA_BOUND_PREFILTER_H_
#define SPARSEVEC_DATA_BOUND_PREFILTER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace svt {

class BoundPrefilter {
 public:
  /// An empty prefilter (size 0) — never attachable to a non-empty run.
  BoundPrefilter() = default;

  /// Builds the score codes for `answers` (common-threshold runs).
  static BoundPrefilter Build(std::span<const double> answers);

  /// Number of elements of the array this prefilter was built over. A run
  /// may only attach a prefilter built over exactly its answers array; the
  /// engine checks the sizes match.
  size_t size() const { return codes_.size(); }

  /// Bytes of quantized code per element — the memory the bound pass
  /// touches instead of 8-byte doubles.
  static constexpr size_t score_bytes_per_element() {
    return sizeof(std::uint16_t);
  }

  /// Conservative upper bound on max(answers[begin, begin+len)): the
  /// dequantized span max code. May be +inf (sentinel in range);
  /// >= every non-NaN element by the build invariant. len >= 1.
  double ScoreUpper(size_t begin, size_t len) const;

 private:
  double scale_ = 1.0, offset_ = 0.0;  // affine dequant parameters
  std::vector<std::uint16_t> codes_;
};

}  // namespace svt

#endif  // SPARSEVEC_DATA_BOUND_PREFILTER_H_
