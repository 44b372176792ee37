// BoundPrefilter: the quantized primary level of the two-level bound
// prefilter (the SVS Turbo-LVQ / LeanVec pattern mapped onto the batch
// engine's tier structure — scan a compressed representation, touch full
// precision only for survivors).
//
// The batch engine's conservative "can this span possibly fire?" chain
// (core/bound_pipeline.h) needs, per 128-query span, an upper bound on the
// span's answers and — for per-query-threshold runs — a lower bound on its
// thresholds. Reading the doubles for those reductions costs 8 (or 16)
// bytes per element, which on bandwidth-starved 1M-query workloads is
// where the bound pass's time goes. A BoundPrefilter is an immutable
// quantized companion of one answers (and optionally thresholds) array:
// uint16 codes — uint8 where the value range permits an exact integer
// embedding — whose per-span integer max/min (vec::QuantizedSpanMax/Min)
// dequantizes to a bound that is conservative BY CONSTRUCTION:
//
//   * score side (answers), rounded toward +inf: every element satisfies
//     DequantScore(code_i) >= answers[i]. Build computes a candidate code
//     from the affine fit and then FIXES IT UP against the actual dequant
//     value (the same fl(offset + fl(scale*code)) the query path
//     evaluates), so the invariant holds per element regardless of any
//     rounding in scale/offset themselves. The top code is a +inf
//     sentinel: +inf answers — and any value the affine range cannot
//     bound — land there, and a span containing one is never pruned.
//     NaN answers map to code 0: a NaN answer can never fire the positive
//     test fl(a + nu) >= bar (NaN compares false), so it needs no bound
//     and must not inflate its span's max.
//   * bar side (thresholds), rounded toward -inf: every element satisfies
//     DequantBar(code_i) <= thresholds[i], same build-time fixup. Code 0
//     is a -inf sentinel (a span containing a -inf threshold is never
//     pruned); NaN thresholds map to the top code — an element whose bar
//     is NaN can never fire (a + nu >= NaN is false), so it needs no
//     bound and must not deflate its span's min.
//
// Dequantization is monotone in the code (scale > 0; correctly-rounded
// multiply and add are monotone), so dequant(max code over a span) >=
// dequant(code_i) >= answers[i] for every i — the span reduction
// inherits the per-element invariant. That is the entire quantization
// side of the conservativeness proof; the bound chain it feeds is proved
// in core/bound_pipeline.h.
//
// The affine map is finite at every code. A value range reaching toward
// ±DBL_MAX would overflow the natural map (offset lo - scale → -inf, or
// scale * code → +inf, so -inf + inf dequantizes to NaN); such a side
// falls back to the widest map that cannot overflow, and a non-finite
// dequant is read as the side's sentinel besides. Ranges whose natural
// map is finite keep it, so their codes are unchanged.
//
// Quantized codes are BOUND-ONLY: they feed skip decisions and skip-word
// derivation, never a draw, a transform, or an emitted value (core/svt.h
// draw-order contract note), so final output is bit-identical with the
// prefilter on, off (SVT_BOUND_PREFILTER=off), or absent.

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

  /// Builds the score-side codes for `answers` (common-threshold runs).
  static BoundPrefilter Build(std::span<const double> answers);

  /// Builds score- and bar-side codes for a per-query-threshold run.
  /// answers.size() must equal thresholds.size().
  static BoundPrefilter Build(std::span<const double> answers,
                              std::span<const double> thresholds);

  /// Number of elements of the array(s) this prefilter was built over. A
  /// run may only attach a prefilter built over exactly its answers (and
  /// thresholds) arrays; the engine checks the sizes match.
  size_t size() const { return size_; }

  /// True when bar-side codes exist (the two-array Build).
  bool has_thresholds() const { return has_thresholds_; }

  /// Bytes of quantized code per element on each side (1 or 2) — the
  /// memory the bound pass touches instead of 8-byte doubles.
  size_t score_bytes_per_element() const { return score8_.empty() ? 2u : 1u; }
  size_t bar_bytes_per_element() const { return bar8_.empty() ? 2u : 1u; }

  /// Conservative upper bound on max(answers[begin, begin+len)): the
  /// dequantized span max code. May be +inf (sentinel in range);
  /// >= every non-NaN element by the build invariant. len >= 1.
  double ScoreUpper(size_t begin, size_t len) const;

  /// Conservative lower bound on min(thresholds[begin, begin+len)): the
  /// dequantized span min code. May be -inf (sentinel in range);
  /// <= every non-NaN element. Requires has_thresholds(). len >= 1.
  double BarLower(size_t begin, size_t len) const;

 private:
  size_t size_ = 0;
  bool has_thresholds_ = false;
  // Affine dequant parameters per side; exactly one code vector per side
  // is populated (8-bit when the finite values embed exactly as integers
  // in a 254-wide range, else 16-bit).
  double score_scale_ = 1.0, score_offset_ = 0.0;
  double bar_scale_ = 1.0, bar_offset_ = 0.0;
  std::vector<std::uint16_t> score16_, bar16_;
  std::vector<std::uint8_t> score8_, bar8_;
};

/// Process-wide prefilter gate, initialized once from SVT_BOUND_PREFILTER
/// ("on" | "off"; unset means on, anything else aborts) and adjustable at
/// runtime for equivalence tests — the seam the CI dispatch matrix's
/// SVT_BOUND_PREFILTER=off leg toggles.
/// When disabled, attached prefilters are ignored and every bound level
/// runs at full precision; outputs are identical either way.
bool BoundPrefilterEnabled();
void SetBoundPrefilterEnabled(bool enabled);

}  // namespace svt

#endif  // SPARSEVEC_DATA_BOUND_PREFILTER_H_
