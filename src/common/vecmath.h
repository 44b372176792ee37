// Pluggable vectorized math layer: the polynomial log/exp kernel family
// behind every noise draw in the library.
//
// Motivation: the batch engine's tier-2 path (and every bulk sampler) was
// bound by scalar libm log() at ~15-20 ns/draw — the dominant cost exactly
// in near-threshold SVT workloads, where chunks cannot be proven all-below
// and every ν must be materialized. This layer replaces libm on the
// sampling side with a fixed polynomial kernel that exists in three lanes:
//
//   * a scalar reference (Log/Exp below),
//   * an AVX2 4-wide implementation, and
//   * an AVX-512 8-wide implementation (AVX-512F+DQ+VL),
//
// selected by runtime CPUID dispatch and defined to produce *bit-identical*
// doubles. That guarantee is what lets
// the batch engine stay bitwise-equal to the streaming path (the pinned
// per-role draw-order contract on SpecDrivenSvt, core/svt.h) while being
// free to change dispatch level per host — results depend on the seed, not
// on the CPU the process landed on.
//
// How bit-identity is achieved:
//   * all lanes evaluate the same fdlibm-derived polynomials in the same
//     fixed Horner order, step for step;
//   * every step is an IEEE-754 correctly-rounded primitive (+ - * /),
//     identical scalar and per-SIMD-lane;
//   * no FMA is emitted in any lane: the SIMD paths use explicit
//     non-fused mul/add intrinsics, and vecmath.cc is compiled with
//     -ffp-contract=off so the compiler cannot contract the scalar lane
//     (see CMakeLists.txt);
//   * special operands (zero, subnormal, negative, ±inf, NaN, and for Exp
//     magnitudes beyond ±700) are detected per SIMD lane and delegated to
//     the scalar reference kernel.
//
// Accuracy: the kernels track libm to within a few ULP (the bound is
// asserted in tests/common_vecmath_test.cc); they are *not* bit-equal to
// libm, which is why switching the samplers onto this layer was a one-time
// golden re-record (see README "Performance").
//
// Dispatch: resolved once per process from CPUID; the SVT_MAX_DISPATCH
// environment variable ("scalar"/"avx2"/"avx512", or the enum value
// 0/1/2) caps the available levels — a capped level reads as unsupported
// everywhere, for auto-detection AND SetDispatchLevel(), so
// SVT_MAX_DISPATCH=scalar pins the scalar lane and SVT_MAX_DISPATCH=avx2
// on an AVX-512 host exercises the AVX2 lane even through tests that flip
// levels themselves — and SetDispatchLevel()
// lets tests and benches flip levels at runtime to assert cross-dispatch
// equality in one binary. Compiling with -DSVT_DISABLE_AVX2 removes every
// SIMD lane (for -mno-avx2 CI legs and non-x86 hosts); -DSVT_DISABLE_AVX512
// removes only the AVX-512 lane.

#ifndef SPARSEVEC_COMMON_VECMATH_H_
#define SPARSEVEC_COMMON_VECMATH_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.h"

namespace svt {
namespace vec {

/// Available kernel implementations, in increasing width.
enum class DispatchLevel {
  kScalar = 0,  ///< portable reference lane (always available)
  kAvx2 = 1,    ///< 4-wide AVX2 lane (x86-64 with AVX2, unless compiled out)
  kAvx512 = 2,  ///< 8-wide AVX-512 lane (needs AVX-512F+DQ+VL)
};

/// All levels, widest last — the canonical iteration order for
/// cross-dispatch tests and benches.
inline constexpr DispatchLevel kAllDispatchLevels[] = {
    DispatchLevel::kScalar, DispatchLevel::kAvx2, DispatchLevel::kAvx512};

/// Human-readable name ("scalar", "avx2", "avx512") for logs and benches.
const char* DispatchLevelName(DispatchLevel level);

/// True if `level` can execute on this host, was compiled in, and lies
/// within the SVT_MAX_DISPATCH cap (capped levels read as unsupported, so
/// the cap binds SetDispatchLevel() too).
bool DispatchLevelSupported(DispatchLevel level);

/// The level the Block kernels currently run at. Resolved on first use:
/// the widest supported level, unless SVT_MAX_DISPATCH in the environment
/// caps it lower.
DispatchLevel ActiveDispatchLevel();

/// Parses an SVT_MAX_DISPATCH value ("scalar"/"avx2"/"avx512" or "0"/"1"/
/// "2", case-insensitive) into the cap it denotes. Unset/empty means "no
/// cap" and returns the widest level; a present-but-unrecognized value is
/// a fatal SVT_CHECK (a typo must not silently uncap a CI leg). Exposed
/// for tests; the environment is read once at dispatch-resolution time.
DispatchLevel ParseDispatchCap(const char* value);

/// Overrides the active level (tests/benches). Returns false — leaving the
/// level unchanged — if `level` is unsupported on this host. Thread-safe.
bool SetDispatchLevel(DispatchLevel level);

/// Natural log, scalar reference lane. Full domain: ±0 → -inf, negative →
/// NaN, +inf → +inf, NaN → NaN, subnormals exact via prescaling.
double Log(double x);

/// Natural exponential, scalar reference lane. Full domain: overflows to
/// +inf, underflows through the subnormal range to 0, NaN → NaN.
double Exp(double x);

/// The scalar word→exponential-magnitude map behind every draw in the
/// library: -Log(u) where u is `word` on the (0, 1] 53-bit lattice exactly
/// as Rng::ToUnitDoublePositive. This is the single-element form of
/// NegLogUnitPositiveBlock — streaming samplers call it so that scalar and
/// block draws are draw-for-draw bit-identical (same word, same double).
double NegLogUnitPositive(std::uint64_t word);

/// out[i] = Log(in[i]) at the active dispatch level. Bit-identical to a
/// scalar Log() loop at every level. In-place operation (out == in) is
/// allowed; other overlap is not. in.size() must equal out.size().
void LogBlock(std::span<const double> in, std::span<double> out);

/// out[i] = Exp(in[i]) at the active dispatch level; same aliasing and
/// bit-identity contract as LogBlock.
void ExpBlock(std::span<const double> in, std::span<double> out);

/// Fused sampling kernel: out[i] = -Log(u) where u is words[i * stride]
/// mapped onto the (0, 1] 53-bit lattice exactly as
/// Rng::ToUnitDoublePositive — i.e. the exponential magnitude behind every
/// Laplace/Gumbel draw, straight from the raw RNG words with no
/// intermediate pass. stride is 1 (Gumbel: every word) or 2 (Laplace: the
/// even words are magnitudes, the odd words signs). words.size() must be
/// stride * out.size(). Dispatched; bit-identical to the scalar
/// composition -Log(Rng::ToUnitDoublePositive(w)) at every level.
void NegLogUnitPositiveBlock(std::span<const std::uint64_t> words,
                             std::size_t stride, std::span<double> out);

/// The complete Laplace(mu, b) inverse-CDF transform, fused into one
/// dispatched pass over the raw word pairs: with e_i =
/// -Log(ToUnitDoublePositive(words[2i])) and be_i = b * e_i,
///   out[i] = mu + be_i   if bit 63 of words[2i+1] is set
///            mu + (-be_i) otherwise,
/// where -be_i is a sign-bit flip — IEEE-identical to the streaming
/// sampler's `sign-uniform < 0.5 ? mu - be : mu + be` (the sign uniform is
/// < 0.5 exactly when bit 63 of its word is 0, and a - b == a + (-b)
/// exactly). words.size() must be 2 * out.size(). This is the hottest
/// kernel in the system: the batch engine's tier-2 ν materialization.
void LaplaceTransformBlock(std::span<const std::uint64_t> words, double mu,
                           double b, std::span<double> out);

/// The complete one-sided Exponential(b) inverse-CDF transform, fused into
/// one dispatched pass over raw words:
///   out[i] = b * -Log(ToUnitDoublePositive(words[i])).
/// One word per variate (exponential noise carries no sign word), support
/// [0, +inf). Defined as the composition b * NegLogUnitPositiveBlock(words,
/// /*stride=*/1) and bit-identical to it at every dispatch level; the
/// scalar form is NegLogUnitPositive(word) * b with the product computed as
/// b * e in that operand order (one correctly-rounded multiply — the order
/// is pinned so streaming and batch agree bitwise). words.size() must equal
/// out.size().
void ExponentialTransformBlock(std::span<const std::uint64_t> words, double b,
                               std::span<double> out);

/// Reduction: max over in (in.size() >= 1), dispatched. Exact and
/// association-independent when no element is NaN (the tier-1 bound's
/// input); with NaNs the result is unspecified — some levels drop them —
/// so callers must already be conservative under NaN (the chunk bound is:
/// a NaN max fails its comparison and falls through to the exact scan).
double MaxBlock(std::span<const double> in);

/// Reduction: min over in (in.size() >= 1), dispatched. Same contract
/// shape as MaxBlock: exact and association-independent when no element is
/// NaN (the per-query bound's threshold-side input); with NaNs the result
/// is unspecified — callers must already be conservative under NaN (the
/// span bound is: a NaN-threshold element can never fire its positive
/// test, so any lower bound over the remaining thresholds stays sound).
double MinBlock(std::span<const double> in);

/// Reduction: minimum of words[0], words[stride], words[2*stride], ...
/// (words.size() must be a multiple of stride; at least one element).
/// Exact at every dispatch level. stride 2 is the batch engine's bound on
/// the magnitude uniforms (the even words of a ν chunk).
std::uint64_t MinWordBlock(std::span<const std::uint64_t> words,
                           std::size_t stride);

// --- Quantized bound reductions -------------------------------------------
//
// Integer max/min over the quantized bound codes of the two-level bound
// prefilter (data/bound_prefilter.h): the primary bound level reduces
// uint8/uint16 codes instead of doubles, touching 4-8x less memory per
// span. Unsigned integer max/min is exact and association-free, so every
// lane returns the identical code — no rounding contract needed. The
// AVX-512 dispatch level reuses the AVX2 lane: 512-bit byte/word max
// needs AVX-512BW, which is outside the library's F+DQ+VL gate, and an
// exact integer reduction gains nothing from a wider accumulator that
// the 256-bit lane doesn't already deliver from L1/L2.

/// Max over a span of quantized bound codes (codes.size() >= 1).
std::uint8_t QuantizedSpanMax(std::span<const std::uint8_t> codes);
std::uint16_t QuantizedSpanMax(std::span<const std::uint16_t> codes);

/// Min over a span of quantized bound codes (codes.size() >= 1).
std::uint8_t QuantizedSpanMin(std::span<const std::uint8_t> codes);
std::uint16_t QuantizedSpanMin(std::span<const std::uint16_t> codes);

/// Returns the smallest i with a[i] + b[i] >= bar — the SVT positive test
/// of the batch engine's tier-2 compare-scan — or a.size() if no element
/// passes. One correctly-rounded add and one ordered >= per element, so
/// the index is bit-identical at every dispatch level (NaN sums never
/// match, as in the scalar loop). a.size() must equal b.size().
std::size_t FindFirstSumGe(std::span<const double> a,
                           std::span<const double> b, double bar);

/// As FindFirstSumGe without the addend: smallest i with a[i] >= bar.
std::size_t FindFirstGe(std::span<const double> a, double bar);

/// Per-query-threshold compare-scan: smallest i with a[i] >= bars[i] + rho
/// — the SVT positive test when every query carries its own threshold
/// (Alg. 7's general form; the bar varies per element, so the common-
/// threshold kernels above don't apply). The bar sum bars[i] + rho is one
/// correctly-rounded add and the compare is ordered >=, exactly the
/// streaming test, so the index is bit-identical at every dispatch level
/// (NaN operands never match, as in the scalar loop). a.size() must equal
/// bars.size(); returns a.size() if no element passes.
std::size_t FindFirstGePairwise(std::span<const double> a,
                                std::span<const double> bars, double rho);

/// The general per-query positive test with query noise: smallest i with
/// a[i] + b[i] >= bars[i] + rho (each side one rounded add, ordered >=).
/// Sizes must match; returns a.size() if no element passes.
std::size_t FindFirstSumGePairwise(std::span<const double> a,
                                   std::span<const double> b,
                                   std::span<const double> bars, double rho);

// --- Fused single-pass sample-and-scan kernels ----------------------------
//
// The batch engine's tier-2 scans used to be three passes over L1-sized
// scratch per chunk: FillUint64 → words, LaplaceTransformBlock → ν block,
// FindFirst* over the ν block. The FusedLaplaceScan* family collapses the
// last two: it reads the raw word pairs, applies the complete Laplace
// inverse-CDF transform in registers, and tests the SVT positive condition
// in the same pass — the ν block is never materialized. The transform is
// operation-for-operation the one LaplaceTransformBlock runs (the kernels
// are *defined* by that composition, which the tests diff against at every
// dispatch level), so the hit index, the returned ν, and the word→ν
// lattice are bit-identical to the unfused sequence — fusion is
// draw-order-neutral and needed no golden re-record.
//
// Chunk tails shorter than one SIMD width delegate to the scalar lane,
// the same rule as every other kernel in the family (regression-tested on
// odd tails and empty spans).

/// Result of a fused sample-and-scan pass.
struct FusedScanHit {
  /// First passing element, or the element count when none passes.
  std::size_t index = 0;
  /// The transformed ν at `index` — exactly the value the unfused
  /// LaplaceTransformBlock would have written there (the caller needs it
  /// for Alg. 3's q+ν output and as the comparison noise of the positive).
  /// 0.0 when there is no hit.
  double nu = 0.0;
};

/// Pure-noise scan: smallest i with ν_i >= bar, where ν_i is the
/// Laplace(mu, b) transform of the word pair (words[2i], words[2i+1]) —
/// magnitude word even, sign word odd, as in LaplaceTransformBlock.
/// words.size() must be even; the element count is words.size() / 2.
FusedScanHit FusedLaplaceScanGe(std::span<const std::uint64_t> words,
                                double mu, double b, double bar);

/// The common-threshold tier-2 positive test, fused: smallest i with
/// a[i] + ν_i >= bar (one rounded add, ordered >=, exactly the streaming
/// test). words.size() must be 2 * a.size().
FusedScanHit FusedLaplaceScanSumGe(std::span<const std::uint64_t> words,
                                   double mu, double b,
                                   std::span<const double> a, double bar);

/// Per-query-bar pure-noise scan: smallest i with ν_i >= bars[i] + rho.
/// words.size() must be 2 * bars.size().
FusedScanHit FusedLaplaceScanGePairwise(std::span<const std::uint64_t> words,
                                        double mu, double b,
                                        std::span<const double> bars,
                                        double rho);

/// The per-query-threshold tier-2 positive test, fused: smallest i with
/// a[i] + ν_i >= bars[i] + rho (each side one rounded add, ordered >=).
/// words.size() must be 2 * a.size(); a.size() must equal bars.size().
FusedScanHit FusedLaplaceScanSumGePairwise(
    std::span<const std::uint64_t> words, double mu, double b,
    std::span<const double> a, std::span<const double> bars, double rho);

// --- Fused exponential-noise sample-and-scan kernels ----------------------
//
// The exponential-noise counterparts of the FusedLaplaceScan* family, for
// variants whose query noise ν is one-sided Exponential(b) rather than
// Laplace. One raw word per variate (no sign word), so words.size() equals
// the element count — not twice it. Each kernel is *defined* as the
// composition ExponentialTransformBlock + FindFirst* (the tests diff fused
// against unfused at every dispatch level), so hit index, returned ν, and
// the word→ν lattice are bit-identical to the unfused sequence. Tails
// shorter than one SIMD width delegate to the scalar lane.

/// Pure-noise scan: smallest i with ν_i >= bar, where
/// ν_i = b * -Log(ToUnitDoublePositive(words[i])). The element count is
/// words.size().
FusedScanHit FusedExpScanGe(std::span<const std::uint64_t> words, double b,
                            double bar);

/// The common-threshold tier-2 positive test, fused: smallest i with
/// a[i] + ν_i >= bar (one rounded add, ordered >=, exactly the streaming
/// test). words.size() must equal a.size().
FusedScanHit FusedExpScanSumGe(std::span<const std::uint64_t> words, double b,
                               std::span<const double> a, double bar);

/// Per-query-bar pure-noise scan: smallest i with ν_i >= bars[i] + rho.
/// words.size() must equal bars.size().
FusedScanHit FusedExpScanGePairwise(std::span<const std::uint64_t> words,
                                    double b, std::span<const double> bars,
                                    double rho);

/// The per-query-threshold tier-2 positive test, fused: smallest i with
/// a[i] + ν_i >= bars[i] + rho (each side one rounded add, ordered >=).
/// words.size() must equal a.size(); a.size() must equal bars.size().
FusedScanHit FusedExpScanSumGePairwise(std::span<const std::uint64_t> words,
                                       double b, std::span<const double> a,
                                       std::span<const double> bars,
                                       double rho);

// --- Lane-resident generate-and-scan megakernels --------------------------
//
// The fused kernels above still read their raw words from an L1 scratch
// buffer that a FillUint64 pass wrote moments earlier — every word makes
// one round trip through memory. The Mega* family closes that last seam:
// it takes a BlockRng::State*, steps the four lockstep xoshiro256++ lanes
// *inside* the kernel (common/rng_lockstep.h holds the shared step
// primitives), and feeds the freshly generated words straight into the
// transform-and-test pipeline — words live only in registers.
//
// Stream contract (pinned; equivalence-tested at every dispatch level):
// the in-kernel generator walks exactly the BlockRng stream. A megakernel
// consuming k words from a given State produces word for word what
// BlockRng::Fill of k words from that State would have, and leaves the
// State at the exact position that Fill would have — in-kernel generation
// is stream-neutral, so megakernel and FillUint64 + fused-scan composition
// are interchangeable mid-stream in either direction.
//
// State advance: a scan that returns hit.index < n has consumed exactly
// (hit.index + 1) * wpv words (wpv = 2 for Laplace, 1 for exponential);
// a miss (hit.index == n) has consumed n * wpv. The caller resumes a
// mid-chunk scan by calling again with the same State — the stream
// position carries the progress. SIMD lanes require a lane-aligned entry
// (state->phase == 0); the scans realign an unaligned entry with a short
// scalar prologue, the fused passes delegate it to the scalar lane.

/// The common-threshold tier-2 positive test as a megakernel: smallest i
/// in [0, n) with a[i] + ν_i >= bar, where ν_i is the Laplace(mu, b)
/// transform of the word pair generated in-kernel for element i. n =
/// a.size(); hit index, ν payload, and consumed stream position are
/// bit-identical to FillUint64(2n words) + FusedLaplaceScanSumGe.
FusedScanHit MegaLaplaceScanSumGe(BlockRng::State* state, double mu, double b,
                                  std::span<const double> a, double bar);

/// Exponential-noise megakernel (wpv = 1): smallest i with
/// a[i] + ν_i >= bar, ν_i = b * -Log(ToUnitDoublePositive(word_i)).
FusedScanHit MegaExpScanSumGe(BlockRng::State* state, double b,
                              std::span<const double> a, double bar);

// --- fused generate-bound-and-scan passes ----------------------------------
//
// The batch engine's megakernel arm walks each chunk's ν words once, in
// registers, for two purposes at once: the per-span minimum magnitude word
// the tier-1/tier-2 bounds need, and every element whose positive test
// fires. Most elements of a near-threshold chunk provably cannot fire, so
// the pass pushes the bound down to word granularity: the caller derives a
// conservative integer threshold on the top 53 bits of the magnitude word
// (the bits ToUnitDoublePositive keeps — the unit double is strictly
// monotone in them), and any element at or above it skips its transform.
// SIMD lanes test a whole group with one shift and one compare and run the
// transform only when some lane is below the threshold. Skipped elements'
// words are still generated and consumed, and skipped elements cannot hit,
// so the recorded hits are bit-identical to the fused scans' over the
// FillUint64 words.

/// Conservative skip threshold for the fused passes: the largest W such
/// that every element whose magnitude word w has (w >> 11) >= W provably
/// fails the computed test fl(a[i] + ν_i) >= bar whenever a[i] <= a_max.
/// Soundness is *verified*, not assumed: the candidate (inverted from
/// exp(-gap/b)) is accepted only if the same monotone bound chain the
/// tier bounds use — a_max + b * (-Log(u_W) + pad) * slack < bar, with
/// u_W the smallest unit double among skipped words — holds under the
/// production Log kernel; otherwise the threshold is nudged up and
/// re-verified, falling back to the never-skip sentinel (2^53, above
/// every w >> 11). Returned values never exceed 2^53 + 1, which the AVX2
/// lane relies on for its signed 64-bit compare.
std::uint64_t MegaSkipWordThreshold(double a_max, double bar, double b);

/// Never-skip sentinel for the fused passes: (w >> 11) peaks at 2^53 - 1,
/// so no element is ever skipped at this threshold. MegaSkipWordThreshold
/// returns it whenever no sound skipping threshold exists, which callers
/// can use to pick a strategy (a never-skip fused pass degenerates into a
/// full per-element transform).
inline constexpr std::uint64_t kMegaNeverSkipWord = std::uint64_t{1} << 53;

/// Single-pass generate, bound, and scan: consumes exactly a.size() * wpv
/// words (no early exit) and records, for each span of `span_elems`
/// elements, the minimum of its magnitude words (every wpv-th word,
/// starting at the first) into span_min[j] — bit-identical to
/// FillUint64 + MinWordBlock per span, since unsigned min is
/// association-free — and the minimum over all of them into *min_out.
/// Spans partition [0, a.size()) in order; the last may be short;
/// span_min must hold ceil(a.size() / span_elems) entries. It also records
/// every element whose computed positive test fires — fl(a[i] + ν_i) >=
/// bar — in index order, transforming only lockstep groups holding a
/// magnitude word below skip_word (MegaSkipWordThreshold contract). For
/// near-threshold chunks the scan rides along at about the cost of the
/// generation alone. Returns the total number of positives found; only the
/// first max_hits are stored in hits (a larger return value signals the
/// record is incomplete). Hit indices and ν payloads are bit-identical to
/// the FillUint64 + fused-scan composition.
std::size_t MegaLaplaceFillMinScanSpans(
    BlockRng::State* state, double mu, double b, std::span<const double> a,
    double bar, std::uint64_t skip_word, std::size_t span_elems,
    std::uint64_t* span_min, FusedScanHit* hits, std::size_t max_hits,
    std::uint64_t* min_out);

/// Exponential-noise fused generate-bound-and-scan pass (wpv = 1); same
/// contract as the Laplace variant.
std::size_t MegaExpFillMinScanSpans(BlockRng::State* state, double b,
                                    std::span<const double> a, double bar,
                                    std::uint64_t skip_word,
                                    std::size_t span_elems,
                                    std::uint64_t* span_min,
                                    FusedScanHit* hits, std::size_t max_hits,
                                    std::uint64_t* min_out);

// The per-query-threshold path has no single chunk bar: element i's bar is
// fl(t_i + rho). A span's conservative skip word instead pairs the span's
// answer UPPER bound with its bar LOWER bound
// (BoundPipeline::SpanSkipWordPerQuery): fl(dn + rho) <= fl(t_i + rho) for
// every t_i in the span (monotone rounded add), so
// MegaSkipWordThreshold(up, fl(dn + rho), b) skips only elements that
// provably fail every computed pairwise test in the span. The skip
// threshold is therefore a per-span VECTOR, reloaded at every span
// boundary.

/// Per-query fused generate-bound-and-scan: the same walk with the
/// pairwise positive test, driven by a per-span skip-word vector.
/// skip_words[j] governs span j (kMegaNeverSkipWord entries simply never
/// skip); `hits` records every element with fl(a[i] + ν_i) >=
/// fl(bars[i] + rho) in index order, and the walk never stops early —
/// exactly a.size() * wpv words are consumed. *skipped_out gets the
/// number of elements whose magnitude word's top 53 bits reached their
/// span's skip word — a pure function of the words and the vector, so the
/// count is dispatch-level-independent (unlike the group-granular
/// transform elisions, which vary with lane width). Returns the total
/// number of positives; only the first max_hits are stored. No chunk-min
/// output: the per-query path has no tier-1 bound to feed.
std::size_t MegaLaplaceFillMinScanSpansPairwise(
    BlockRng::State* state, double mu, double b, std::span<const double> a,
    std::span<const double> bars, double rho, const std::uint64_t* skip_words,
    std::size_t span_elems, std::uint64_t* span_min, FusedScanHit* hits,
    std::size_t max_hits, std::uint64_t* skipped_out);

/// Exponential-noise per-query fused pass (wpv = 1); same contract.
std::size_t MegaExpFillMinScanSpansPairwise(
    BlockRng::State* state, double b, std::span<const double> a,
    std::span<const double> bars, double rho, const std::uint64_t* skip_words,
    std::size_t span_elems, std::uint64_t* span_min, FusedScanHit* hits,
    std::size_t max_hits, std::uint64_t* skipped_out);

/// Scratch-buffer counterpart of the fused passes' skipped-element count,
/// for the composition kernel mode: the number of element magnitude words
/// (every wpv-th word, starting at the first) in `words` whose top 53
/// bits are at or above skip_word. Dispatched like the other word-block
/// reductions so keeping the counter mode-independent does not put a
/// scalar drag on the composition A/B baseline.
std::size_t SkipWordCountBlock(std::span<const std::uint64_t> words,
                               std::size_t wpv, std::uint64_t skip_word);

}  // namespace vec
}  // namespace svt

#endif  // SPARSEVEC_COMMON_VECMATH_H_
