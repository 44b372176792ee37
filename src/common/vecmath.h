// Pluggable vectorized math layer: the polynomial log kernel family
// behind every noise draw in the library.
//
// Motivation: the batch engine's tier-2 path (and every bulk sampler) was
// bound by scalar libm log() at ~15-20 ns/draw — the dominant cost exactly
// in near-threshold SVT workloads, where chunks cannot be proven all-below
// and every ν must be materialized. This layer replaces libm on the
// sampling side with a fixed polynomial kernel that runs in three lanes:
//
//   * a scalar reference (Log below),
//   * an AVX2 4-wide lane, and
//   * an AVX-512 8-wide lane (AVX-512F+DQ+VL),
//
// selected by runtime CPUID dispatch and defined to produce *bit-identical*
// doubles. That guarantee is what lets
// the batch engine stay bitwise-equal to the streaming path (the pinned
// per-role draw-order contract on SparseVector, core/svt.h) while being
// free to change dispatch level per host — results depend on the seed, not
// on the CPU the process landed on.
//
// How bit-identity is achieved:
//   * each kernel body is written once (common/vecmath_kernels.inc), as a
//     template over a lane-traits type, and instantiated once per lane; a
//     lane's traits supply only its primitives, so every lane evaluates
//     the same fdlibm-derived polynomials in the same fixed Horner order,
//     step for step, and the SIMD lanes' sub-width tails run the scalar
//     lane's instance of the same body;
//   * every floating-point primitive is an IEEE-754 correctly-rounded
//     + - *, identical scalar and per SIMD lane, and every integer step and
//     int<->double conversion is exact;
//   * no FMA is emitted in any lane: the SIMD traits use explicit
//     non-fused mul/add intrinsics, and vecmath.cc is compiled with
//     -ffp-contract=off so the compiler cannot contract the scalar lane
//     (see CMakeLists.txt);
//   * special operands (zero, subnormal, negative, ±inf, NaN) are detected
//     per SIMD lane and delegated to the scalar reference kernel.
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
// SIMD lane (for -mno-avx2 CI legs and non-x86 hosts), as does a compiler
// other than GCC (the lanes need `#pragma GCC target`);
// -DSVT_DISABLE_AVX512 removes only the AVX-512 lane.

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

/// The scalar word→exponential-magnitude map behind every draw in the
/// library: -Log(u) where u is `word` on the (0, 1] 53-bit lattice exactly
/// as Rng::ToUnitDoublePositive. ExponentialTransformBlock at b = 1 is its
/// block form — streaming samplers call it so that scalar and block draws
/// are draw-for-draw bit-identical (same word, same double).
double NegLogUnitPositive(std::uint64_t word);

/// out[i] = Log(in[i]) at the active dispatch level. Bit-identical to a
/// scalar Log() loop at every level. In-place operation (out == in) is
/// allowed; other overlap is not. in.size() must equal out.size().
void LogBlock(std::span<const double> in, std::span<double> out);

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
/// [0, +inf). Bit-identical at every dispatch level to the scalar form
/// b * NegLogUnitPositive(word) (one correctly-rounded multiply; the
/// kernels compute (-b) * Log(u), the same product bit for bit, since an
/// IEEE product's sign is the XOR of its operands' signs). At b = 1 it is
/// exactly -Log(u) per word, −0.0 included. words.size() must equal
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

// --- Quantized bound reduction --------------------------------------------
//
// Integer max over the 16-bit score codes of the bound prefilter
// (data/bound_prefilter.h): the prefiltered bound level reduces uint16
// codes instead of doubles, touching 4x less memory per span. Unsigned
// integer max is exact and association-free, so every lane returns the
// identical code — no rounding contract needed. The AVX-512 dispatch
// level reuses the AVX2 lane: 512-bit word max needs AVX-512BW, which is
// outside the library's F+DQ+VL gate, and an exact integer reduction
// gains nothing from a wider accumulator that the 256-bit lane doesn't
// already deliver from L1/L2.

/// Max over a span of quantized bound codes (codes.size() >= 1).
std::uint16_t QuantizedSpanMax(std::span<const std::uint16_t> codes);

/// The SVT positive test as a compare-scan: the smallest i with
///   a[i] + nu[i] >= bar_i,
/// or a.size() if no element passes. An empty `nu` means no query noise
/// (the test is a[i] >= bar_i). An empty `bars` means one common bar,
/// bar_i = bar_offset; otherwise bar_i = fl(bars[i] + bar_offset) (Alg.
/// 7's per-query form, with bar_offset = ρ) — the fused passes' bar
/// convention. Each side is one correctly-rounded add and the compare is
/// an ordered >=, exactly the streaming test, so the index is
/// bit-identical at every dispatch level and NaN operands never match.
/// A non-empty nu or bars must have a.size() elements.
std::size_t FindFirstGe(std::span<const double> a, std::span<const double> nu,
                        std::span<const double> bars, double bar_offset);

/// A positive found by a scan: the element and the ν that fired it.
struct FusedScanHit {
  /// First passing element, or the element count when none passes.
  std::size_t index = 0;
  /// The transformed ν at `index` — exactly the value LaplaceTransformBlock
  /// (or ExponentialTransformBlock) writes for that element's words (the
  /// caller needs it for Alg. 3's q+ν output and as the comparison noise of
  /// the positive). 0.0 when there is no hit.
  double nu = 0.0;
};

// --- the block generator ----------------------------------------------------
//
// The BlockRng stream's four xoshiro256++ lanes are stepped by one
// generator per dispatch lane, written once over the lane traits: SIMD
// lanes step all four in lockstep in registers, the scalar lane one word at
// a time. BlockRng::Fill runs it through FillStream; the fused passes and
// the seeded fire masks below step it inside their kernels.

/// Writes the next out.size() words of the BlockRng stream at *state into
/// `out` and advances *state past them: BlockRng::Fill's body. Words from
/// a lane-aligned position on run as lockstep steps at the active dispatch
/// level; the words before it and after the last whole step run on the
/// scalar lane. Bit-identical to out.size() BlockRng::Next() calls at
/// every level.
void FillStream(BlockRng::State* state, std::span<std::uint64_t> out);

// --- fused generate-bound-and-scan passes ----------------------------------
//
// The batch engine walks each chunk's ν words once, in registers, for two
// purposes at once: the per-span minimum magnitude word the tier-1/tier-2
// bounds need, and every element whose positive test fires. The passes
// take a BlockRng::State*, step the generator *inside* the kernel and feed
// the freshly generated words straight into the transform-and-test
// pipeline — words live only in registers.
//
// Stream contract (pinned; equivalence-tested at every dispatch level):
// the in-kernel generator walks exactly the BlockRng stream. A pass
// consuming k words from a given State produces word for word what
// BlockRng::Fill of k words from that State would have, and leaves the
// State at the exact position that Fill would have — in-kernel generation
// is stream-neutral, since Fill runs the same generator (FillStream), so a
// pass and a FillUint64 of the same words are interchangeable mid-stream
// in either direction.
//
// State advance: a pass never stops early; it consumes exactly
// a.size() * wpv words (wpv = 2 for Laplace, 1 for exponential), whatever
// it skips or records. SIMD lanes require a lane-aligned entry
// (state->phase == 0); an unaligned entry runs the scalar lane.
//
// Most elements of a near-threshold chunk provably cannot fire, so the
// passes push the bound down to word granularity: the caller derives a
// conservative integer threshold on the top 53 bits of the magnitude word
// (the bits ToUnitDoublePositive keeps — the unit double is strictly
// monotone in them), and any element at or above it skips its transform.
// SIMD lanes test a whole group with one shift and one compare and run the
// transform only when some lane is below the threshold. Skipped elements'
// words are still generated and consumed, and skipped elements cannot hit,
// so the recorded hits are bit-identical to a LaplaceTransformBlock (or
// ExponentialTransformBlock) + FindFirstGe walk over the FillUint64 words.
// The threshold is a per-span vector. A common bar repeats one word; per
// query there is no single chunk bar, so each span's word pairs its
// answer upper bound with its bar lower bound
// (BoundPipeline::SpanSkipWordPerQuery): fl(dn + rho) <= fl(t_i + rho)
// for every t_i in the span (monotone rounded add), so it skips only
// elements that provably fail every computed test in the span.
//
// One entry serves all four forms: Laplace or exponential ν, common or
// per-query bar.

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
/// words (wpv = 2 for Laplace(0, b) ν, 1 for Exponential(b); no early exit)
/// and records, for each span of `span_elems` elements, the minimum of its
/// magnitude words (every wpv-th word, starting at the first) into
/// span_min[j] — bit-identical to FillUint64 + MinWordBlock per span, since
/// unsigned min is association-free. Spans partition [0, a.size()) in
/// order; the last may be short; span_min and skip_words hold
/// ceil(a.size() / span_elems) entries.
///
/// The bar: an empty `bars` means one common bar, `bar_offset`; otherwise
/// element i's bar is fl(bars[i] + bar_offset) (Alg. 7's per-query form,
/// with bar_offset = ρ), and bars.size() must equal a.size().
///
/// It records every element whose computed positive test fires —
/// fl(a[i] + ν_i) >= its bar — in index order, transforming only lockstep
/// groups holding a magnitude word below their span's skip word
/// skip_words[j] (MegaSkipWordThreshold contract; kMegaNeverSkipWord never
/// skips). For near-threshold chunks the scan rides along at about the
/// cost of the generation alone. Returns the total number of positives
/// found; only the first max_hits are stored in hits (a larger return value
/// signals the record is incomplete). Hit indices and ν payloads are
/// bit-identical to the FillUint64 + transform + compare-scan walk.
///
/// *skipped_out gets, per query, the number of elements whose magnitude
/// word's top 53 bits reached their span's skip word — a pure function of
/// the words and skip words, so it is dispatch-level-independent (unlike
/// the group-granular transform elisions, which vary with lane width) —
/// and 0 for a common bar.
std::size_t MegaFillMinScanSpans(
    BlockRng::State* state, std::size_t wpv, double b,
    std::span<const double> a, std::span<const double> bars,
    double bar_offset, const std::uint64_t* skip_words,
    std::size_t span_elems, std::uint64_t* span_min, FusedScanHit* hits,
    std::size_t max_hits, std::uint64_t* skipped_out);

// --- seeded streams ---------------------------------------------------------
//
// The Monte-Carlo trial walker (core/trial_walk.h) runs many fresh runs of
// one short window. A trial group's runs draw their base words from eight
// lane streams, and each run draws its ν from a substream of its own. Both
// kernels below give every stream one SIMD element and seed it in
// registers, BlockRng(seed)'s SplitMix64 expansion: FillLaneStreams steps
// the lane streams and stores their words side by side, and
// SeededFireMasks steps each run's substream, transforms each variate and
// compares it against the run's bars, and emits one fire bitmask per (run,
// bar).

/// Streams one FillLaneStreams call steps together: a trial group's lanes.
inline constexpr std::size_t kLaneStreams = 8;

/// The first `words` words of each of the kLaneStreams streams
/// Rng(seeds[L]), stepped together: word k of stream L goes to
/// out[kLaneStreams * k + L], so the k-th words of all the streams sit side
/// by side. seeds.size() must be kLaneStreams and out.size()
/// kLaneStreams * words. Bit-identical at every dispatch level to
/// Rng(seeds[L]).FillUint64 of `words` words for each L.
void FillLaneStreams(std::span<const std::uint64_t> seeds, std::size_t words,
                     std::span<std::uint64_t> out);

/// Bars per run one SeededFireMasks call can take.
inline constexpr std::size_t kMaxFireRows = 8;

/// Fire masks of many runs over one window (window.size() <= 64). The
/// runs number bars.size() / rows, and bars and fires hold `rows` rows of
/// one entry per run: run r's bar j is bars[j * runs + r], and bit i of
/// fires[j * runs + r] is set exactly when
///   window[i] + ν_i >= bars[j * runs + r]
/// in IEEE double arithmetic, evaluated in that form (so NaN never fires).
/// Run r's ν_0, ν_1, ... are the variates of the stream Rng(seeds[r]) in
/// order: with wpv = 2, Laplace::Centered(b).TransformBlock of its first
/// 2 * window.size() words; with wpv = 1, Exponential::FromScale(b)'s of
/// its first window.size() words; with wpv = 0 there is no ν (every ν_i is
/// 0.0) and `seeds` may be empty. Otherwise seeds holds one seed per run.
/// Bit-identical to that composition at every dispatch level. 1 <= rows
/// <= kMaxFireRows; fires.size() must equal bars.size().
void SeededFireMasks(std::span<const std::uint64_t> seeds, std::size_t wpv,
                     double b, std::span<const double> window,
                     std::size_t rows, std::span<const double> bars,
                     std::span<std::uint64_t> fires);

}  // namespace vec
}  // namespace svt

#endif  // SPARSEVEC_COMMON_VECMATH_H_
