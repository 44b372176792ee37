// Implementation notes
// --------------------
// The log kernel is the classic fdlibm reduction with the polynomial
// evaluated in one fixed Horner order:
//
//   Log: decompose x = 2^k * m with m in [sqrt(1/2), sqrt(2)) by integer
//   bit manipulation (exact), then with s = f/(2+f), f = m-1:
//     log(m) = f - (hfsq - s*(hfsq + R(s^2))),  R a degree-7 minimax poly,
//   recombined with k*ln2 in hi/lo parts. Subnormals are prescaled by
//   2^54 (exact) first.
//
// The AVX2 and AVX-512 lanes mirror the scalar lane operation for
// operation: every step is a correctly-rounded IEEE double op (+ - *) or
// an exact integer manipulation, and no FMA contraction can occur
// (explicit non-fused intrinsics here; -ffp-contract=off for the scalar
// lane, set in CMakeLists.txt). Lanes holding operands outside the fast
// path's domain (zero, subnormal, negative, non-finite) are patched with
// the scalar kernel after the vector store, so every special case has
// exactly one implementation. The AVX-512 lane additionally uses the exact
// integer<->double conversions AVX-512DQ provides (cvtepu64_pd /
// cvtepi64_pd) where the AVX2 lane rebuilds them from 32-bit halves —
// both are exact for the magnitudes involved, so the lanes agree bit for
// bit.

#include "common/vecmath.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "common/rng_lockstep.h"

#if (defined(__x86_64__) || defined(_M_X64)) && !defined(SVT_DISABLE_AVX2) && \
    (defined(__GNUC__) || defined(__clang__))
#define SVT_VECMATH_HAVE_AVX2 1
#include <immintrin.h>
#else
#define SVT_VECMATH_HAVE_AVX2 0
#endif

// The AVX-512 lane rides on the same toolchain requirements as AVX2 (and
// is pointless without it: dispatch is ordered). -DSVT_DISABLE_AVX512
// compiles just this lane out, for -mno-avx512f-style CI legs.
#if SVT_VECMATH_HAVE_AVX2 && !defined(SVT_DISABLE_AVX512)
#define SVT_VECMATH_HAVE_AVX512 1
#else
#define SVT_VECMATH_HAVE_AVX512 0
#endif

namespace svt {
namespace vec {

namespace {

// --- shared constants (bit-exact fdlibm values, written as hex floats) ---

constexpr double kLn2Hi = 0x1.62e42fee00000p-1;   // 6.93147180369123816490e-01
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;  // 1.90821492927058770002e-10

// log: reciprocal-free correction polynomial. fdlibm evaluates the
// compensated recombination around X = log(1+f) - f + f^2/2 but reaches X
// through s = f/(2+f) — a divider-latency chain that caps the vector
// lanes' throughput. We instead expand X = f^3 * R(f) directly, with R a
// degree-20 minimax fit (Chebyshev nodes, long-double fit) of
// (log(1+f) - f + f^2/2) / f^3 on f in [sqrt(1/2)-1, sqrt(2)-1]. Max
// absolute fit error ~9.7e-18 over the interval (R itself is ~0.26-0.43),
// i.e. far below one ulp of X's contribution; the measured end-to-end
// error of the full kernel stays under 1 ulp vs the infinitely precise
// log. Evaluated as an even/odd Horner split in w = f^2 (two independent
// chains, no division). Coefficient k is the f^k term of R.
constexpr double kQ0 = 0x1.5555555555555p-2;
constexpr double kQ1 = -0x1.0000000000007p-2;
constexpr double kQ2 = 0x1.99999999998d7p-3;
constexpr double kQ3 = -0x1.5555555553457p-3;
constexpr double kQ4 = 0x1.249249249e4a9p-3;
constexpr double kQ5 = -0x1.000000017c4eap-3;
constexpr double kQ6 = 0x1.c71c71bf5db12p-4;
constexpr double kQ7 = -0x1.9999989e9f8b5p-4;
constexpr double kQ8 = 0x1.745d1806bdea4p-4;
constexpr double kQ9 = -0x1.555582293998ep-4;
constexpr double kQ10 = 0x1.3b13c73c82083p-4;
constexpr double kQ11 = -0x1.248da6617d7e1p-4;
constexpr double kQ12 = 0x1.110a3cb814e7cp-4;
constexpr double kQ13 = -0x1.00471d25a052ap-4;
constexpr double kQ14 = 0x1.e3351b0b8a06ap-5;
constexpr double kQ15 = -0x1.c29e22cde6a1cp-5;
constexpr double kQ16 = 0x1.9ef55712af986p-5;
constexpr double kQ17 = -0x1.a4f2cb642aed7p-5;
constexpr double kQ18 = 0x1.e4de09bbb15acp-5;
constexpr double kQ19 = -0x1.ba0db7c5ec460p-5;
constexpr double kQ20 = 0x1.7d29370356709p-6;

// The SVT_MAX_DISPATCH cap, read once per process. Folded into
// DispatchLevelSupported() below so a capped level is indistinguishable
// from a missing one everywhere: auto-detection never picks it AND
// SetDispatchLevel() refuses it — a CI leg running with
// SVT_MAX_DISPATCH=avx2 on AVX-512 hardware therefore exercises the AVX2
// lane even through tests that iterate kAllDispatchLevels themselves.
DispatchLevel EnvDispatchCap() {
  static const DispatchLevel cap =
      ParseDispatchCap(std::getenv("SVT_MAX_DISPATCH"));
  return cap;
}

DispatchLevel DetectDispatchLevel() {
  // DispatchLevelSupported embeds the SVT_MAX_DISPATCH cap, so
  // SVT_MAX_DISPATCH=scalar pins the scalar lane.
  DispatchLevel best = DispatchLevel::kScalar;
  if (DispatchLevelSupported(DispatchLevel::kAvx2)) {
    best = DispatchLevel::kAvx2;
  }
  if (DispatchLevelSupported(DispatchLevel::kAvx512)) {
    best = DispatchLevel::kAvx512;
  }
  return best;
}

std::atomic<int>& ActiveLevelVar() {
  static std::atomic<int> level{static_cast<int>(DetectDispatchLevel())};
  return level;
}

}  // namespace

const char* DispatchLevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kAvx2:
      return "avx2";
    case DispatchLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool DispatchLevelSupported(DispatchLevel level) {
  // A level above the SVT_MAX_DISPATCH cap reads as unsupported, so both
  // auto-detection and SetDispatchLevel() honor the cap and capped-out
  // halves of cross-dispatch tests skip cleanly.
  if (level > EnvDispatchCap()) return false;
  switch (level) {
    case DispatchLevel::kScalar:
      return true;
    case DispatchLevel::kAvx2:
#if SVT_VECMATH_HAVE_AVX2
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case DispatchLevel::kAvx512:
#if SVT_VECMATH_HAVE_AVX512
      // F for the 512-bit kernels, DQ for the exact 64-bit int<->double
      // conversions and the 512-bit pd logic ops, VL for BlockRng's
      // 256-bit rotate variant. One predicate for the whole level keeps
      // "kAvx512 is active" meaning the same thing everywhere.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#else
      return false;
#endif
  }
  return false;
}

DispatchLevel ParseDispatchCap(const char* value) {
  // Unset/empty means "no cap" (the widest level is the cap).
  if (value == nullptr || value[0] == '\0') return DispatchLevel::kAvx512;
  std::string v(value);
  for (char& c : v) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (v == "scalar" || v == "0") return DispatchLevel::kScalar;
  if (v == "avx2" || v == "1") return DispatchLevel::kAvx2;
  if (v == "avx512" || v == "2") return DispatchLevel::kAvx512;
  // A present-but-unrecognized cap must fail loudly: treating a typo
  // ("avx-2", "AVX 2") as "no cap" would silently run the CI dispatch
  // legs uncapped while reporting green.
  SVT_CHECK(false) << "unrecognized SVT_MAX_DISPATCH value \"" << value
                   << "\" (expected scalar/avx2/avx512 or 0/1/2)";
  return DispatchLevel::kAvx512;  // unreachable
}

DispatchLevel ActiveDispatchLevel() {
  return static_cast<DispatchLevel>(
      ActiveLevelVar().load(std::memory_order_relaxed));
}

bool SetDispatchLevel(DispatchLevel level) {
  if (!DispatchLevelSupported(level)) return false;
  ActiveLevelVar().store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

double Log(double x) {
  uint64_t bits = std::bit_cast<uint64_t>(x);
  int64_t k = 0;
  if (bits < 0x0010000000000000ull || bits >= 0x7FF0000000000000ull) {
    if (bits << 1 == 0) {  // ±0
      return -std::numeric_limits<double>::infinity();
    }
    if (bits >> 63) {  // negative (incl. -inf): domain error
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (bits >= 0x7FF0000000000000ull) {  // +inf, NaN: propagate
      return x;
    }
    // Positive subnormal: prescale exactly into the normal range.
    x *= 0x1p54;
    k = -54;
    bits = std::bit_cast<uint64_t>(x);
  }
  // Normalize the significand into m in [sqrt(1/2), sqrt(2)): adding
  // 0x95F62 to the top of the mantissa field carries into the exponent
  // exactly when the significand is >= sqrt(2), in which case m takes the
  // halved binade (fdlibm's high-word trick, done on the full 64 bits —
  // the constant's low 32 bits are zero, so mantissa bits pass through).
  const uint64_t adj = bits + 0x0009'5F62'0000'0000ull;
  k += static_cast<int64_t>(adj >> 52) - 1023;
  const uint64_t mbits =
      (adj & 0x000F'FFFF'FFFF'FFFFull) + 0x3FE6'A09E'0000'0000ull;
  const double m = std::bit_cast<double>(mbits);

  // Reciprocal-free tail (see the kQ* block): X = f^3 * R(f) replaces
  // fdlibm's s = f/(2+f) chain; the compensated recombination around X is
  // unchanged. Even/odd Horner split in w = f^2 — the operation order
  // below is the pinned cross-lane contract (the SIMD lanes replay it
  // lane-wise with non-fused intrinsics; vecmath.cc builds with
  // -ffp-contract=off so no FMA contraction can split the lanes).
  const double f = m - 1.0;
  const double w = f * f;
  double re = kQ20;
  re = re * w + kQ18;
  re = re * w + kQ16;
  re = re * w + kQ14;
  re = re * w + kQ12;
  re = re * w + kQ10;
  re = re * w + kQ8;
  re = re * w + kQ6;
  re = re * w + kQ4;
  re = re * w + kQ2;
  re = re * w + kQ0;
  double ro = kQ19;
  ro = ro * w + kQ17;
  ro = ro * w + kQ15;
  ro = ro * w + kQ13;
  ro = ro * w + kQ11;
  ro = ro * w + kQ9;
  ro = ro * w + kQ7;
  ro = ro * w + kQ5;
  ro = ro * w + kQ3;
  ro = ro * w + kQ1;
  const double q = re + f * ro;
  const double x3r = (w * f) * q;
  const double hfsq = (0.5 * f) * f;
  const double dk = static_cast<double>(k);
  return dk * kLn2Hi - ((hfsq - (x3r + dk * kLn2Lo)) - f);
}

double NegLogUnitPositive(uint64_t word) {
  return -Log(Rng::ToUnitDoublePositive(word));
}

namespace {

// The word-pair → Laplace(0, b) transform of one element, shared by the
// fused passes' scalar lane and every SIMD lane's sub-width tail.
// Operation for operation the scalar body of LaplaceTransformBlock at
// mu = 0 — the fused passes are *defined* by this composition. The 0.0 +
// is that body's mu + and must stay: it turns a -0.0 product into +0.0,
// and the recorded ν carries those bits.
inline double LaplaceNuScalar(uint64_t w_mag, uint64_t w_sign, double b) {
  const double e = -Log(Rng::ToUnitDoublePositive(w_mag));
  const double be = b * e;
  const uint64_t flip = ~w_sign & 0x8000'0000'0000'0000ull;
  return 0.0 + std::bit_cast<double>(std::bit_cast<uint64_t>(be) ^ flip);
}

// The word → Exponential(b) transform of one element: one raw word per
// variate (no sign word; support [0, +inf)). Operation for operation the
// scalar body of ExponentialTransformBlock — the fused exponential passes
// are *defined* by this composition.
inline double ExpNuScalar(uint64_t word, double b) {
  return b * NegLogUnitPositive(word);
}

// --- fused passes: scalar lane --------------------------------------------
//
// The fused passes generate their words in-kernel from a BlockRng::State.
// State::words is the generator's SoA state flattened (words[w * 4 + lane]
// is state word w of lane `lane`), so the shared lockstep step primitives
// walk it directly. MegaNextWord is the scalar stream walker — operation
// for operation BlockRng::Next() on the snapshot, which is what makes the
// in-kernel stream bit-identical to FillUint64 (stream-neutrality).
//
// Each lane writes the pass once, as a template over its two axes: kWpv,
// the words per ν variate (2: Laplace, a magnitude then a sign word; 1:
// exponential, one word), and kPerQuery, the bar source (false: one common
// bar, bar_offset; true: fl(bars[e] + bar_offset) per element). Only the
// per-query form counts skipped elements.

inline uint64_t MegaNextWord(BlockRng::State* st) {
  const uint64_t r = lockstep::StepLaneSoA(st->words.data(), st->phase);
  st->phase = (st->phase + 1) & (BlockRng::kLanes - 1);
  return r;
}

// The scalar walk over elements [e, end) of one span, shared by the scalar
// lane and every SIMD lane's sub-group span tail: folds each element's
// magnitude word into the span minimum m (returned), skips the transform
// of every element whose magnitude word's top 53 bits reach skip_word (it
// provably cannot fire — MegaSkipWordThreshold contract) and records every
// firing element instead of stopping at the first.
template <size_t kWpv, bool kPerQuery>
inline uint64_t MegaScanElems(BlockRng::State* st, double b, const double* a,
                              const double* bars, double bar_offset,
                              uint64_t skip_word, size_t e, size_t end,
                              uint64_t m, FusedScanHit* hits, size_t max_hits,
                              size_t* found, uint64_t* skipped) {
  for (; e < end; ++e) {
    const uint64_t w_mag = MegaNextWord(st);
    uint64_t w_sign = 0;
    if constexpr (kWpv == 2) w_sign = MegaNextWord(st);
    m = std::min(m, w_mag);
    if ((w_mag >> 11) >= skip_word) {
      if constexpr (kPerQuery) ++*skipped;
      continue;
    }
    const double nu = kWpv == 2 ? LaplaceNuScalar(w_mag, w_sign, b)
                                : ExpNuScalar(w_mag, b);
    if (a[e] + nu >= (kPerQuery ? bars[e] + bar_offset : bar_offset)) {
      if (*found < max_hits) hits[*found] = {e, nu};
      ++*found;
    }
  }
  return m;
}

// Scalar lane: the element walk span by span, each span under its own skip
// word. Consumes the full count regardless of hits.
template <size_t kWpv, bool kPerQuery>
size_t MegaFillMinScanSpansScalar(BlockRng::State* st, double b,
                                  const double* a, const double* bars,
                                  double bar_offset,
                                  const uint64_t* skip_words, size_t count,
                                  size_t span_elems, uint64_t* span_min,
                                  FusedScanHit* hits, size_t max_hits,
                                  uint64_t* skipped_out) {
  size_t found = 0;
  uint64_t skipped = 0;
  for (size_t e = 0, span = 0; e < count; e += span_elems, ++span) {
    span_min[span] = MegaScanElems<kWpv, kPerQuery>(
        st, b, a, bars, bar_offset, skip_words[span], e,
        std::min(count, e + span_elems), UINT64_MAX, hits, max_hits, &found,
        &skipped);
  }
  *skipped_out = skipped;
  return found;
}

}  // namespace

#if SVT_VECMATH_HAVE_AVX2

namespace {

// 4-wide mirrors of Log() and the fused passes. Operand order and
// association replicate the scalar lane exactly; _mm256_{add,sub,mul}_pd
// are the same correctly-rounded IEEE operations, and no fused ops are
// used.

// The normal-path log body, shared by LogBlockAvx2 (which adds the
// special-lane patching) and the fused sampling kernel (whose inputs are
// always normal by construction). Inlined into same-target callers.
__attribute__((target("avx2"))) inline __m256d Log4Normal(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d ln2hi = _mm256_set1_pd(kLn2Hi), ln2lo = _mm256_set1_pd(kLn2Lo);

  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i adj =
      _mm256_add_epi64(bits, _mm256_set1_epi64x(0x0009'5F62'0000'0000ll));
  const __m256i k64 = _mm256_sub_epi64(_mm256_srli_epi64(adj, 52),
                                       _mm256_set1_epi64x(1023));
  const __m256i mbits = _mm256_add_epi64(
      _mm256_and_si256(adj, _mm256_set1_epi64x(0x000F'FFFF'FFFF'FFFFll)),
      _mm256_set1_epi64x(0x3FE6'A09E'0000'0000ll));
  const __m256d m = _mm256_castsi256_pd(mbits);

  // Reciprocal-free tail: the scalar lane's even/odd Horner split in
  // w = f^2, replayed operation for operation (see Log() and the kQ*
  // block). No division anywhere — the two Horner chains are mul/add only
  // and run in parallel.
  const __m256d f = _mm256_sub_pd(m, one);
  const __m256d w = _mm256_mul_pd(f, f);
  __m256d re = _mm256_set1_pd(kQ20);
  re = _mm256_add_pd(_mm256_mul_pd(re, w), _mm256_set1_pd(kQ18));
  re = _mm256_add_pd(_mm256_mul_pd(re, w), _mm256_set1_pd(kQ16));
  re = _mm256_add_pd(_mm256_mul_pd(re, w), _mm256_set1_pd(kQ14));
  re = _mm256_add_pd(_mm256_mul_pd(re, w), _mm256_set1_pd(kQ12));
  re = _mm256_add_pd(_mm256_mul_pd(re, w), _mm256_set1_pd(kQ10));
  re = _mm256_add_pd(_mm256_mul_pd(re, w), _mm256_set1_pd(kQ8));
  re = _mm256_add_pd(_mm256_mul_pd(re, w), _mm256_set1_pd(kQ6));
  re = _mm256_add_pd(_mm256_mul_pd(re, w), _mm256_set1_pd(kQ4));
  re = _mm256_add_pd(_mm256_mul_pd(re, w), _mm256_set1_pd(kQ2));
  re = _mm256_add_pd(_mm256_mul_pd(re, w), _mm256_set1_pd(kQ0));
  __m256d ro = _mm256_set1_pd(kQ19);
  ro = _mm256_add_pd(_mm256_mul_pd(ro, w), _mm256_set1_pd(kQ17));
  ro = _mm256_add_pd(_mm256_mul_pd(ro, w), _mm256_set1_pd(kQ15));
  ro = _mm256_add_pd(_mm256_mul_pd(ro, w), _mm256_set1_pd(kQ13));
  ro = _mm256_add_pd(_mm256_mul_pd(ro, w), _mm256_set1_pd(kQ11));
  ro = _mm256_add_pd(_mm256_mul_pd(ro, w), _mm256_set1_pd(kQ9));
  ro = _mm256_add_pd(_mm256_mul_pd(ro, w), _mm256_set1_pd(kQ7));
  ro = _mm256_add_pd(_mm256_mul_pd(ro, w), _mm256_set1_pd(kQ5));
  ro = _mm256_add_pd(_mm256_mul_pd(ro, w), _mm256_set1_pd(kQ3));
  ro = _mm256_add_pd(_mm256_mul_pd(ro, w), _mm256_set1_pd(kQ1));
  const __m256d q = _mm256_add_pd(re, _mm256_mul_pd(f, ro));
  const __m256d x3r = _mm256_mul_pd(_mm256_mul_pd(w, f), q);
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(half, f), f);

  // k64 -> packed int32 -> double (k fits in 32 bits).
  const __m256i klo = _mm256_shuffle_epi32(k64, 0xE8);  // [q.lo32 pairs]
  const __m128i k32 =
      _mm256_castsi256_si128(_mm256_permute4x64_epi64(klo, 0x08));
  const __m256d dk = _mm256_cvtepi32_pd(k32);

  // dk*ln2hi - ((hfsq - (x3r + dk*ln2lo)) - f)
  const __m256d inner = _mm256_add_pd(x3r, _mm256_mul_pd(dk, ln2lo));
  return _mm256_sub_pd(_mm256_mul_pd(dk, ln2hi),
                       _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
}

// Every SIMD kernel clears the upper vector state (_mm256_zeroupper) before
// its scalar tail or scalar delegation. The tails call the out-of-line
// scalar Log, which is SSE-encoded, and SSE code that runs while the upper
// halves are dirty pays a transition penalty on every instruction: on a
// 4-vCPU AVX-512 Xeon a 9-element Laplace transform took 530 ns against
// 44 ns for 8 elements. vzeroupper leaves the low 128 bits alone, so the
// tails compute the same values.
__attribute__((target("avx2"))) void LogBlockAvx2(const double* in,
                                                  double* out, size_t n) {
  const __m256d min_normal = _mm256_set1_pd(0x1p-1022);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(in + i);
    // Fast-path lanes: normal positive finite. Ordered compares reject NaN.
    const __m256d ok = _mm256_and_pd(_mm256_cmp_pd(x, min_normal, _CMP_GE_OQ),
                                     _mm256_cmp_pd(x, inf, _CMP_LT_OQ));
    const __m256d res = Log4Normal(x);
    const int good = _mm256_movemask_pd(ok);
    if (good == 0xF) {
      _mm256_storeu_pd(out + i, res);
    } else {
      alignas(32) double tmp[4];
      _mm256_store_pd(tmp, res);
      for (int lane = 0; lane < 4; ++lane) {
        if (!(good & (1 << lane))) tmp[lane] = Log(in[i + lane]);
      }
      _mm256_storeu_pd(out + i, _mm256_load_pd(tmp));
    }
  }
  _mm256_zeroupper();
  for (; i < n; ++i) out[i] = Log(in[i]);
}

// (double)v for v < 2^53, lane-wise, without AVX-512's cvtepu64_pd: split
// into 32-bit halves and rebuild through the 2^52 / 2^84 magic constants.
// Every step is exact, so the result is bit-identical to a scalar
// static_cast<double>(v).
__attribute__((target("avx2"))) inline __m256d U53ToDouble(__m256i v) {
  const __m256i lo = _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFFFFFFll));
  const __m256i hi = _mm256_srli_epi64(v, 32);
  const __m256d dlo = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(lo, _mm256_set1_epi64x(0x4330'0000'0000'0000ll))),
      _mm256_set1_pd(0x1p52));
  const __m256d dhi = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(hi, _mm256_set1_epi64x(0x4530'0000'0000'0000ll))),
      _mm256_set1_pd(0x1p84));
  return _mm256_add_pd(dhi, dlo);
}

__attribute__((target("avx2"))) void NegLogUnitPositiveAvx2(
    const uint64_t* words, size_t stride, double* out, size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d lattice = _mm256_set1_pd(0x1p-53);
  const __m256d neg = _mm256_set1_pd(-0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i w;
    if (stride == 1) {
      w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    } else {
      // Gather the even qwords of two consecutive vectors: unpacklo pairs
      // them as [w0 w4 w2 w6]; the permute restores index order.
      const __m256i v0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(words + 2 * i));
      const __m256i v1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(words + 2 * i + 4));
      w = _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(v0, v1), 0xD8);
    }
    // u = ((double)(w >> 11) + 1) * 2^-53, the ToUnitDoublePositive map:
    // u in (0, 1], always normal, so the log fast path covers every lane.
    const __m256d d = U53ToDouble(_mm256_srli_epi64(w, 11));
    const __m256d u = _mm256_mul_pd(_mm256_add_pd(d, one), lattice);
    _mm256_storeu_pd(out + i, _mm256_xor_pd(Log4Normal(u), neg));
  }
  _mm256_zeroupper();
  for (; i < n; ++i) {
    out[i] = -Log(Rng::ToUnitDoublePositive(words[i * stride]));
  }
}

__attribute__((target("avx2"))) void LaplaceTransformAvx2(
    const uint64_t* words, double mu, double b, double* out, size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d lattice = _mm256_set1_pd(0x1p-53);
  const __m256d neg = _mm256_set1_pd(-0.0);
  const __m256d vmu = _mm256_set1_pd(mu);
  const __m256d vb = _mm256_set1_pd(b);
  const __m256i sign_bit = _mm256_set1_epi64x(
      static_cast<int64_t>(0x8000'0000'0000'0000ull));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Two loads cover 4 (magnitude, sign) word pairs; unpack + permute
    // split them into index order.
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + 2 * i));
    const __m256i v1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(words + 2 * i + 4));
    const __m256i even =
        _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(v0, v1), 0xD8);
    const __m256i odd =
        _mm256_permute4x64_epi64(_mm256_unpackhi_epi64(v0, v1), 0xD8);

    const __m256d d = U53ToDouble(_mm256_srli_epi64(even, 11));
    const __m256d u = _mm256_mul_pd(_mm256_add_pd(d, one), lattice);
    const __m256d e = _mm256_xor_pd(Log4Normal(u), neg);
    const __m256d be = _mm256_mul_pd(vb, e);
    // Sign select: flip be's sign bit where the sign word's bit 63 is 0.
    const __m256d flip =
        _mm256_castsi256_pd(_mm256_andnot_si256(odd, sign_bit));
    _mm256_storeu_pd(out + i,
                     _mm256_add_pd(vmu, _mm256_xor_pd(be, flip)));
  }
  _mm256_zeroupper();
  for (; i < n; ++i) {
    const double e = -Log(Rng::ToUnitDoublePositive(words[2 * i]));
    const double be = b * e;
    const uint64_t flip = ~words[2 * i + 1] & 0x8000'0000'0000'0000ull;
    out[i] = mu + std::bit_cast<double>(std::bit_cast<uint64_t>(be) ^ flip);
  }
}

__attribute__((target("avx2"))) double MaxBlockAvx2(const double* in,
                                                    size_t n) {
  __m256d acc = _mm256_set1_pd(in[0]);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_max_pd(acc, _mm256_loadu_pd(in + i));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double m = std::max(std::max(lanes[0], lanes[1]),
                      std::max(lanes[2], lanes[3]));
  for (; i < n; ++i) m = std::max(m, in[i]);
  return m;
}

__attribute__((target("avx2"))) uint64_t MinWordBlockAvx2(
    const uint64_t* words, size_t stride, size_t n) {
  // Unsigned 64-bit min via the sign-flip trick over cmpgt_epi64.
  const __m256i flip = _mm256_set1_epi64x(
      static_cast<int64_t>(0x8000'0000'0000'0000ull));
  __m256i acc = _mm256_set1_epi64x(static_cast<int64_t>(words[0]));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i w;
    if (stride == 1) {
      w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    } else {
      const __m256i v0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(words + 2 * i));
      const __m256i v1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(words + 2 * i + 4));
      // Min is order-free: no need to restore index order after unpack.
      w = _mm256_unpacklo_epi64(v0, v1);
    }
    const __m256i gt =
        _mm256_cmpgt_epi64(_mm256_xor_si256(acc, flip),
                           _mm256_xor_si256(w, flip));
    acc = _mm256_blendv_epi8(acc, w, gt);
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t m = std::min(std::min(lanes[0], lanes[1]),
                        std::min(lanes[2], lanes[3]));
  for (; i < n; ++i) m = std::min(m, words[i * stride]);
  return m;
}

__attribute__((target("avx2"))) double MinBlockAvx2(const double* in,
                                                    size_t n) {
  __m256d acc = _mm256_set1_pd(in[0]);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_min_pd(acc, _mm256_loadu_pd(in + i));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double m = std::min(std::min(lanes[0], lanes[1]),
                      std::min(lanes[2], lanes[3]));
  for (; i < n; ++i) m = std::min(m, in[i]);
  return m;
}

// Quantized bound-code reductions: exact unsigned integer max/min, 16 (u16)
// or 32 (u8) codes per 256-bit op. Association-free, so the accumulator
// seeding with codes[0] (the MaxBlock idiom above) is harmless.
__attribute__((target("avx2"))) uint16_t QuantizedSpanMaxU16Avx2(
    const uint16_t* codes, size_t n) {
  __m256i acc = _mm256_set1_epi16(static_cast<short>(codes[0]));
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc = _mm256_max_epu16(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i)));
  }
  alignas(32) uint16_t lanes[16];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint16_t m = lanes[0];
  for (int lane = 1; lane < 16; ++lane) m = std::max(m, lanes[lane]);
  for (; i < n; ++i) m = std::max(m, codes[i]);
  return m;
}

__attribute__((target("avx2"))) uint16_t QuantizedSpanMinU16Avx2(
    const uint16_t* codes, size_t n) {
  __m256i acc = _mm256_set1_epi16(static_cast<short>(codes[0]));
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc = _mm256_min_epu16(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i)));
  }
  alignas(32) uint16_t lanes[16];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint16_t m = lanes[0];
  for (int lane = 1; lane < 16; ++lane) m = std::min(m, lanes[lane]);
  for (; i < n; ++i) m = std::min(m, codes[i]);
  return m;
}

__attribute__((target("avx2"))) uint8_t QuantizedSpanMaxU8Avx2(
    const uint8_t* codes, size_t n) {
  __m256i acc = _mm256_set1_epi8(static_cast<char>(codes[0]));
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc = _mm256_max_epu8(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i)));
  }
  alignas(32) uint8_t lanes[32];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint8_t m = lanes[0];
  for (int lane = 1; lane < 32; ++lane) m = std::max(m, lanes[lane]);
  for (; i < n; ++i) m = std::max(m, codes[i]);
  return m;
}

__attribute__((target("avx2"))) uint8_t QuantizedSpanMinU8Avx2(
    const uint8_t* codes, size_t n) {
  __m256i acc = _mm256_set1_epi8(static_cast<char>(codes[0]));
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc = _mm256_min_epu8(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i)));
  }
  alignas(32) uint8_t lanes[32];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint8_t m = lanes[0];
  for (int lane = 1; lane < 32; ++lane) m = std::min(m, lanes[lane]);
  for (; i < n; ++i) m = std::min(m, codes[i]);
  return m;
}

__attribute__((target("avx2"))) size_t FindFirstSumGeAvx2(const double* a,
                                                          const double* b,
                                                          double bar,
                                                          size_t n) {
  const __m256d vbar = _mm256_set1_pd(bar);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sum =
        _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(sum, vbar, _CMP_GE_OQ));
    if (mask != 0) {
      return i + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  for (; i < n; ++i) {
    if (a[i] + b[i] >= bar) return i;
  }
  return n;
}

__attribute__((target("avx2"))) size_t FindFirstGeAvx2(const double* a,
                                                       double bar, size_t n) {
  const __m256d vbar = _mm256_set1_pd(bar);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(a + i), vbar, _CMP_GE_OQ));
    if (mask != 0) {
      return i + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  for (; i < n; ++i) {
    if (a[i] >= bar) return i;
  }
  return n;
}

__attribute__((target("avx2"))) size_t FindFirstGePairwiseAvx2(
    const double* a, const double* bars, double rho, size_t n) {
  const __m256d vrho = _mm256_set1_pd(rho);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d bar = _mm256_add_pd(_mm256_loadu_pd(bars + i), vrho);
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(a + i), bar, _CMP_GE_OQ));
    if (mask != 0) {
      return i + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  for (; i < n; ++i) {
    if (a[i] >= bars[i] + rho) return i;
  }
  return n;
}

__attribute__((target("avx2"))) size_t FindFirstSumGePairwiseAvx2(
    const double* a, const double* b, const double* bars, double rho,
    size_t n) {
  const __m256d vrho = _mm256_set1_pd(rho);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sum =
        _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d bar = _mm256_add_pd(_mm256_loadu_pd(bars + i), vrho);
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(sum, bar, _CMP_GE_OQ));
    if (mask != 0) {
      return i + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  for (; i < n; ++i) {
    if (a[i] + b[i] >= bars[i] + rho) return i;
  }
  return n;
}

// One fused transform step: 4 consecutive (magnitude, sign) word pairs →
// 4 ν values, bit-identical to the operation sequence of
// LaplaceTransformAvx2 at mu = 0 — that identity is what makes the fused
// passes bit-identical to the FillUint64 + TransformBlock + FindFirst*
// walk. The words come straight from the lockstep step registers. One
// deliberate register-pressure optimization: `vnb` carries -b, so be =
// (-b)·log(u) replaces the reference's b·(-log(u)) — IEEE multiplication
// computes the sign as the XOR of the operand signs and the magnitude
// independently, so the product is bit-identical while the -0.0 constant
// and its xor drop out of the loop. The final add of +0.0 is the
// reference's mu + and must stay (see LaplaceNuScalar).
__attribute__((target("avx2"))) inline __m256d LaplaceNu4Avx2Reg(
    __m256i v0, __m256i v1, __m256d vnb) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d lattice = _mm256_set1_pd(0x1p-53);
  const __m256i sign_bit = _mm256_set1_epi64x(
      static_cast<int64_t>(0x8000'0000'0000'0000ull));
  const __m256i even =
      _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(v0, v1), 0xD8);
  const __m256i odd =
      _mm256_permute4x64_epi64(_mm256_unpackhi_epi64(v0, v1), 0xD8);
  const __m256d d = U53ToDouble(_mm256_srli_epi64(even, 11));
  const __m256d u = _mm256_mul_pd(_mm256_add_pd(d, one), lattice);
  const __m256d be = _mm256_mul_pd(vnb, Log4Normal(u));
  const __m256d flip = _mm256_castsi256_pd(_mm256_andnot_si256(odd, sign_bit));
  return _mm256_add_pd(_mm256_setzero_pd(), _mm256_xor_pd(be, flip));
}

// One fused exponential transform step: 4 consecutive raw words → 4 ν
// values, ν = b·(-log u). `vnb` carries -b so the body computes
// (-b)·log(u), bit-identical to the reference's b·(-log(u)) for the same
// reason as LaplaceNu4Avx2Reg (IEEE multiply: sign = xor of operand signs,
// magnitude independent of them). One word per variate, so no
// unpack/permute.
__attribute__((target("avx2"))) inline __m256d ExpNu4Avx2Reg(__m256i w,
                                                             __m256d vnb) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d lattice = _mm256_set1_pd(0x1p-53);
  const __m256d d = U53ToDouble(_mm256_srli_epi64(w, 11));
  const __m256d u = _mm256_mul_pd(_mm256_add_pd(d, one), lattice);
  return _mm256_mul_pd(vnb, Log4Normal(u));
}

__attribute__((target("avx2"))) inline __m256d ExpNu4Avx2(
    const uint64_t* words, __m256d vnb) {
  return ExpNu4Avx2Reg(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words)), vnb);
}

__attribute__((target("avx2"))) void ExponentialTransformAvx2(
    const uint64_t* words, double b, double* out, size_t n) {
  const __m256d vnb = _mm256_set1_pd(-b);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, ExpNu4Avx2(words + i, vnb));
  }
  _mm256_zeroupper();
  for (; i < n; ++i) out[i] = ExpNuScalar(words[i], b);
}

// --- fused passes: AVX2 lane ----------------------------------------------
//
// The four xoshiro lanes live in registers (one lockstep::Step4Avx2 call
// advances all four and yields the next four stream words), each group of
// 4 elements consumes kWpv steps, and the freshly stepped words feed the
// Reg transform bodies above — words never touch memory. Entry requires a
// lane-aligned stream position (phase == 0; the dispatch entry point
// delegates the whole call to the scalar lane otherwise).

__attribute__((target("avx2"))) inline void MegaStoreAvx2(
    BlockRng::State* st, __m256i s0, __m256i s1, __m256i s2, __m256i s3) {
  uint64_t* w = st->words.data();
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(w), s0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(w + 4), s1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(w + 8), s2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(w + 12), s3);
  st->phase = 0;
}

__attribute__((target("avx2"))) inline __m256i MinU64Avx2(__m256i a,
                                                          __m256i b) {
  // Unsigned 64-bit min via the sign-flip trick over cmpgt_epi64, as in
  // MinWordBlockAvx2.
  const __m256i flip = _mm256_set1_epi64x(
      static_cast<int64_t>(0x8000'0000'0000'0000ull));
  const __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, flip),
                                        _mm256_xor_si256(b, flip));
  return _mm256_blendv_epi8(a, b, gt);
}

// Records one lockstep group's hits in lane order: bit k of mask means
// element e + k fired with ν nus[k]. Only the first max_hits are stored;
// *found counts them all.
inline void MegaRecordHits(unsigned mask, const double* nus, size_t e,
                           FusedScanHit* hits, size_t max_hits,
                           size_t* found) {
  do {
    const int lane = __builtin_ctz(mask);
    if (*found < max_hits) {
      hits[*found] = {e + static_cast<size_t>(lane), nus[lane]};
    }
    ++*found;
    mask &= mask - 1;
  } while (mask != 0);
}

// Fused generate-bound-and-scan lane: a register walk keeping each span's
// minimum magnitude word, with the positive test behind a group skip
// test. Each group's magnitude words are tested against the span's skip
// word first — one shift, one compare, one movemask — and the whole
// transform-and-test body is bypassed when no word is below it. Skip words
// never exceed 2^53 + 1 (MegaSkipWordThreshold contract, checked at the
// entry) and the shifted words are at most 2^53 - 1, so both sides are
// non-negative as signed 64-bit values and cmpgt_epi64 is an unsigned
// compare. Mixed groups run the full body: above-threshold lanes provably
// cannot satisfy the computed positive test. The per-query skipped count
// comes from the group live masks; it is element-granular, what the scalar
// lane's per-element test produces whatever the lane width. Every hit
// lane's ν is already in the group's nu vector, and the walk never stops
// early, so it consumes exactly count * kWpv words.
template <size_t kWpv, bool kPerQuery>
__attribute__((target("avx2"))) size_t MegaFillMinScanSpansAvx2(
    BlockRng::State* st, double b, const double* a, const double* bars,
    double bar_offset, const uint64_t* skip_words, size_t count,
    size_t span_elems, uint64_t* span_min, FusedScanHit* hits,
    size_t max_hits, uint64_t* skipped_out) {
  const __m256d vnb = _mm256_set1_pd(-b);
  const __m256d voff = _mm256_set1_pd(bar_offset);
  uint64_t* w = st->words.data();
  __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
  __m256i s1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 4));
  __m256i s2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 8));
  __m256i s3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 12));
  uint64_t skipped = 0;
  size_t found = 0;
  size_t e = 0;
  size_t span = 0;
  while (e < count) {
    const size_t span_end = std::min(count, e + span_elems);
    const __m256i vskip =
        _mm256_set1_epi64x(static_cast<int64_t>(skip_words[span]));
    __m256i acc = _mm256_set1_epi64x(-1);
    for (; e + 4 <= span_end; e += 4) {
      const __m256i v0 = lockstep::Step4Avx2(s0, s1, s2, s3);
      __m256i v1 = v0;
      if constexpr (kWpv == 2) v1 = lockstep::Step4Avx2(s0, s1, s2, s3);
      // Magnitude words (order-free for min, any-live, and the count).
      const __m256i mags = kWpv == 2 ? _mm256_unpacklo_epi64(v0, v1) : v0;
      acc = MinU64Avx2(acc, mags);
      const int live = _mm256_movemask_pd(_mm256_castsi256_pd(
          _mm256_cmpgt_epi64(vskip, _mm256_srli_epi64(mags, 11))));
      if constexpr (kPerQuery) {
        skipped += 4 - static_cast<unsigned>(
                           __builtin_popcount(static_cast<unsigned>(live)));
      }
      if (live == 0) continue;
      const __m256d nu = kWpv == 2 ? LaplaceNu4Avx2Reg(v0, v1, vnb)
                                   : ExpNu4Avx2Reg(v0, vnb);
      const __m256d sum = _mm256_add_pd(_mm256_loadu_pd(a + e), nu);
      const __m256d bar =
          kPerQuery ? _mm256_add_pd(_mm256_loadu_pd(bars + e), voff) : voff;
      const int mask = _mm256_movemask_pd(_mm256_cmp_pd(sum, bar, _CMP_GE_OQ));
      if (mask != 0) {
        alignas(32) double nus[4];
        _mm256_store_pd(nus, nu);
        MegaRecordHits(static_cast<unsigned>(mask), nus, e, hits, max_hits,
                       &found);
      }
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    uint64_t m = std::min(std::min(lanes[0], lanes[1]),
                          std::min(lanes[2], lanes[3]));
    if (e < span_end) {
      // Sub-group span tail: only the final span can be short (dispatch
      // entry point guarantee), so spilling to scalar ends the call.
      MegaStoreAvx2(st, s0, s1, s2, s3);
      _mm256_zeroupper();
      span_min[span] = MegaScanElems<kWpv, kPerQuery>(
          st, b, a, bars, bar_offset, skip_words[span], e, span_end, m, hits,
          max_hits, &found, &skipped);
      *skipped_out = skipped;
      return found;
    }
    span_min[span] = m;
    ++span;
  }
  MegaStoreAvx2(st, s0, s1, s2, s3);
  *skipped_out = skipped;
  return found;
}

// Skipped-word count over words already in memory: the fused lanes'
// shift/compare/popcount over a filled word buffer (element words are
// every wpv-th, starting at the first; the wpv == 2 unpack is order-free
// for counting).

__attribute__((target("avx2"))) size_t SkipWordCountBlockAvx2(
    const uint64_t* words, size_t n, size_t wpv, uint64_t skip_word) {
  const __m256i vskip = _mm256_set1_epi64x(static_cast<int64_t>(skip_word));
  size_t c = 0;
  size_t i = 0;
  if (wpv == 2) {
    for (; i + 8 <= n; i += 8) {
      const __m256i v0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
      const __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i + 4));
      const __m256i mag53 =
          _mm256_srli_epi64(_mm256_unpacklo_epi64(v0, v1), 11);
      const __m256i live = _mm256_cmpgt_epi64(vskip, mag53);
      const int lmask = _mm256_movemask_pd(_mm256_castsi256_pd(live));
      c += 4 - static_cast<unsigned>(
                   __builtin_popcount(static_cast<unsigned>(lmask)));
    }
  } else {
    for (; i + 4 <= n; i += 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
      const __m256i live = _mm256_cmpgt_epi64(vskip, _mm256_srli_epi64(v, 11));
      const int lmask = _mm256_movemask_pd(_mm256_castsi256_pd(live));
      c += 4 - static_cast<unsigned>(
                   __builtin_popcount(static_cast<unsigned>(lmask)));
    }
  }
  for (; i < n; i += wpv) c += (words[i] >> 11) >= skip_word;
  return c;
}

}  // namespace

#endif  // SVT_VECMATH_HAVE_AVX2

#if SVT_VECMATH_HAVE_AVX512

// GCC's AVX-512 intrinsic headers initialize "undefined" vectors with a
// self-read (`__m512i __Y = __Y;`), which -Wmaybe-uninitialized flags
// through inlining on GCC 12 — and which surfaces as plain -Wuninitialized
// when a helper grows past the inlining budget and gets a standalone body.
// Header-internal false positive; silence both for this lane only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

namespace {

// 8-wide mirrors of Log() and the fused passes. Operand order and
// association replicate the scalar lane exactly; _mm512_{add,sub,mul}_pd
// are the same correctly-rounded IEEE operations, and no fused ops are
// used. Integer<->double conversions go through AVX-512DQ's exact
// instructions (the values involved always fit in 53 bits).

__attribute__((target("avx512f,avx512dq"))) inline __m512d Log8Normal(
    __m512d x) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d ln2hi = _mm512_set1_pd(kLn2Hi), ln2lo = _mm512_set1_pd(kLn2Lo);

  const __m512i bits = _mm512_castpd_si512(x);
  const __m512i adj =
      _mm512_add_epi64(bits, _mm512_set1_epi64(0x0009'5F62'0000'0000ll));
  const __m512i k64 = _mm512_sub_epi64(_mm512_srli_epi64(adj, 52),
                                       _mm512_set1_epi64(1023));
  const __m512i mbits = _mm512_add_epi64(
      _mm512_and_si512(adj, _mm512_set1_epi64(0x000F'FFFF'FFFF'FFFFll)),
      _mm512_set1_epi64(0x3FE6'A09E'0000'0000ll));
  const __m512d m = _mm512_castsi512_pd(mbits);

  // Reciprocal-free tail: the scalar lane's even/odd Horner split in
  // w = f^2, replayed operation for operation (see Log() and the kQ*
  // block). The divider dependency this removes was the throughput cap on
  // this lane — vdivpd on a 512-bit vector is unpipelined for most of its
  // latency, while the two Horner chains below are pure mul/add.
  const __m512d f = _mm512_sub_pd(m, one);
  const __m512d w = _mm512_mul_pd(f, f);
  __m512d re = _mm512_set1_pd(kQ20);
  re = _mm512_add_pd(_mm512_mul_pd(re, w), _mm512_set1_pd(kQ18));
  re = _mm512_add_pd(_mm512_mul_pd(re, w), _mm512_set1_pd(kQ16));
  re = _mm512_add_pd(_mm512_mul_pd(re, w), _mm512_set1_pd(kQ14));
  re = _mm512_add_pd(_mm512_mul_pd(re, w), _mm512_set1_pd(kQ12));
  re = _mm512_add_pd(_mm512_mul_pd(re, w), _mm512_set1_pd(kQ10));
  re = _mm512_add_pd(_mm512_mul_pd(re, w), _mm512_set1_pd(kQ8));
  re = _mm512_add_pd(_mm512_mul_pd(re, w), _mm512_set1_pd(kQ6));
  re = _mm512_add_pd(_mm512_mul_pd(re, w), _mm512_set1_pd(kQ4));
  re = _mm512_add_pd(_mm512_mul_pd(re, w), _mm512_set1_pd(kQ2));
  re = _mm512_add_pd(_mm512_mul_pd(re, w), _mm512_set1_pd(kQ0));
  __m512d ro = _mm512_set1_pd(kQ19);
  ro = _mm512_add_pd(_mm512_mul_pd(ro, w), _mm512_set1_pd(kQ17));
  ro = _mm512_add_pd(_mm512_mul_pd(ro, w), _mm512_set1_pd(kQ15));
  ro = _mm512_add_pd(_mm512_mul_pd(ro, w), _mm512_set1_pd(kQ13));
  ro = _mm512_add_pd(_mm512_mul_pd(ro, w), _mm512_set1_pd(kQ11));
  ro = _mm512_add_pd(_mm512_mul_pd(ro, w), _mm512_set1_pd(kQ9));
  ro = _mm512_add_pd(_mm512_mul_pd(ro, w), _mm512_set1_pd(kQ7));
  ro = _mm512_add_pd(_mm512_mul_pd(ro, w), _mm512_set1_pd(kQ5));
  ro = _mm512_add_pd(_mm512_mul_pd(ro, w), _mm512_set1_pd(kQ3));
  ro = _mm512_add_pd(_mm512_mul_pd(ro, w), _mm512_set1_pd(kQ1));
  const __m512d q = _mm512_add_pd(re, _mm512_mul_pd(f, ro));
  const __m512d x3r = _mm512_mul_pd(_mm512_mul_pd(w, f), q);
  const __m512d hfsq = _mm512_mul_pd(_mm512_mul_pd(half, f), f);
  // Exact int64 -> double (|k| <= ~1100): same value the AVX2 lane builds
  // from 32-bit halves.
  const __m512d dk = _mm512_cvtepi64_pd(k64);

  // dk*ln2hi - ((hfsq - (x3r + dk*ln2lo)) - f)
  const __m512d inner = _mm512_add_pd(x3r, _mm512_mul_pd(dk, ln2lo));
  return _mm512_sub_pd(_mm512_mul_pd(dk, ln2hi),
                       _mm512_sub_pd(_mm512_sub_pd(hfsq, inner), f));
}

__attribute__((target("avx512f,avx512dq"))) void LogBlockAvx512(
    const double* in, double* out, size_t n) {
  const __m512d min_normal = _mm512_set1_pd(0x1p-1022);
  const __m512d inf = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d x = _mm512_loadu_pd(in + i);
    // Fast-path lanes: normal positive finite. Ordered compares reject NaN.
    const __mmask8 good =
        _mm512_cmp_pd_mask(x, min_normal, _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(x, inf, _CMP_LT_OQ);
    const __m512d res = Log8Normal(x);
    if (good == 0xFF) {
      _mm512_storeu_pd(out + i, res);
    } else {
      alignas(64) double tmp[8];
      _mm512_store_pd(tmp, res);
      for (int lane = 0; lane < 8; ++lane) {
        if (!(good & (1 << lane))) tmp[lane] = Log(in[i + lane]);
      }
      _mm512_storeu_pd(out + i, _mm512_load_pd(tmp));
    }
  }
  _mm256_zeroupper();
  for (; i < n; ++i) out[i] = Log(in[i]);
}

// Gather indices for splitting 4 consecutive (even, odd) qword pairs
// spread over two 512-bit vectors back into index order.
__attribute__((target("avx512f,avx512dq"))) inline __m512i EvenIdx512() {
  return _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
}
__attribute__((target("avx512f,avx512dq"))) inline __m512i OddIdx512() {
  return _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
}

__attribute__((target("avx512f,avx512dq"))) void NegLogUnitPositiveAvx512(
    const uint64_t* words, size_t stride, double* out, size_t n) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d lattice = _mm512_set1_pd(0x1p-53);
  const __m512d neg = _mm512_set1_pd(-0.0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i w;
    if (stride == 1) {
      w = _mm512_loadu_si512(words + i);
    } else {
      const __m512i v0 = _mm512_loadu_si512(words + 2 * i);
      const __m512i v1 = _mm512_loadu_si512(words + 2 * i + 8);
      w = _mm512_permutex2var_epi64(v0, EvenIdx512(), v1);
    }
    // u = ((double)(w >> 11) + 1) * 2^-53, the ToUnitDoublePositive map:
    // u in (0, 1], always normal, so the log fast path covers every lane.
    const __m512d d = _mm512_cvtepu64_pd(_mm512_srli_epi64(w, 11));
    const __m512d u = _mm512_mul_pd(_mm512_add_pd(d, one), lattice);
    _mm512_storeu_pd(out + i, _mm512_xor_pd(Log8Normal(u), neg));
  }
  _mm256_zeroupper();
  for (; i < n; ++i) {
    out[i] = -Log(Rng::ToUnitDoublePositive(words[i * stride]));
  }
}

__attribute__((target("avx512f,avx512dq"))) void LaplaceTransformAvx512(
    const uint64_t* words, double mu, double b, double* out, size_t n) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d lattice = _mm512_set1_pd(0x1p-53);
  const __m512d neg = _mm512_set1_pd(-0.0);
  const __m512d vmu = _mm512_set1_pd(mu);
  const __m512d vb = _mm512_set1_pd(b);
  const __m512i sign_bit = _mm512_set1_epi64(
      static_cast<int64_t>(0x8000'0000'0000'0000ull));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v0 = _mm512_loadu_si512(words + 2 * i);
    const __m512i v1 = _mm512_loadu_si512(words + 2 * i + 8);
    const __m512i even = _mm512_permutex2var_epi64(v0, EvenIdx512(), v1);
    const __m512i odd = _mm512_permutex2var_epi64(v0, OddIdx512(), v1);

    const __m512d d = _mm512_cvtepu64_pd(_mm512_srli_epi64(even, 11));
    const __m512d u = _mm512_mul_pd(_mm512_add_pd(d, one), lattice);
    const __m512d e = _mm512_xor_pd(Log8Normal(u), neg);
    const __m512d be = _mm512_mul_pd(vb, e);
    // Sign select: flip be's sign bit where the sign word's bit 63 is 0.
    const __m512d flip =
        _mm512_castsi512_pd(_mm512_andnot_si512(odd, sign_bit));
    _mm512_storeu_pd(out + i,
                     _mm512_add_pd(vmu, _mm512_xor_pd(be, flip)));
  }
  _mm256_zeroupper();
  for (; i < n; ++i) {
    const double e = -Log(Rng::ToUnitDoublePositive(words[2 * i]));
    const double be = b * e;
    const uint64_t flip = ~words[2 * i + 1] & 0x8000'0000'0000'0000ull;
    out[i] = mu + std::bit_cast<double>(std::bit_cast<uint64_t>(be) ^ flip);
  }
}

__attribute__((target("avx512f,avx512dq"))) double MaxBlockAvx512(
    const double* in, size_t n) {
  __m512d acc = _mm512_set1_pd(in[0]);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_max_pd(acc, _mm512_loadu_pd(in + i));
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  double m = lanes[0];
  for (int lane = 1; lane < 8; ++lane) m = std::max(m, lanes[lane]);
  for (; i < n; ++i) m = std::max(m, in[i]);
  return m;
}

__attribute__((target("avx512f,avx512dq"))) uint64_t MinWordBlockAvx512(
    const uint64_t* words, size_t stride, size_t n) {
  __m512i acc = _mm512_set1_epi64(static_cast<int64_t>(words[0]));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i w;
    if (stride == 1) {
      w = _mm512_loadu_si512(words + i);
    } else {
      const __m512i v0 = _mm512_loadu_si512(words + 2 * i);
      const __m512i v1 = _mm512_loadu_si512(words + 2 * i + 8);
      w = _mm512_permutex2var_epi64(v0, EvenIdx512(), v1);
    }
    acc = _mm512_min_epu64(acc, w);
  }
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  uint64_t m = lanes[0];
  for (int lane = 1; lane < 8; ++lane) m = std::min(m, lanes[lane]);
  for (; i < n; ++i) m = std::min(m, words[i * stride]);
  return m;
}

__attribute__((target("avx512f,avx512dq"))) double MinBlockAvx512(
    const double* in, size_t n) {
  __m512d acc = _mm512_set1_pd(in[0]);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_min_pd(acc, _mm512_loadu_pd(in + i));
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  double m = lanes[0];
  for (int lane = 1; lane < 8; ++lane) m = std::min(m, lanes[lane]);
  for (; i < n; ++i) m = std::min(m, in[i]);
  return m;
}

__attribute__((target("avx512f,avx512dq"))) size_t FindFirstSumGeAvx512(
    const double* a, const double* b, double bar, size_t n) {
  const __m512d vbar = _mm512_set1_pd(bar);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d sum =
        _mm512_add_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
    const __mmask8 mask = _mm512_cmp_pd_mask(sum, vbar, _CMP_GE_OQ);
    if (mask != 0) {
      return i + static_cast<size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (; i < n; ++i) {
    if (a[i] + b[i] >= bar) return i;
  }
  return n;
}

__attribute__((target("avx512f,avx512dq"))) size_t FindFirstGeAvx512(
    const double* a, double bar, size_t n) {
  const __m512d vbar = _mm512_set1_pd(bar);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __mmask8 mask =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(a + i), vbar, _CMP_GE_OQ);
    if (mask != 0) {
      return i + static_cast<size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (; i < n; ++i) {
    if (a[i] >= bar) return i;
  }
  return n;
}

__attribute__((target("avx512f,avx512dq"))) size_t FindFirstGePairwiseAvx512(
    const double* a, const double* bars, double rho, size_t n) {
  const __m512d vrho = _mm512_set1_pd(rho);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d bar = _mm512_add_pd(_mm512_loadu_pd(bars + i), vrho);
    const __mmask8 mask =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(a + i), bar, _CMP_GE_OQ);
    if (mask != 0) {
      return i + static_cast<size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (; i < n; ++i) {
    if (a[i] >= bars[i] + rho) return i;
  }
  return n;
}

__attribute__((target("avx512f,avx512dq"))) size_t
FindFirstSumGePairwiseAvx512(const double* a, const double* b,
                             const double* bars, double rho, size_t n) {
  const __m512d vrho = _mm512_set1_pd(rho);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d sum =
        _mm512_add_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
    const __m512d bar = _mm512_add_pd(_mm512_loadu_pd(bars + i), vrho);
    const __mmask8 mask = _mm512_cmp_pd_mask(sum, bar, _CMP_GE_OQ);
    if (mask != 0) {
      return i + static_cast<size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (; i < n; ++i) {
    if (a[i] + b[i] >= bars[i] + rho) return i;
  }
  return n;
}

// 8-wide fused transform step, mirroring LaplaceTransformAvx512 at mu = 0
// operation for operation, with the same bit-identical (-b)·log(u) fold
// and kept +0.0 add as LaplaceNu4Avx2Reg (see there for why both hold).
__attribute__((target("avx512f,avx512dq"))) inline __m512d LaplaceNu8Avx512Reg(
    __m512i v0, __m512i v1, __m512d vnb) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d lattice = _mm512_set1_pd(0x1p-53);
  const __m512i sign_bit = _mm512_set1_epi64(
      static_cast<int64_t>(0x8000'0000'0000'0000ull));
  const __m512i even = _mm512_permutex2var_epi64(v0, EvenIdx512(), v1);
  const __m512i odd = _mm512_permutex2var_epi64(v0, OddIdx512(), v1);
  const __m512d d = _mm512_cvtepu64_pd(_mm512_srli_epi64(even, 11));
  const __m512d u = _mm512_mul_pd(_mm512_add_pd(d, one), lattice);
  const __m512d be = _mm512_mul_pd(vnb, Log8Normal(u));
  const __m512d flip = _mm512_castsi512_pd(_mm512_andnot_si512(odd, sign_bit));
  return _mm512_add_pd(_mm512_setzero_pd(), _mm512_xor_pd(be, flip));
}

// 8-wide fused exponential transform step, mirroring ExpNu4Avx2Reg (see
// there for the bit-identical (-b)·log(u) fold).
__attribute__((target("avx512f,avx512dq"))) inline __m512d ExpNu8Avx512Reg(
    __m512i w, __m512d vnb) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d lattice = _mm512_set1_pd(0x1p-53);
  const __m512d d = _mm512_cvtepu64_pd(_mm512_srli_epi64(w, 11));
  const __m512d u = _mm512_mul_pd(_mm512_add_pd(d, one), lattice);
  return _mm512_mul_pd(vnb, Log8Normal(u));
}

__attribute__((target("avx512f,avx512dq"))) inline __m512d ExpNu8Avx512(
    const uint64_t* words, __m512d vnb) {
  return ExpNu8Avx512Reg(_mm512_loadu_si512(words), vnb);
}

__attribute__((target("avx512f,avx512dq"))) void ExponentialTransformAvx512(
    const uint64_t* words, double b, double* out, size_t n) {
  const __m512d vnb = _mm512_set1_pd(-b);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i, ExpNu8Avx512(words + i, vnb));
  }
  _mm256_zeroupper();
  for (; i < n; ++i) out[i] = ExpNuScalar(words[i], b);
}

// --- fused passes: AVX-512 lane -------------------------------------------
//
// Same structure as the AVX2 lane: the four xoshiro lanes live in 256-bit
// registers (lockstep::Step4Avx512 — needs AVX-512VL for the native
// rotate, hence the extended target), each group of 8 elements consumes
// 2*kWpv steps, and two step results are concatenated into the 512-bit
// word vectors the Reg transform bodies expect, in stream order (step k's
// four outputs are stream words 4k..4k+3). Entry requires phase == 0.
//
// The walk is the AVX2 lane's, with the group skip test as one unsigned
// compare mask over the top 53 bits of the group's magnitude words; a zero
// mask bypasses the whole transform-and-test body. Hit lanes' ν values
// come straight out of the group's nu vector, and the walk never stops
// early, so it consumes exactly count * kWpv words.

template <size_t kWpv, bool kPerQuery>
__attribute__((target("avx512f,avx512dq,avx512vl"))) size_t
MegaFillMinScanSpansAvx512(BlockRng::State* st, double b, const double* a,
                           const double* bars, double bar_offset,
                           const uint64_t* skip_words, size_t count,
                           size_t span_elems, uint64_t* span_min,
                           FusedScanHit* hits, size_t max_hits,
                           uint64_t* skipped_out) {
  const __m512d vnb = _mm512_set1_pd(-b);
  const __m512d voff = _mm512_set1_pd(bar_offset);
  uint64_t* w = st->words.data();
  __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
  __m256i s1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 4));
  __m256i s2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 8));
  __m256i s3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 12));
  uint64_t skipped = 0;
  size_t found = 0;
  size_t e = 0;
  size_t span = 0;
  while (e < count) {
    const size_t span_end = std::min(count, e + span_elems);
    const __m512i vskip =
        _mm512_set1_epi64(static_cast<int64_t>(skip_words[span]));
    __m512i acc = _mm512_set1_epi64(-1);
    for (; e + 8 <= span_end; e += 8) {
      const __m256i r0 = lockstep::Step4Avx512(s0, s1, s2, s3);
      const __m256i r1 = lockstep::Step4Avx512(s0, s1, s2, s3);
      const __m512i v0 = _mm512_inserti64x4(_mm512_castsi256_si512(r0), r1, 1);
      __m512i v1 = v0;
      if constexpr (kWpv == 2) {
        const __m256i r2 = lockstep::Step4Avx512(s0, s1, s2, s3);
        const __m256i r3 = lockstep::Step4Avx512(s0, s1, s2, s3);
        v1 = _mm512_inserti64x4(_mm512_castsi256_si512(r2), r3, 1);
      }
      // Magnitude words (order-free for min, any-live, and the count).
      const __m512i mags = kWpv == 2 ? _mm512_unpacklo_epi64(v0, v1) : v0;
      acc = _mm512_min_epu64(acc, mags);
      const __mmask8 live =
          _mm512_cmplt_epu64_mask(_mm512_srli_epi64(mags, 11), vskip);
      if constexpr (kPerQuery) {
        skipped += 8 - static_cast<unsigned>(
                           __builtin_popcount(static_cast<unsigned>(live)));
      }
      if (live == 0) continue;
      const __m512d nu = kWpv == 2 ? LaplaceNu8Avx512Reg(v0, v1, vnb)
                                   : ExpNu8Avx512Reg(v0, vnb);
      const __m512d sum = _mm512_add_pd(_mm512_loadu_pd(a + e), nu);
      const __m512d bar =
          kPerQuery ? _mm512_add_pd(_mm512_loadu_pd(bars + e), voff) : voff;
      const unsigned mask = _mm512_cmp_pd_mask(sum, bar, _CMP_GE_OQ);
      if (mask != 0) {
        alignas(64) double nus[8];
        _mm512_store_pd(nus, nu);
        MegaRecordHits(mask, nus, e, hits, max_hits, &found);
      }
    }
    alignas(64) uint64_t lanes[8];
    _mm512_store_si512(lanes, acc);
    uint64_t m = lanes[0];
    for (int lane = 1; lane < 8; ++lane) m = std::min(m, lanes[lane]);
    if (e < span_end) {
      // Sub-group span tail: only the final span can be short (dispatch
      // entry point guarantee), so spilling to scalar ends the call.
      MegaStoreAvx2(st, s0, s1, s2, s3);
      _mm256_zeroupper();
      span_min[span] = MegaScanElems<kWpv, kPerQuery>(
          st, b, a, bars, bar_offset, skip_words[span], e, span_end, m, hits,
          max_hits, &found, &skipped);
      *skipped_out = skipped;
      return found;
    }
    span_min[span] = m;
    ++span;
  }
  MegaStoreAvx2(st, s0, s1, s2, s3);
  *skipped_out = skipped;
  return found;
}

// Skipped-word count over words already in memory, at 8-wide.

__attribute__((target("avx512f,avx512dq,avx512vl"))) size_t
SkipWordCountBlockAvx512(const uint64_t* words, size_t n, size_t wpv,
                         uint64_t skip_word) {
  const __m512i vskip = _mm512_set1_epi64(static_cast<int64_t>(skip_word));
  size_t c = 0;
  size_t i = 0;
  if (wpv == 2) {
    for (; i + 16 <= n; i += 16) {
      const __m512i v0 = _mm512_loadu_si512(words + i);
      const __m512i v1 = _mm512_loadu_si512(words + i + 8);
      const __m512i mag53 =
          _mm512_srli_epi64(_mm512_unpacklo_epi64(v0, v1), 11);
      const __mmask8 live = _mm512_cmplt_epu64_mask(mag53, vskip);
      c += 8 - static_cast<unsigned>(
                   __builtin_popcount(static_cast<unsigned>(live)));
    }
  } else {
    for (; i + 8 <= n; i += 8) {
      const __m512i v = _mm512_loadu_si512(words + i);
      const __mmask8 live =
          _mm512_cmplt_epu64_mask(_mm512_srli_epi64(v, 11), vskip);
      c += 8 - static_cast<unsigned>(
                   __builtin_popcount(static_cast<unsigned>(live)));
    }
  }
  for (; i < n; i += wpv) c += (words[i] >> 11) >= skip_word;
  return c;
}

}  // namespace

#pragma GCC diagnostic pop

#endif  // SVT_VECMATH_HAVE_AVX512

void LogBlock(std::span<const double> in, std::span<double> out) {
  SVT_CHECK(in.size() == out.size())
      << "LogBlock size mismatch: " << in.size() << " vs " << out.size();
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    LogBlockAvx512(in.data(), out.data(), in.size());
    return;
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    LogBlockAvx2(in.data(), out.data(), in.size());
    return;
  }
#endif
  for (size_t i = 0; i < in.size(); ++i) out[i] = Log(in[i]);
}

void NegLogUnitPositiveBlock(std::span<const uint64_t> words, size_t stride,
                             std::span<double> out) {
  SVT_CHECK(stride == 1 || stride == 2)
      << "NegLogUnitPositiveBlock stride must be 1 or 2, got " << stride;
  SVT_CHECK(words.size() == stride * out.size())
      << "NegLogUnitPositiveBlock size mismatch: " << words.size()
      << " words for " << out.size() << " outputs at stride " << stride;
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    NegLogUnitPositiveAvx512(words.data(), stride, out.data(), out.size());
    return;
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    NegLogUnitPositiveAvx2(words.data(), stride, out.data(), out.size());
    return;
  }
#endif
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = -Log(Rng::ToUnitDoublePositive(words[i * stride]));
  }
}

void LaplaceTransformBlock(std::span<const uint64_t> words, double mu,
                           double b, std::span<double> out) {
  SVT_CHECK(words.size() == 2 * out.size())
      << "LaplaceTransformBlock size mismatch: " << words.size()
      << " words for " << out.size() << " outputs";
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    LaplaceTransformAvx512(words.data(), mu, b, out.data(), out.size());
    return;
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    LaplaceTransformAvx2(words.data(), mu, b, out.data(), out.size());
    return;
  }
#endif
  for (size_t i = 0; i < out.size(); ++i) {
    const double e = -Log(Rng::ToUnitDoublePositive(words[2 * i]));
    const double be = b * e;
    const uint64_t flip = ~words[2 * i + 1] & 0x8000'0000'0000'0000ull;
    out[i] = mu + std::bit_cast<double>(std::bit_cast<uint64_t>(be) ^ flip);
  }
}

double MaxBlock(std::span<const double> in) {
  SVT_CHECK(!in.empty()) << "MaxBlock requires at least one element";
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    return MaxBlockAvx512(in.data(), in.size());
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return MaxBlockAvx2(in.data(), in.size());
  }
#endif
  double m = in[0];
  for (double x : in) m = std::max(m, x);
  return m;
}

uint64_t MinWordBlock(std::span<const uint64_t> words, size_t stride) {
  SVT_CHECK(stride == 1 || stride == 2)
      << "MinWordBlock stride must be 1 or 2, got " << stride;
  SVT_CHECK(!words.empty() && words.size() % stride == 0)
      << "MinWordBlock needs a non-empty multiple of stride, got "
      << words.size();
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    return MinWordBlockAvx512(words.data(), stride, words.size() / stride);
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return MinWordBlockAvx2(words.data(), stride, words.size() / stride);
  }
#endif
  uint64_t m = words[0];
  for (size_t i = 0; i < words.size(); i += stride) {
    m = std::min(m, words[i]);
  }
  return m;
}

double MinBlock(std::span<const double> in) {
  SVT_CHECK(!in.empty()) << "MinBlock requires at least one element";
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    return MinBlockAvx512(in.data(), in.size());
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return MinBlockAvx2(in.data(), in.size());
  }
#endif
  double m = in[0];
  for (double x : in) m = std::min(m, x);
  return m;
}

// The quantized reductions dispatch the AVX2 lane at every SIMD level:
// 512-bit byte/word max needs AVX-512BW (outside the library's F+DQ+VL
// gate), and the reduction is exact at any width, so the AVX-512 level
// simply reuses the 256-bit lane (see vecmath.h).
uint16_t QuantizedSpanMax(std::span<const uint16_t> codes) {
  SVT_CHECK(!codes.empty()) << "QuantizedSpanMax requires an element";
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return QuantizedSpanMaxU16Avx2(codes.data(), codes.size());
  }
#endif
  uint16_t m = codes[0];
  for (uint16_t c : codes) m = std::max(m, c);
  return m;
}

uint16_t QuantizedSpanMin(std::span<const uint16_t> codes) {
  SVT_CHECK(!codes.empty()) << "QuantizedSpanMin requires an element";
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return QuantizedSpanMinU16Avx2(codes.data(), codes.size());
  }
#endif
  uint16_t m = codes[0];
  for (uint16_t c : codes) m = std::min(m, c);
  return m;
}

uint8_t QuantizedSpanMax(std::span<const uint8_t> codes) {
  SVT_CHECK(!codes.empty()) << "QuantizedSpanMax requires an element";
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return QuantizedSpanMaxU8Avx2(codes.data(), codes.size());
  }
#endif
  uint8_t m = codes[0];
  for (uint8_t c : codes) m = std::max(m, c);
  return m;
}

uint8_t QuantizedSpanMin(std::span<const uint8_t> codes) {
  SVT_CHECK(!codes.empty()) << "QuantizedSpanMin requires an element";
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return QuantizedSpanMinU8Avx2(codes.data(), codes.size());
  }
#endif
  uint8_t m = codes[0];
  for (uint8_t c : codes) m = std::min(m, c);
  return m;
}

size_t FindFirstSumGe(std::span<const double> a, std::span<const double> b,
                      double bar) {
  SVT_CHECK(a.size() == b.size())
      << "FindFirstSumGe size mismatch: " << a.size() << " vs " << b.size();
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    return FindFirstSumGeAvx512(a.data(), b.data(), bar, a.size());
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return FindFirstSumGeAvx2(a.data(), b.data(), bar, a.size());
  }
#endif
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] + b[i] >= bar) return i;
  }
  return a.size();
}

size_t FindFirstGe(std::span<const double> a, double bar) {
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    return FindFirstGeAvx512(a.data(), bar, a.size());
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return FindFirstGeAvx2(a.data(), bar, a.size());
  }
#endif
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] >= bar) return i;
  }
  return a.size();
}


size_t FindFirstGePairwise(std::span<const double> a,
                           std::span<const double> bars, double rho) {
  SVT_CHECK(a.size() == bars.size())
      << "FindFirstGePairwise size mismatch: " << a.size() << " vs "
      << bars.size();
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    return FindFirstGePairwiseAvx512(a.data(), bars.data(), rho, a.size());
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return FindFirstGePairwiseAvx2(a.data(), bars.data(), rho, a.size());
  }
#endif
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] >= bars[i] + rho) return i;
  }
  return a.size();
}

size_t FindFirstSumGePairwise(std::span<const double> a,
                              std::span<const double> b,
                              std::span<const double> bars, double rho) {
  SVT_CHECK(a.size() == b.size() && a.size() == bars.size())
      << "FindFirstSumGePairwise size mismatch: " << a.size() << " vs "
      << b.size() << " vs " << bars.size();
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    return FindFirstSumGePairwiseAvx512(a.data(), b.data(), bars.data(), rho,
                                        a.size());
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return FindFirstSumGePairwiseAvx2(a.data(), b.data(), bars.data(), rho,
                                      a.size());
  }
#endif
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] + b[i] >= bars[i] + rho) return i;
  }
  return a.size();
}

void ExponentialTransformBlock(std::span<const uint64_t> words, double b,
                               std::span<double> out) {
  SVT_CHECK(words.size() == out.size())
      << "ExponentialTransformBlock size mismatch: " << words.size()
      << " words for " << out.size() << " outputs";
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    ExponentialTransformAvx512(words.data(), b, out.data(), out.size());
    return;
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    ExponentialTransformAvx2(words.data(), b, out.data(), out.size());
    return;
  }
#endif
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = ExpNuScalar(words[i], b);
  }
}

namespace {

// Together with the +2 below, kMegaNeverSkipWord (declared in the
// header) caps every returned threshold at 2^53 + 1 — small enough that
// the AVX2 lanes' signed 64-bit compare behaves unsigned.
constexpr uint64_t kMegaNeverSkip = kMegaNeverSkipWord;

// Pads for the soundness check: the absolute pad dominates the Log
// kernel's ≤ 2-ulp error (at most ~8e-15 absolute over the unit range,
// magnitudes capped by -log(2^-53) ≈ 36.74), making the padded value an
// upper bound on the computed -Log(u) of *every* skipped word even
// where the polynomial wiggles non-monotonically; the multiplicative
// slack absorbs the roundings of the ν = fl(b · e) product chain.
constexpr double kMegaSkipLogPad = 1e-13;
constexpr double kMegaSkipSlack = 1.0 + 1e-12;

// True when skipping every element with (w_mag >> 11) >= skip_word is
// provably sound against the computed positive test for answers <= a_max:
// u_W = (skip_word + 1) * 2^-53 is the smallest unit double among
// skipped words (ToUnitDoublePositive is monotone in w >> 11), the
// padded production-Log bound caps every skipped |ν| as a real, and
// rounding monotonicity then caps every skipped fl(a[i] + ν) by
// fl(a_max + bound) < bar — the same bound-chain argument the tier-1 and
// span bounds rest on.
bool MegaSkipSound(uint64_t skip_word, double a_max, double bar, double b) {
  if (skip_word >= kMegaNeverSkip) return true;
  const double u = (static_cast<double>(skip_word) + 1.0) * 0x1.0p-53;
  const double bound = b * (-Log(u) + kMegaSkipLogPad) * kMegaSkipSlack;
  return a_max + bound < bar;
}

}  // namespace

uint64_t MegaSkipWordThreshold(double a_max, double bar, double b) {
  const double gap = bar - a_max;
  if (!(gap > 0.0) || !(b > 0.0) || !std::isfinite(gap)) {
    return kMegaNeverSkip;
  }
  // Candidate from the exact inverse u = exp(-gap / b), nudged up ~1e-9
  // so the first soundness check normally passes (its own pads sit two
  // orders of magnitude below the nudge); +2 covers the floor and the
  // half-open word-to-unit offset. The checked-then-nudged loop makes
  // the exp inversion a pure performance guess: an unsound candidate
  // near the boundary is pushed ~1e-6 relative past it, and a workload
  // outside the pads' regime (e.g. |bar| astronomically larger than b)
  // just degrades to never-skip.
  const double u_t = std::exp(-gap / b) * (1.0 + 1e-9);
  uint64_t w = u_t >= 1.0 ? kMegaNeverSkip
                          : static_cast<uint64_t>(u_t * 0x1.0p53) + 2;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (w >= kMegaNeverSkip) return kMegaNeverSkip;
    if (MegaSkipSound(w, a_max, bar, b)) return w;
    w += (w >> 20) + 16;
  }
  return kMegaNeverSkip;
}

namespace {

// One form of the fused pass at the active dispatch level. Chunks run
// whole from the chunk-entry stream position, which is always lane-aligned
// (chunks consume lane-multiple word counts), so an unaligned entry only
// needs a correctness fallback: the scalar lane handles it exactly. A SIMD
// lane also needs every span but the last to be a whole number of groups.
template <size_t kWpv, bool kPerQuery>
size_t MegaFillMinScanSpansAt(BlockRng::State* state, double b,
                              std::span<const double> a, const double* bars,
                              double bar_offset, const uint64_t* skip_words,
                              size_t span_elems, uint64_t* span_min,
                              FusedScanHit* hits, size_t max_hits,
                              uint64_t* skipped_out) {
  const size_t n = a.size();
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512 && state->phase == 0 &&
      (span_elems % 8 == 0 || n <= span_elems)) {
    return MegaFillMinScanSpansAvx512<kWpv, kPerQuery>(
        state, b, a.data(), bars, bar_offset, skip_words, n, span_elems,
        span_min, hits, max_hits, skipped_out);
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2 && state->phase == 0 &&
      (span_elems % 4 == 0 || n <= span_elems)) {
    return MegaFillMinScanSpansAvx2<kWpv, kPerQuery>(
        state, b, a.data(), bars, bar_offset, skip_words, n, span_elems,
        span_min, hits, max_hits, skipped_out);
  }
#endif
  return MegaFillMinScanSpansScalar<kWpv, kPerQuery>(
      state, b, a.data(), bars, bar_offset, skip_words, n, span_elems,
      span_min, hits, max_hits, skipped_out);
}

}  // namespace

size_t MegaFillMinScanSpans(BlockRng::State* state, size_t wpv, double b,
                            std::span<const double> a,
                            std::span<const double> bars, double bar_offset,
                            const uint64_t* skip_words, size_t span_elems,
                            uint64_t* span_min, FusedScanHit* hits,
                            size_t max_hits, uint64_t* skipped_out) {
  SVT_CHECK(wpv == 1 || wpv == 2)
      << "MegaFillMinScanSpans words-per-variate must be 1 or 2, got " << wpv;
  SVT_CHECK(bars.empty() || bars.size() == a.size())
      << "MegaFillMinScanSpans size mismatch: " << a.size() << " vs "
      << bars.size();
  SVT_CHECK(span_elems > 0) << "MegaFillMinScanSpans requires span_elems > 0";
  // The AVX2 lane's signed compare needs every skip word at or below
  // 2^53 + 1, the cap MegaSkipWordThreshold keeps.
  for (size_t j = 0; j * span_elems < a.size(); ++j) {
    SVT_DCHECK(skip_words[j] <= kMegaNeverSkip + 1);
  }
  using Form = decltype(&MegaFillMinScanSpansAt<1, false>);
  static constexpr Form kForms[2][2] = {
      {MegaFillMinScanSpansAt<1, false>, MegaFillMinScanSpansAt<1, true>},
      {MegaFillMinScanSpansAt<2, false>, MegaFillMinScanSpansAt<2, true>}};
  return kForms[wpv - 1][!bars.empty()](state, b, a, bars.data(), bar_offset,
                                        skip_words, span_elems, span_min,
                                        hits, max_hits, skipped_out);
}

size_t SkipWordCountBlock(std::span<const std::uint64_t> words, size_t wpv,
                          uint64_t skip_word) {
  SVT_CHECK(wpv == 1 || wpv == 2)
      << "SkipWordCountBlock words-per-variate must be 1 or 2, got " << wpv;
  SVT_CHECK(words.size() % wpv == 0)
      << "SkipWordCountBlock size not a words-per-variate multiple: "
      << words.size();
  if (skip_word >= kMegaNeverSkip) return 0;
#if SVT_VECMATH_HAVE_AVX512
  if (ActiveDispatchLevel() == DispatchLevel::kAvx512) {
    return SkipWordCountBlockAvx512(words.data(), words.size(), wpv,
                                    skip_word);
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return SkipWordCountBlockAvx2(words.data(), words.size(), wpv, skip_word);
  }
#endif
  size_t c = 0;
  for (size_t i = 0; i < words.size(); i += wpv) {
    c += (words[i] >> 11) >= skip_word;
  }
  return c;
}

}  // namespace vec
}  // namespace svt
