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
// Every kernel body is written once, in vecmath_kernels.inc, as a template
// over a lane-traits type: ScalarLane (one double), Avx2Lane (4) and
// Avx512Lane (8). A traits struct supplies only its lane's primitives —
// correctly-rounded IEEE + - * with no FMA (explicit non-fused intrinsics;
// -ffp-contract=off for this file, set in CMakeLists.txt), exact integer
// ops, exact u53/k -> double conversions (the AVX-512 lane uses AVX-512DQ's
// cvtepu64_pd / cvtepi64_pd where the AVX2 lane rebuilds them from 32-bit
// halves), compares to bitmasks, horizontal reductions and the load, step
// and store of the lockstep generator, whose step is XoshiroNext over the
// lane's integer ops. So every lane computes, element for element, the scalar
// lane's operation sequence, and bit-identity across dispatch levels is
// structural. Lanes holding operands outside the log fast path's domain
// (zero, subnormal, negative, non-finite) are patched with the scalar
// Log() after the vector store, so every special case has exactly one
// implementation.
//
// All lanes live in this one translation unit. The shared bodies are
// included once per lane namespace, and the SIMD namespaces sit inside
// `#pragma GCC target` regions: a default-target template cannot inline
// target-specific intrinsics, and per-file ISA flags could emit COMDAT
// inlines (std::min, header helpers) built for the wider ISA that the
// linker may hand to scalar callers. scripts/check_vecmath_isa.sh checks
// the object file: only the SIMD lane namespaces touch wide registers.
//
// Every SIMD kernel clears the upper vector state (_mm256_zeroupper, the
// lanes' ZeroUpper) before its scalar tail or scalar delegation. The tails
// call the out-of-line scalar Log or scalar-lane bodies, which are
// SSE-encoded, and SSE code that runs while the upper halves are dirty
// pays a transition penalty on every instruction: on a 4-vCPU AVX-512 Xeon
// a 9-element Laplace transform took 530 ns against 44 ns for 8 elements.
// vzeroupper leaves the low 128 bits alone, so the tails compute the same
// values.

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
#include <type_traits>

#include "common/check.h"
#include "common/rng.h"

// The SIMD lanes are compiled under `#pragma GCC target` regions, which
// only GCC implements; other compilers build the scalar lane alone.
#if (defined(__x86_64__) || defined(_M_X64)) && !defined(SVT_DISABLE_AVX2) && \
    defined(__GNUC__) && !defined(__clang__)
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
      // conversions and the 512-bit pd logic ops, VL for the generator's
      // 256-bit rotate. One predicate for the whole level keeps
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

namespace {

template <bool kMax, class T>
inline T Pick(T a, T b) {
  return kMax ? std::max(a, b) : std::min(a, b);
}

// Records one group's hits in lane order: bit k of mask means element
// e + k fired with ν nus[k]. Only the first max_hits are stored; *found
// counts them all.
inline void RecordHits(unsigned mask, const double* nus, size_t e,
                       FusedScanHit* hits, size_t max_hits, size_t* found) {
  do {
    const int lane = std::countr_zero(mask);
    if (*found < max_hits) {
      hits[*found] = {e + static_cast<size_t>(lane), nus[lane]};
    }
    ++*found;
    mask &= mask - 1;
  } while (mask != 0);
}

// --- scalar lane ----------------------------------------------------------

namespace scalar_lane {

struct Words4;

// One element per "vector". The generator is the State itself: a step is
// BlockRng::Next() on it, one xoshiro lane's output and the phase advance,
// so the scalar lane accepts an unaligned entry.
struct ScalarLane {
  static constexpr size_t kW = 1;
  using D = double;
  using I = uint64_t;
  using FillLane = Words4;
  using Gen = BlockRng::State*;

  static D Set1(double x) { return x; }
  static I Set1I(uint64_t x) { return x; }
  static D Load(const double* p) { return *p; }
  static void Store(double* p, D v) { *p = v; }
  static I LoadI(const uint64_t* p) { return *p; }
  static D Add(D a, D b) { return a + b; }
  static D Sub(D a, D b) { return a - b; }
  static D Mul(D a, D b) { return a * b; }
  static D Xor(D a, D b) {
    return std::bit_cast<double>(std::bit_cast<uint64_t>(a) ^
                                 std::bit_cast<uint64_t>(b));
  }
  static D Max(D a, D b) { return std::max(a, b); }
  static D Min(D a, D b) { return std::min(a, b); }
  static I AddI(I a, I b) { return a + b; }
  static I SubI(I a, I b) { return a - b; }
  static I AndI(I a, I b) { return a & b; }
  static I AndNotI(I a, I b) { return ~a & b; }
  static I OrI(I a, I b) { return a | b; }
  static I XorI(I a, I b) { return a ^ b; }
  static I MulLo(I a, uint64_t c) { return a * c; }
  template <int k>
  static I Srl(I v) { return v >> k; }
  template <int k>
  static I Sll(I v) { return v << k; }
  template <int k>
  static I Rotl(I v) { return std::rotl(v, k); }
  static void StoreI(uint64_t* p, I v) { *p = v; }
  static D AsD(I v) { return std::bit_cast<double>(v); }
  static I AsI(D v) { return std::bit_cast<uint64_t>(v); }
  static D U53ToD(I v) { return static_cast<double>(v); }
  static D KToD(I k) { return static_cast<double>(static_cast<int64_t>(k)); }
  static void SplitEvenOdd(I v0, I v1, I* even, I* odd) {
    *even = v0;
    *odd = v1;
  }
  static I UnpackMags(I v0, I) { return v0; }
  static I MinU(I a, I b) { return std::min(a, b); }
  static unsigned CmpGe(D a, D b) { return a >= b; }
  static I OrWhereGe(I acc, D a, D b, I bit) {
    return acc | (bit & (0 - uint64_t{a >= b}));
  }
  static unsigned BelowSkip(I w, I skip) { return (w >> 11) < skip; }
  static double HMax(D v) { return v; }
  static double HMin(D v) { return v; }
  static uint64_t HMinU(I v) { return v; }
  static Gen LoadState(BlockRng::State* st) { return st; }
  static I Step(Gen& st);
  static void StoreState(BlockRng::State*, Gen) {}
  static void ZeroUpper() {}
};

#include "common/vecmath_kernels.inc"

// Each lane's Step follows the kernel bodies, which define XoshiroNext.
inline uint64_t ScalarLane::Step(Gen& st) {
  uint64_t* w = st->words.data() + st->phase;  // w[4 * k]: state word k
  uint64_t s[4] = {w[0], w[4], w[8], w[12]};
  const uint64_t r = XoshiroNext<ScalarLane>(s);
  for (size_t k = 0; k < 4; ++k) w[4 * k] = s[k];
  st->phase = (st->phase + 1) & (BlockRng::kLanes - 1);
  return r;
}

// The scalar level's fill (ScalarLane::FillLane): the four xoshiro lanes'
// state words held in locals and stepped in lockstep from a lane-aligned
// position, like the SIMD fill lanes; whole steps keep the State's phase.
// Each lane's word is stored before the lane advances. Stepping the State
// one word at a time (ScalarLane::Step) took about 1.5x as long on
// BM_RngFillUint64/4096, and holding a whole step's four words until one
// joint store about 1.2x: either way the sixteen state words no longer fit
// the registers.
struct Words4 {};

void FillStreamKernel(Words4, BlockRng::State* st, uint64_t* out, size_t n) {
  const uint64_t* w = st->words.data();  // w[4 * k + j]: word k of lane j
  uint64_t s0[4] = {w[0], w[1], w[2], w[3]};
  uint64_t s1[4] = {w[4], w[5], w[6], w[7]};
  uint64_t s2[4] = {w[8], w[9], w[10], w[11]};
  uint64_t s3[4] = {w[12], w[13], w[14], w[15]};
  const size_t steps = n / 4;
  for (size_t step = 0; step < steps; ++step, out += 4) {
    for (size_t j = 0; j < 4; ++j) {
      out[j] = XoshiroOutput<ScalarLane>(s0[j], s3[j]);
      XoshiroAdvance<ScalarLane>(s0[j], s1[j], s2[j], s3[j]);
    }
  }
  for (size_t j = 0; j < 4; ++j) {
    st->words[j] = s0[j];
    st->words[4 + j] = s1[j];
    st->words[8 + j] = s2[j];
    st->words[12 + j] = s3[j];
  }
  FillStreamKernel(ScalarLane{}, st, out, n - 4 * steps);
}

}  // namespace scalar_lane

}  // namespace

double Log(double x) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  uint64_t k_bias = 1023;
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
    k_bias += 54;
  }
  return scalar_lane::LogNormal<scalar_lane::ScalarLane>(x, k_bias);
}

double NegLogUnitPositive(uint64_t word) {
  return -Log(Rng::ToUnitDoublePositive(word));
}

#if SVT_VECMATH_HAVE_AVX2

#pragma GCC push_options
#pragma GCC target("avx2")

namespace {
namespace avx2_lane {

// Four doubles per vector. The generator is the four xoshiro lanes in
// registers, s[k] holding state word k of every lane, so one step yields
// the next four stream words; it needs a lane-aligned entry (phase == 0).
struct Avx2Lane {
  static constexpr size_t kW = 4;
  using D = __m256d;
  using I = __m256i;
  using FillLane = Avx2Lane;
  struct Gen {
    I s[4];
  };

  static D Set1(double x) { return _mm256_set1_pd(x); }
  static I Set1I(uint64_t x) {
    return _mm256_set1_epi64x(static_cast<int64_t>(x));
  }
  static D Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, D v) { _mm256_storeu_pd(p, v); }
  static I LoadI(const uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static D Add(D a, D b) { return _mm256_add_pd(a, b); }
  static D Sub(D a, D b) { return _mm256_sub_pd(a, b); }
  static D Mul(D a, D b) { return _mm256_mul_pd(a, b); }
  static D Xor(D a, D b) { return _mm256_xor_pd(a, b); }
  static D Max(D a, D b) { return _mm256_max_pd(a, b); }
  static D Min(D a, D b) { return _mm256_min_pd(a, b); }
  static I AddI(I a, I b) { return _mm256_add_epi64(a, b); }
  static I SubI(I a, I b) { return _mm256_sub_epi64(a, b); }
  static I AndI(I a, I b) { return _mm256_and_si256(a, b); }
  static I AndNotI(I a, I b) { return _mm256_andnot_si256(a, b); }
  static I OrI(I a, I b) { return _mm256_or_si256(a, b); }
  static I XorI(I a, I b) { return _mm256_xor_si256(a, b); }
  // The low 64 bits of a * c without AVX-512DQ's mullo_epi64: three
  // 32x32 -> 64 products, lo(a)lo(c) + ((hi(a)lo(c) + lo(a)hi(c)) << 32),
  // exact mod 2^64.
  static I MulLo(I a, uint64_t c) {
    const I c_lo = Set1I(c & 0xFFFF'FFFFull);
    const I cross = AddI(_mm256_mul_epu32(Srl<32>(a), c_lo),
                         _mm256_mul_epu32(a, Set1I(c >> 32)));
    return AddI(_mm256_mul_epu32(a, c_lo), Sll<32>(cross));
  }
  template <int k>
  static I Srl(I v) { return _mm256_srli_epi64(v, k); }
  template <int k>
  static I Sll(I v) { return _mm256_slli_epi64(v, k); }
  template <int k>
  static I Rotl(I v) { return OrI(Sll<k>(v), Srl<64 - k>(v)); }
  static void StoreI(uint64_t* p, I v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static D AsD(I v) { return _mm256_castsi256_pd(v); }
  static I AsI(D v) { return _mm256_castpd_si256(v); }
  // (double)v for v < 2^53 without AVX-512's cvtepu64_pd: split into
  // 32-bit halves and rebuild through the 2^52 / 2^84 magic constants.
  // Every step is exact.
  static D U53ToD(I v) {
    const D lo = Sub(AsD(_mm256_or_si256(AndI(v, Set1I(0xFFFFFFFFull)),
                                         Set1I(0x4330'0000'0000'0000ull))),
                     Set1(0x1p52));
    const D hi = Sub(AsD(_mm256_or_si256(Srl<32>(v),
                                         Set1I(0x4530'0000'0000'0000ull))),
                     Set1(0x1p84));
    return Add(hi, lo);
  }
  // k fits in 32 bits: pack the low halves and convert exactly.
  static D KToD(I k) {
    const __m256i klo = _mm256_shuffle_epi32(k, 0xE8);
    return _mm256_cvtepi32_pd(
        _mm256_castsi256_si128(_mm256_permute4x64_epi64(klo, 0x08)));
  }
  // unpacklo pairs the even words of v0, v1 as [w0 w4 w2 w6] (and unpackhi
  // the odd ones); the permute restores index order.
  static void SplitEvenOdd(I v0, I v1, I* even, I* odd) {
    *even = _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(v0, v1), 0xD8);
    *odd = _mm256_permute4x64_epi64(_mm256_unpackhi_epi64(v0, v1), 0xD8);
  }
  static I UnpackMags(I v0, I v1) { return _mm256_unpacklo_epi64(v0, v1); }
  // Unsigned 64-bit min via the sign-flip trick over cmpgt_epi64.
  static I MinU(I a, I b) {
    const I flip = Set1I(0x8000'0000'0000'0000ull);
    return _mm256_blendv_epi8(
        a, b, _mm256_cmpgt_epi64(_mm256_xor_si256(a, flip),
                                 _mm256_xor_si256(b, flip)));
  }
  static unsigned CmpGe(D a, D b) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_GE_OQ)));
  }
  static I OrWhereGe(I acc, D a, D b, I bit) {
    return OrI(acc, AndI(bit, AsI(_mm256_cmp_pd(a, b, _CMP_GE_OQ))));
  }
  // Skip words never exceed 2^53 + 1 (checked at the fused entry) and
  // w >> 11 is below 2^53, so the signed compare is an unsigned one.
  static unsigned BelowSkip(I w, I skip) {
    return static_cast<unsigned>(_mm256_movemask_pd(
        AsD(_mm256_cmpgt_epi64(skip, Srl<11>(w)))));
  }
  static double HMax(D v) {
    alignas(32) double l[4];
    _mm256_store_pd(l, v);
    return std::max(std::max(l[0], l[1]), std::max(l[2], l[3]));
  }
  static double HMin(D v) {
    alignas(32) double l[4];
    _mm256_store_pd(l, v);
    return std::min(std::min(l[0], l[1]), std::min(l[2], l[3]));
  }
  static uint64_t HMinU(I v) {
    alignas(32) uint64_t l[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(l), v);
    return std::min(std::min(l[0], l[1]), std::min(l[2], l[3]));
  }
  static Gen LoadState(const BlockRng::State* st) {
    const uint64_t* w = st->words.data();
    return {{LoadI(w), LoadI(w + 4), LoadI(w + 8), LoadI(w + 12)}};
  }
  static I Step(Gen& g);
  static void StoreState(BlockRng::State* st, const Gen& g) {
    for (size_t k = 0; k < 4; ++k) StoreI(st->words.data() + 4 * k, g.s[k]);
    st->phase = 0;
  }
  static void ZeroUpper() { _mm256_zeroupper(); }
};

#include "common/vecmath_kernels.inc"

inline __m256i Avx2Lane::Step(Gen& g) { return XoshiroNext<Avx2Lane>(g.s); }

// Quantized bound-code reduction (AVX2 only, see vecmath.h): exact
// unsigned 16-bit max, 16 codes per 256-bit op. Association-free, so
// seeding the accumulator with codes[0] is harmless.
std::uint16_t QuantizedMax(const std::uint16_t* codes, size_t n) {
  constexpr size_t kPer = 16;
  __m256i acc = _mm256_set1_epi16(static_cast<short>(codes[0]));
  size_t i = 0;
  for (; i + kPer <= n; i += kPer) {
    acc = _mm256_max_epu16(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i)));
  }
  alignas(32) std::uint16_t lanes[kPer];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint16_t m = lanes[0];
  for (size_t k = 1; k < kPer; ++k) m = std::max(m, lanes[k]);
  for (; i < n; ++i) m = std::max(m, codes[i]);
  return m;
}

}  // namespace avx2_lane
}  // namespace

#pragma GCC pop_options

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
#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq,avx512vl")

namespace {
namespace avx512_lane {

// The AVX-512 lane's generator as a four-word lane of its own: the AVX2
// lane's registers, stepped by XoshiroNext with AVX-512VL's native 64-bit
// rotate. Avx512Lane::Step joins two of its steps. FillStream steps it
// alone: with the join's 512-bit insert and store in the loop,
// BM_RngFillUint64 ran about a fifth slower.
struct Vl256 {
  static constexpr size_t kW = 4;
  using I = __m256i;
  struct Gen {
    I s[4];
  };

  static I AddI(I a, I b) { return _mm256_add_epi64(a, b); }
  static I XorI(I a, I b) { return _mm256_xor_si256(a, b); }
  template <int k>
  static I Sll(I v) { return _mm256_slli_epi64(v, k); }
  template <int k>
  static I Rotl(I v) { return _mm256_rol_epi64(v, k); }
  static void StoreI(uint64_t* p, I v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Gen LoadState(const BlockRng::State* st) {
    const __m256i* w = reinterpret_cast<const __m256i*>(st->words.data());
    return {{_mm256_loadu_si256(w), _mm256_loadu_si256(w + 1),
             _mm256_loadu_si256(w + 2), _mm256_loadu_si256(w + 3)}};
  }
  static I Step(Gen& g);
  static void StoreState(BlockRng::State* st, const Gen& g) {
    for (size_t k = 0; k < 4; ++k) StoreI(st->words.data() + 4 * k, g.s[k]);
    st->phase = 0;
  }
  static void ZeroUpper() { _mm256_zeroupper(); }
};

// Eight doubles per vector. The generator is Vl256's; a step concatenates
// two of its steps into one 512-bit vector in stream order (step k's
// outputs are stream words 4k..4k+3). Needs phase == 0.
struct Avx512Lane {
  static constexpr size_t kW = 8;
  using D = __m512d;
  using I = __m512i;
  using FillLane = Vl256;
  using Gen = Vl256::Gen;

  static D Set1(double x) { return _mm512_set1_pd(x); }
  static I Set1I(uint64_t x) {
    return _mm512_set1_epi64(static_cast<int64_t>(x));
  }
  static D Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, D v) { _mm512_storeu_pd(p, v); }
  static I LoadI(const uint64_t* p) { return _mm512_loadu_si512(p); }
  static D Add(D a, D b) { return _mm512_add_pd(a, b); }
  static D Sub(D a, D b) { return _mm512_sub_pd(a, b); }
  static D Mul(D a, D b) { return _mm512_mul_pd(a, b); }
  static D Xor(D a, D b) { return _mm512_xor_pd(a, b); }
  static D Max(D a, D b) { return _mm512_max_pd(a, b); }
  static D Min(D a, D b) { return _mm512_min_pd(a, b); }
  static I AddI(I a, I b) { return _mm512_add_epi64(a, b); }
  static I SubI(I a, I b) { return _mm512_sub_epi64(a, b); }
  static I AndI(I a, I b) { return _mm512_and_si512(a, b); }
  static I AndNotI(I a, I b) { return _mm512_andnot_si512(a, b); }
  static I OrI(I a, I b) { return _mm512_or_si512(a, b); }
  static I XorI(I a, I b) { return _mm512_xor_si512(a, b); }
  static I MulLo(I a, uint64_t c) { return _mm512_mullo_epi64(a, Set1I(c)); }
  template <int k>
  static I Srl(I v) { return _mm512_srli_epi64(v, k); }
  template <int k>
  static I Sll(I v) { return _mm512_slli_epi64(v, k); }
  template <int k>
  static I Rotl(I v) { return _mm512_rol_epi64(v, k); }
  static void StoreI(uint64_t* p, I v) { _mm512_storeu_si512(p, v); }
  static D AsD(I v) { return _mm512_castsi512_pd(v); }
  static I AsI(D v) { return _mm512_castpd_si512(v); }
  // Exact: the values always fit in 53 bits (|k| <= ~1100).
  static D U53ToD(I v) { return _mm512_cvtepu64_pd(v); }
  static D KToD(I k) { return _mm512_cvtepi64_pd(k); }
  static void SplitEvenOdd(I v0, I v1, I* even, I* odd) {
    *even = _mm512_permutex2var_epi64(
        v0, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), v1);
    *odd = _mm512_permutex2var_epi64(
        v0, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), v1);
  }
  static I UnpackMags(I v0, I v1) { return _mm512_unpacklo_epi64(v0, v1); }
  static I MinU(I a, I b) { return _mm512_min_epu64(a, b); }
  static unsigned CmpGe(D a, D b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
  }
  static I OrWhereGe(I acc, D a, D b, I bit) {
    return _mm512_mask_or_epi64(acc, _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ), acc,
                                bit);
  }
  static unsigned BelowSkip(I w, I skip) {
    return _mm512_cmplt_epu64_mask(Srl<11>(w), skip);
  }
  static double HMax(D v) {
    alignas(64) double l[8];
    _mm512_store_pd(l, v);
    double m = l[0];
    for (int k = 1; k < 8; ++k) m = std::max(m, l[k]);
    return m;
  }
  static double HMin(D v) {
    alignas(64) double l[8];
    _mm512_store_pd(l, v);
    double m = l[0];
    for (int k = 1; k < 8; ++k) m = std::min(m, l[k]);
    return m;
  }
  static uint64_t HMinU(I v) {
    alignas(64) uint64_t l[8];
    _mm512_store_si512(l, v);
    uint64_t m = l[0];
    for (int k = 1; k < 8; ++k) m = std::min(m, l[k]);
    return m;
  }
  static Gen LoadState(const BlockRng::State* st) {
    return Vl256::LoadState(st);
  }
  static I Step(Gen& g);
  static void StoreState(BlockRng::State* st, const Gen& g) {
    Vl256::StoreState(st, g);
  }
  static void ZeroUpper() { _mm256_zeroupper(); }
};

#include "common/vecmath_kernels.inc"

inline __m256i Vl256::Step(Gen& g) { return XoshiroNext<Vl256>(g.s); }

inline __m512i Avx512Lane::Step(Gen& g) {
  const __m256i r0 = Vl256::Step(g);
  const __m256i r1 = Vl256::Step(g);
  return _mm512_inserti64x4(_mm512_castsi256_si512(r0), r1, 1);
}

}  // namespace avx512_lane
}  // namespace

#pragma GCC pop_options
#pragma GCC diagnostic pop

#endif  // SVT_VECMATH_HAVE_AVX512

namespace {

// Runs run(lane) with the traits of the widest compiled-in lane at or below
// the active dispatch level whose width `fits` accepts; the scalar lane
// takes everything else.
template <class F, class Fits>
auto AtActiveLevel(F run, [[maybe_unused]] Fits fits) {
  [[maybe_unused]] const DispatchLevel level = ActiveDispatchLevel();
#if SVT_VECMATH_HAVE_AVX512
  if (level == DispatchLevel::kAvx512 && fits(avx512_lane::Avx512Lane::kW)) {
    return run(avx512_lane::Avx512Lane{});
  }
#endif
#if SVT_VECMATH_HAVE_AVX2
  if (level >= DispatchLevel::kAvx2 && fits(avx2_lane::Avx2Lane::kW)) {
    return run(avx2_lane::Avx2Lane{});
  }
#endif
  return run(scalar_lane::ScalarLane{});
}

template <class F>
auto AtActiveLevel(F run) {
  return AtActiveLevel(run, [](size_t) { return true; });
}

// Calls run(std::true_type{}) or run(std::false_type{}): a runtime flag
// becomes a kernel's compile-time form.
template <class F>
auto Fork(bool flag, F run) {
  return flag ? run(std::true_type{}) : run(std::false_type{});
}

}  // namespace

void LogBlock(std::span<const double> in, std::span<double> out) {
  SVT_CHECK(in.size() == out.size())
      << "LogBlock size mismatch: " << in.size() << " vs " << out.size();
  AtActiveLevel([&](auto lane) {
    LogBlockKernel(lane, in.data(), out.data(), in.size());
  });
}

void LaplaceTransformBlock(std::span<const uint64_t> words, double mu,
                           double b, std::span<double> out) {
  SVT_CHECK(words.size() == 2 * out.size())
      << "LaplaceTransformBlock size mismatch: " << words.size()
      << " words for " << out.size() << " outputs";
  AtActiveLevel([&](auto lane) {
    LaplaceKernel(lane, words.data(), mu, b, out.data(), out.size());
  });
}

void ExponentialTransformBlock(std::span<const uint64_t> words, double b,
                               std::span<double> out) {
  SVT_CHECK(words.size() == out.size())
      << "ExponentialTransformBlock size mismatch: " << words.size()
      << " words for " << out.size() << " outputs";
  AtActiveLevel([&](auto lane) {
    ExponentialKernel(lane, words.data(), b, out.data(), out.size());
  });
}

double MaxBlock(std::span<const double> in) {
  SVT_CHECK(!in.empty()) << "MaxBlock requires at least one element";
  return AtActiveLevel([&](auto lane) {
    return ExtremumKernel<true>(lane, in.data(), in.size());
  });
}

double MinBlock(std::span<const double> in) {
  SVT_CHECK(!in.empty()) << "MinBlock requires at least one element";
  return AtActiveLevel([&](auto lane) {
    return ExtremumKernel<false>(lane, in.data(), in.size());
  });
}

uint64_t MinWordBlock(std::span<const uint64_t> words, size_t stride) {
  SVT_CHECK(stride == 1 || stride == 2)
      << "MinWordBlock stride must be 1 or 2, got " << stride;
  SVT_CHECK(!words.empty() && words.size() % stride == 0)
      << "MinWordBlock needs a non-empty multiple of stride, got "
      << words.size();
  return AtActiveLevel([&](auto lane) {
    return Fork(stride == 2, [&](auto two) {
      return MinWordKernel<decltype(two)::value ? 2 : 1>(
          lane, words.data(), words.size() / stride);
    });
  });
}

void FillStream(BlockRng::State* state, std::span<uint64_t> out) {
  if (out.empty()) return;
  // The SIMD lanes step from a lane-aligned position, so the scalar lane
  // takes the words before it, and the rest of a fill that ends first.
  const size_t head = std::min<size_t>(
      out.size(), (BlockRng::kLanes - state->phase) % BlockRng::kLanes);
  scalar_lane::FillStreamKernel(scalar_lane::ScalarLane{}, state, out.data(),
                                head);
  AtActiveLevel(
      [&](auto lane) {
        FillStreamKernel(typename decltype(lane)::FillLane{}, state,
                         out.data() + head, out.size() - head);
      },
      [&](size_t) { return state->phase == 0; });
}

// The quantized reduction dispatches the AVX2 lane at every SIMD level:
// 512-bit word max needs AVX-512BW (outside the library's F+DQ+VL gate),
// and the reduction is exact at any width, so the AVX-512 level simply
// reuses the 256-bit lane (see vecmath.h).
uint16_t QuantizedSpanMax(std::span<const uint16_t> codes) {
  SVT_CHECK(!codes.empty()) << "QuantizedSpanMax requires an element";
#if SVT_VECMATH_HAVE_AVX2
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    return avx2_lane::QuantizedMax(codes.data(), codes.size());
  }
#endif
  return *std::max_element(codes.begin(), codes.end());
}

size_t FindFirstGe(std::span<const double> a, std::span<const double> nu,
                   std::span<const double> bars, double bar_offset) {
  SVT_CHECK((nu.empty() || nu.size() == a.size()) &&
            (bars.empty() || bars.size() == a.size()))
      << "FindFirstGe size mismatch: " << a.size() << " answers, "
      << nu.size() << " noise, " << bars.size() << " bars";
  return AtActiveLevel([&](auto lane) {
    return Fork(!nu.empty(), [&](auto with_nu) {
      return Fork(!bars.empty(), [&](auto per_query) {
        return FindFirstGeKernel<decltype(with_nu)::value,
                                 decltype(per_query)::value>(
            lane, a.data(), nu.data(), bars.data(), bar_offset, a.size());
      });
    });
  });
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
  // The SIMD lanes step whole lockstep groups, so they need a lane-aligned
  // entry position. Within one engine call every chunk but the last
  // consumes a lane-multiple word count, so its chunks all share the
  // call's entry phase; a call inherits the phase the previous call left.
  // SparseVector streams an alignment head to enter at phase 0
  // (core/batch_runner.h), so an unaligned entry is the rare case — a
  // prefiltered call that inherits a mid-lane phase — and the scalar lane
  // handles it exactly. A SIMD lane also needs every span but the last to
  // be a whole number of its groups; a narrower lane takes the call if it
  // fits.
  const auto fits = [&](size_t width) {
    return state->phase == 0 &&
           (span_elems % width == 0 || a.size() <= span_elems);
  };
  return AtActiveLevel(
      [&](auto lane) {
        return Fork(wpv == 2, [&](auto two) {
          return Fork(!bars.empty(), [&](auto per_query) {
            return FusedKernel<decltype(two)::value ? 2 : 1,
                               decltype(per_query)::value>(
                lane, state, b, a.data(), bars.data(), bar_offset, skip_words,
                a.size(), span_elems, span_min, hits, max_hits, skipped_out);
          });
        });
      },
      fits);
}

void FillLaneStreams(std::span<const uint64_t> seeds, size_t words,
                     std::span<uint64_t> out) {
  SVT_CHECK(seeds.size() == kLaneStreams && out.size() == kLaneStreams * words)
      << "FillLaneStreams needs " << kLaneStreams << " seeds and "
      << kLaneStreams << " * " << words << " words, got " << seeds.size()
      << " seeds, " << out.size() << " words";
  AtActiveLevel([&](auto lane) {
    LaneStreamsKernel(lane, seeds.data(), words, out.data());
  });
}

void SeededFireMasks(std::span<const uint64_t> seeds, size_t wpv, double b,
                     std::span<const double> window, size_t rows,
                     std::span<const double> bars, std::span<uint64_t> fires) {
  SVT_CHECK(wpv <= 2)
      << "SeededFireMasks words-per-variate must be 0, 1 or 2, got " << wpv;
  SVT_CHECK(rows >= 1 && rows <= kMaxFireRows && bars.size() % rows == 0 &&
            fires.size() == bars.size())
      << "SeededFireMasks needs 1-" << kMaxFireRows << " rows of bars, got "
      << rows << " rows over " << bars.size() << " bars, " << fires.size()
      << " fire masks";
  const size_t runs = bars.size() / rows;
  SVT_CHECK(wpv == 0 || seeds.size() == runs)
      << "SeededFireMasks has " << seeds.size() << " seeds for " << runs
      << " runs";
  SVT_CHECK(window.size() <= 64)
      << "SeededFireMasks window of " << window.size() << " queries exceeds 64";
  AtActiveLevel([&](auto lane) {
    const auto run = [&](auto words_per_variate) {
      SeededFireKernel<decltype(words_per_variate)::value>(
          lane, seeds.data(), b, window.data(), window.size(), bars.data(),
          rows, fires.data(), 0, runs);
    };
    if (wpv == 2) {
      run(std::integral_constant<size_t, 2>{});
    } else if (wpv == 1) {
      run(std::integral_constant<size_t, 1>{});
    } else {
      run(std::integral_constant<size_t, 0>{});
    }
  });
}

}  // namespace vec
}  // namespace svt
