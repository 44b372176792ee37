// The vecmath layer's two contracts:
//
//  1. Accuracy: the polynomial Log/Exp kernels track libm within a small,
//     documented ULP bound (kMaxUlp below) over dense sweeps and the
//     adversarial inputs the samplers and the batch engine's chunk bound
//     actually produce — subnormals, near-1 arguments, the (0,1] lattice
//     edge values.
//
//  2. Bit-identity across dispatch: every Block kernel emits bitwise the
//     scalar reference lane's outputs at every supported dispatch level.
//     This is the property the batch/streaming equivalence of the SVT
//     engine rests on; it is asserted here against dense random and
//     adversarial inputs, for every kernel in the family.
//
// When no SIMD level is available (non-x86, SVT_DISABLE_AVX2, or an old
// CPU) the cross-dispatch tests reduce to scalar-vs-scalar and still pass.

#include "common/vecmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/distributions.h"
#include "common/rng.h"
#include "dispatch_test_util.h"

namespace svt {
namespace vec {
namespace {

// Measured max over the dense sweeps below is 1 ulp for both kernels
// (fdlibm-grade polynomials); 2 leaves headroom for worst-case inputs the
// sweeps miss, and is still far below any statistical relevance for noise
// sampling. Documented in README "Performance".
constexpr int64_t kMaxUlp = 2;

int64_t UlpDiff(double a, double b) {
  if (a == b) return 0;  // covers equal infinities; +0 == -0 on purpose
  if (std::isnan(a) && std::isnan(b)) return 0;
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<int64_t>::max();
  }
  int64_t ia = std::bit_cast<int64_t>(a);
  int64_t ib = std::bit_cast<int64_t>(b);
  // Map to a monotone integer line so the distance works across zero.
  if (ia < 0) ia = std::numeric_limits<int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<int64_t>::min() - ib;
  return ia > ib ? ia - ib : ib - ia;
}

std::vector<double> LogTestInputs() {
  std::vector<double> xs;
  // Dense geometric sweep across the full normal range.
  for (double x = 1e-300; x < 1e300; x *= 1.001) xs.push_back(x);
  // Near 1, where log loses absolute accuracy: a dense window at the ulp
  // scale (±20k ulps) plus a coarser sweep across ±1e-4.
  double lo = 1.0, hi = 1.0;
  for (int i = 0; i < 20000; ++i) {
    lo = std::nextafter(lo, 0.0);
    hi = std::nextafter(hi, 2.0);
    xs.push_back(lo);
    xs.push_back(hi);
  }
  for (double x = 0.9999; x < 1.0001; x += 1e-8) xs.push_back(x);
  // The (0,1] lattice the samplers draw from: smallest, largest, and the
  // chunk-bound edge values around them.
  xs.push_back(0x1.0p-53);                       // smallest uniform
  xs.push_back(1.0);                             // largest uniform
  xs.push_back(1.0 - 0x1.0p-53);                 // second-largest
  xs.push_back(2.0 * 0x1.0p-53);                 // second-smallest
  // Subnormals, including the very smallest.
  xs.push_back(5e-324);
  xs.push_back(1e-310);
  xs.push_back(std::numeric_limits<double>::denorm_min());
  xs.push_back(std::numeric_limits<double>::min() / 2);
  // Boundaries of the normal range.
  xs.push_back(std::numeric_limits<double>::min());
  xs.push_back(std::numeric_limits<double>::max());
  // Exact powers of two land on the decomposition seams.
  for (int e = -1074; e <= 1023; e += 37) xs.push_back(std::ldexp(1.0, e));
  return xs;
}

TEST(VecmathLogTest, UlpBoundVsLibmDenseAndAdversarial) {
  int64_t max_ulp = 0;
  double worst = 0.0;
  for (double x : LogTestInputs()) {
    const int64_t u = UlpDiff(Log(x), std::log(x));
    if (u > max_ulp) {
      max_ulp = u;
      worst = x;
    }
  }
  EXPECT_LE(max_ulp, kMaxUlp) << "worst input " << worst;
}

TEST(VecmathLogTest, UlpBoundHoldsAtEveryDispatchLevel) {
  // The cross-dispatch bit-identity tests below transfer the scalar ULP
  // bound to every lane; this asserts it directly against libm per level
  // (scalar, AVX2, AVX-512), so an accuracy regression in a SIMD lane
  // cannot hide behind a matching regression in the reference.
  ScopedDispatchLevel restore;
  const std::vector<double> xs = LogTestInputs();
  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> out(xs.size());
    LogBlock(xs, out);
    int64_t max_ulp = 0;
    double worst = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      const int64_t u = UlpDiff(out[i], std::log(xs[i]));
      if (u > max_ulp) {
        max_ulp = u;
        worst = xs[i];
      }
    }
    EXPECT_LE(max_ulp, kMaxUlp)
        << DispatchLevelName(level) << " worst input " << worst;
  }
}

TEST(VecmathLogTest, SpecialOperands) {
  EXPECT_EQ(Log(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(Log(-0.0), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(Log(-1.0)));
  EXPECT_TRUE(std::isnan(Log(-std::numeric_limits<double>::infinity())));
  EXPECT_EQ(Log(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(Log(std::nan(""))));
  EXPECT_EQ(Log(1.0), 0.0);
}

TEST(VecmathExpTest, UlpBoundVsLibmDense) {
  int64_t max_ulp = 0;
  double worst = 0.0;
  for (double x = -708.0; x < 709.0; x += 0.000717) {
    const int64_t u = UlpDiff(Exp(x), std::exp(x));
    if (u > max_ulp) {
      max_ulp = u;
      worst = x;
    }
  }
  // Tiny arguments (the near-1 outputs).
  for (double x = -1e-3; x < 1e-3; x += 1e-7) {
    max_ulp = std::max(max_ulp, UlpDiff(Exp(x), std::exp(x)));
  }
  EXPECT_LE(max_ulp, kMaxUlp) << "worst input " << worst;
}

TEST(VecmathExpTest, SpecialOperands) {
  EXPECT_EQ(Exp(0.0), 1.0);
  EXPECT_EQ(Exp(710.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(Exp(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(Exp(-800.0), 0.0);
  EXPECT_EQ(Exp(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_TRUE(std::isnan(Exp(std::nan(""))));
}

TEST(VecmathDispatchTest, NamesAndScalarAlwaysSupported) {
  EXPECT_STREQ(DispatchLevelName(DispatchLevel::kScalar), "scalar");
  EXPECT_STREQ(DispatchLevelName(DispatchLevel::kAvx2), "avx2");
  EXPECT_STREQ(DispatchLevelName(DispatchLevel::kAvx512), "avx512");
  EXPECT_TRUE(DispatchLevelSupported(DispatchLevel::kScalar));
  // The active level is always a supported one.
  EXPECT_TRUE(DispatchLevelSupported(ActiveDispatchLevel()));
  // Requesting an unsupported level fails and leaves the level unchanged.
  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!DispatchLevelSupported(level)) {
      const DispatchLevel before = ActiveDispatchLevel();
      EXPECT_FALSE(SetDispatchLevel(level));
      EXPECT_EQ(ActiveDispatchLevel(), before);
    }
  }
}

TEST(VecmathDispatchTest, ParseDispatchCap) {
  // The SVT_MAX_DISPATCH environment values; unset/empty = no cap, names
  // are case-insensitive.
  EXPECT_EQ(ParseDispatchCap(nullptr), DispatchLevel::kAvx512);
  EXPECT_EQ(ParseDispatchCap(""), DispatchLevel::kAvx512);
  EXPECT_EQ(ParseDispatchCap("scalar"), DispatchLevel::kScalar);
  EXPECT_EQ(ParseDispatchCap("0"), DispatchLevel::kScalar);
  EXPECT_EQ(ParseDispatchCap("avx2"), DispatchLevel::kAvx2);
  EXPECT_EQ(ParseDispatchCap("AVX2"), DispatchLevel::kAvx2);
  EXPECT_EQ(ParseDispatchCap("1"), DispatchLevel::kAvx2);
  EXPECT_EQ(ParseDispatchCap("avx512"), DispatchLevel::kAvx512);
  EXPECT_EQ(ParseDispatchCap("AVX512"), DispatchLevel::kAvx512);
  EXPECT_EQ(ParseDispatchCap("2"), DispatchLevel::kAvx512);
}

TEST(VecmathDispatchDeathTest, UnrecognizedCapAborts) {
  // A typo in SVT_MAX_DISPATCH must fail loudly, not silently uncap the
  // dispatch (which would hollow out a capped CI leg while it reports
  // green).
  EXPECT_DEATH(ParseDispatchCap("avx-2"), "SVT_MAX_DISPATCH");
  EXPECT_DEATH(ParseDispatchCap("bogus"), "SVT_MAX_DISPATCH");
}

void ExpectBitEqual(const std::vector<double>& a,
                    const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << " diverges at i=" << i << " (" << a[i] << " vs " << b[i]
        << ")";
  }
}

TEST(VecmathDispatchTest, LogBlockBitIdenticalAcrossLevels) {
  ScopedDispatchLevel restore;
  const std::vector<double> xs = LogTestInputs();
  std::vector<double> scalar_ref(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) scalar_ref[i] = Log(xs[i]);

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> out(xs.size());
    LogBlock(xs, out);
    ExpectBitEqual(out, scalar_ref, DispatchLevelName(level));
    // In-place operation is part of the contract.
    std::vector<double> inplace = xs;
    LogBlock(inplace, inplace);
    ExpectBitEqual(inplace, scalar_ref, "in-place");
  }
}

TEST(VecmathDispatchTest, ExpBlockBitIdenticalAcrossLevels) {
  ScopedDispatchLevel restore;
  std::vector<double> xs;
  for (double x = -745.0; x < 710.0; x += 0.01037) xs.push_back(x);
  xs.push_back(0.0);
  xs.push_back(1e9);                  // overflow lane
  xs.push_back(-1e9);                 // underflow lane
  xs.push_back(std::nan(""));         // NaN lane
  xs.push_back(705.0);                // near the fast-path domain edge
  xs.push_back(-705.0);
  std::vector<double> scalar_ref(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) scalar_ref[i] = Exp(xs[i]);

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> out(xs.size());
    ExpBlock(xs, out);
    ASSERT_EQ(out.size(), scalar_ref.size());
    for (size_t i = 0; i < out.size(); ++i) {
      if (std::isnan(scalar_ref[i])) {
        ASSERT_TRUE(std::isnan(out[i])) << "i=" << i;
        continue;
      }
      ASSERT_EQ(std::bit_cast<uint64_t>(out[i]),
                std::bit_cast<uint64_t>(scalar_ref[i]))
          << DispatchLevelName(level) << " diverges at i=" << i;
    }
  }
}

TEST(VecmathDispatchTest, SamplingKernelsBitIdenticalAcrossLevels) {
  ScopedDispatchLevel restore;
  // Raw RNG words, including the lattice edges (all-ones word -> u == 1,
  // whose -log is -0.0 and whose Gumbel output is +inf).
  Rng rng(123);
  std::vector<uint64_t> words(4096);
  rng.FillUint64(words);
  words[17] = ~0ull;
  words[2 * 33] = ~0ull;
  words[0] = 0;

  const size_t n = words.size() / 2;
  std::vector<double> ref1(words.size()), ref2(n), ref_lap(n);
  SetDispatchLevel(DispatchLevel::kScalar);
  NegLogUnitPositiveBlock(words, 1, ref1);
  NegLogUnitPositiveBlock(words, 2, ref2);
  LaplaceTransformBlock(words, 0.25, 1.75, ref_lap);
  const uint64_t ref_min1 = MinWordBlock(words, 1);
  const uint64_t ref_min2 = MinWordBlock(words, 2);

  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> out1(words.size()), out2(n), out_lap(n);
    NegLogUnitPositiveBlock(words, 1, out1);
    NegLogUnitPositiveBlock(words, 2, out2);
    LaplaceTransformBlock(words, 0.25, 1.75, out_lap);
    ExpectBitEqual(out1, ref1, "neg-log stride 1");
    ExpectBitEqual(out2, ref2, "neg-log stride 2");
    ExpectBitEqual(out_lap, ref_lap, "laplace transform");
    EXPECT_EQ(MinWordBlock(words, 1), ref_min1)
        << DispatchLevelName(level);
    EXPECT_EQ(MinWordBlock(words, 2), ref_min2)
        << DispatchLevelName(level);
  }

  // The stride-1 kernel on even words must equal the stride-2 kernel.
  std::vector<uint64_t> evens(n);
  for (size_t i = 0; i < n; ++i) evens[i] = words[2 * i];
  std::vector<double> from_evens(n);
  NegLogUnitPositiveBlock(evens, 1, from_evens);
  ExpectBitEqual(from_evens, ref2, "stride 1 on evens vs stride 2");
}

TEST(VecmathDispatchTest, ReductionsAndScansAcrossLevels) {
  ScopedDispatchLevel restore;
  Rng rng(7);
  std::vector<double> a(1000), b(1000);
  rng.FillDouble(a);
  rng.FillDouble(b);
  a[777] = 3.0;  // guaranteed hit: 3.0 + b >= 3.0

  SetDispatchLevel(DispatchLevel::kScalar);
  const double ref_max = MaxBlock(a);
  const size_t ref_sum_idx = FindFirstSumGe(a, b, 3.0);
  const size_t ref_idx = FindFirstGe(a, 2.5);
  const size_t ref_none = FindFirstGe(a, 1e9);

  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    EXPECT_EQ(std::bit_cast<uint64_t>(MaxBlock(a)),
              std::bit_cast<uint64_t>(ref_max))
        << DispatchLevelName(level);
    EXPECT_EQ(FindFirstSumGe(a, b, 3.0), ref_sum_idx);
    EXPECT_EQ(FindFirstGe(a, 2.5), ref_idx);
    EXPECT_EQ(FindFirstGe(a, 1e9), ref_none);
  }
  EXPECT_EQ(ref_none, a.size());
  EXPECT_LE(ref_sum_idx, 777u);

  // Odd (non-multiple-of-the-SIMD-width) sizes exercise the scalar tails.
  for (size_t len : {1u, 3u, 5u, 7u, 9u, 11u, 15u}) {
    const std::span<const double> head(a.data(), len);
    SetDispatchLevel(DispatchLevel::kScalar);
    const double m_scalar = MaxBlock(head);
    const size_t f_scalar = FindFirstGe(head, 0.5);
    for (DispatchLevel level :
         {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
      if (!SetDispatchLevel(level)) continue;
      EXPECT_EQ(MaxBlock(head), m_scalar)
          << DispatchLevelName(level) << " len=" << len;
      EXPECT_EQ(FindFirstGe(head, 0.5), f_scalar)
          << DispatchLevelName(level) << " len=" << len;
    }
  }
}

TEST(VecmathDispatchTest, MinBlockBitIdenticalAcrossLevels) {
  ScopedDispatchLevel restore;
  Rng rng(11);
  std::vector<double> a(1000);
  rng.FillDouble(a);
  // Adversarial splices: signed zeros, subnormals, infinities, max
  // magnitude — the values the bar-lower reduction meets in practice.
  a[0] = -0.0;
  a[1] = 0.0;
  a[13] = 5e-324;
  a[14] = -5e-324;
  a[500] = -std::numeric_limits<double>::max();
  a[501] = std::numeric_limits<double>::infinity();
  a[502] = -std::numeric_limits<double>::infinity();

  SetDispatchLevel(DispatchLevel::kScalar);
  const double ref_min = MinBlock(a);
  EXPECT_EQ(ref_min, -std::numeric_limits<double>::infinity());
  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    EXPECT_EQ(std::bit_cast<uint64_t>(MinBlock(a)),
              std::bit_cast<uint64_t>(ref_min))
        << DispatchLevelName(level);
  }

  // Odd lengths exercise the scalar tails; finite values check the
  // non-sentinel path too.
  std::vector<double> b(64);
  rng.FillDouble(b);
  for (size_t len : {1u, 2u, 3u, 5u, 7u, 9u, 15u, 31u, 33u, 64u}) {
    const std::span<const double> head(b.data(), len);
    SetDispatchLevel(DispatchLevel::kScalar);
    const double m_scalar = MinBlock(head);
    for (DispatchLevel level :
         {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
      if (!SetDispatchLevel(level)) continue;
      EXPECT_EQ(std::bit_cast<uint64_t>(MinBlock(head)),
                std::bit_cast<uint64_t>(m_scalar))
          << DispatchLevelName(level) << " len=" << len;
    }
  }
}

template <typename Code>
void CheckQuantizedSpanReductions() {
  ScopedDispatchLevel restore;
  Rng rng(17);
  constexpr Code kMax = std::numeric_limits<Code>::max();
  std::vector<Code> codes(1000);
  for (Code& c : codes) {
    c = static_cast<Code>(rng.NextUint64() & kMax);
  }
  codes[3] = kMax;  // sentinel value must surface through Max
  codes[900] = 0;   // and 0 through Min

  // Exact scalar references.
  auto ref_max = [&](std::span<const Code> s) {
    Code m = 0;
    for (Code c : s) m = std::max(m, c);
    return m;
  };
  auto ref_min = [&](std::span<const Code> s) {
    Code m = kMax;
    for (Code c : s) m = std::min(m, c);
    return m;
  };

  for (size_t start : {0u, 1u, 3u}) {
    for (size_t len : {1u, 2u, 15u, 16u, 17u, 31u, 32u, 33u, 128u, 997u}) {
      if (start + len > codes.size()) continue;
      const std::span<const Code> s(codes.data() + start, len);
      for (DispatchLevel level :
           {DispatchLevel::kScalar, DispatchLevel::kAvx2,
            DispatchLevel::kAvx512}) {
        if (!SetDispatchLevel(level)) continue;
        EXPECT_EQ(QuantizedSpanMax(s), ref_max(s))
            << DispatchLevelName(level) << " start=" << start
            << " len=" << len;
        EXPECT_EQ(QuantizedSpanMin(s), ref_min(s))
            << DispatchLevelName(level) << " start=" << start
            << " len=" << len;
      }
    }
  }
}

TEST(VecmathDispatchTest, QuantizedSpanReductionsAcrossLevels) {
  // Integer max/min are exact at every level, so the assertion is equality
  // with a scalar loop — covering both code widths, unaligned starts, and
  // every tail shape of the 128-element bound span and beyond.
  CheckQuantizedSpanReductions<uint8_t>();
  CheckQuantizedSpanReductions<uint16_t>();
}

TEST(VecmathDispatchTest, PairwiseScansAcrossLevels) {
  // The per-query-threshold compare-scan: bars vary per element. Checked
  // against a literal transcription of the streaming positive test, at
  // every level, over random bars, near-threshold bars (ties included:
  // bars[i] + rho == a[i] exactly), odd tails, and NaN patterns.
  ScopedDispatchLevel restore;
  Rng rng(99);
  const size_t n = 1003;  // odd: exercises every lane tail
  std::vector<double> a(n), b(n), bars(n);
  rng.FillDouble(a);
  rng.FillDouble(b);
  rng.FillDouble(bars);
  const double rho = 0.125;
  // Exact ties: the >= must fire on equality, at any lane position.
  for (size_t i : {size_t{37}, size_t{512}, n - 1}) {
    bars[i] = a[i] - rho;  // bars[i] + rho rounds back to exactly a[i]
  }
  // NaN answers and NaN bars must never match (ordered compare).
  a[101] = std::nan("");
  bars[202] = std::nan("");

  const auto ref_ge = [&](size_t from) {
    size_t j = from;
    while (j < n && !(a[j] >= bars[j] + rho)) ++j;
    return j;
  };
  const auto ref_sum_ge = [&](size_t from) {
    size_t j = from;
    while (j < n && !(a[j] + b[j] >= bars[j] + rho)) ++j;
    return j;
  };

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    // Walk every positive like the batch engine's ScanChunk does.
    size_t from = 0;
    while (from <= n) {
      const size_t expect = ref_ge(from);
      const size_t got =
          from + FindFirstGePairwise({a.data() + from, n - from},
                                     {bars.data() + from, n - from}, rho);
      ASSERT_EQ(got, expect)
          << DispatchLevelName(level) << " from=" << from;
      if (expect >= n) break;
      from = expect + 1;
    }
    from = 0;
    while (from <= n) {
      const size_t expect = ref_sum_ge(from);
      const size_t got = from + FindFirstSumGePairwise(
                                    {a.data() + from, n - from},
                                    {b.data() + from, n - from},
                                    {bars.data() + from, n - from}, rho);
      ASSERT_EQ(got, expect)
          << DispatchLevelName(level) << " from=" << from;
      if (expect >= n) break;
      from = expect + 1;
    }
    // No-match scan returns size().
    EXPECT_EQ(FindFirstGePairwise(a, bars, 1e9), n);
    EXPECT_EQ(FindFirstSumGePairwise(a, b, bars, 1e9), n);
    // Empty input.
    EXPECT_EQ(FindFirstGePairwise({}, {}, rho), 0u);
  }
}

TEST(VecmathFusedScanTest, MatchesUnfusedCompositionAtEveryLevel) {
  // The fused sample-and-scan kernels are *defined* as the composition of
  // the unfused pipeline: TransformBlock to materialize ν, then the
  // FindFirst* compare-scan. At every dispatch level, walking every hit
  // must reproduce the oracle's indices exactly and return the oracle's ν
  // bit for bit — this is the contract that lets the batch engine go
  // single-pass with no golden re-record.
  ScopedDispatchLevel restore;
  Rng rng(321);
  const size_t n = 1003;  // odd: exercises every lane tail
  std::vector<uint64_t> words(2 * n);
  rng.FillUint64(words);
  words[0] = ~0ull;        // u == 1 lattice edge: ν == ±0
  words[2 * 500] = 0;      // largest magnitude draw
  const double mu = 0.25, b = 1.75;
  std::vector<double> a(n), bars(n);
  rng.FillDouble(a);
  rng.FillDouble(bars);
  for (size_t i = 0; i < n; ++i) {
    a[i] = (a[i] - 0.5) * 8.0;     // straddle the ν scale
    bars[i] = (bars[i] - 0.5) * 4.0;
  }
  const double rho = 0.125;

  const Laplace dist(mu, b);
  std::vector<double> nu(n);

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    const std::string ctx = DispatchLevelName(level);
    dist.TransformBlock(words, nu);  // the oracle's ν block, same level

    // Walk all hits of all four kernels against the composed oracle.
    const auto walk = [&](auto fused, auto oracle) {
      size_t from = 0;
      while (from <= n) {
        const std::span<const uint64_t> w{words.data() + 2 * from,
                                          2 * (n - from)};
        const FusedScanHit hit = fused(w, from);
        const size_t expect = oracle(from);
        ASSERT_EQ(from + hit.index, expect) << ctx << " from=" << from;
        if (expect >= n) {
          ASSERT_EQ(hit.index, n - from);
          ASSERT_EQ(hit.nu, 0.0) << ctx << " no-hit nu must be 0";
          break;
        }
        ASSERT_EQ(std::bit_cast<uint64_t>(hit.nu),
                  std::bit_cast<uint64_t>(nu[expect]))
            << ctx << " nu diverges at " << expect;
        from = expect + 1;
      }
    };

    const double bar = mu + b;  // plenty of hits, plenty of gaps
    walk(
        [&](std::span<const uint64_t> w, size_t) {
          return FusedLaplaceScanGe(w, mu, b, bar);
        },
        [&](size_t from) {
          size_t j = from;
          while (j < n && !(nu[j] >= bar)) ++j;
          return j;
        });
    walk(
        [&](std::span<const uint64_t> w, size_t from) {
          return FusedLaplaceScanSumGe(w, mu, b, {a.data() + from, n - from},
                                       bar);
        },
        [&](size_t from) {
          return from + FindFirstSumGe({a.data() + from, n - from},
                                       {nu.data() + from, n - from}, bar);
        });
    walk(
        [&](std::span<const uint64_t> w, size_t from) {
          return FusedLaplaceScanGePairwise(
              w, mu, b, {bars.data() + from, n - from}, rho);
        },
        [&](size_t from) {
          size_t j = from;
          while (j < n && !(nu[j] >= bars[j] + rho)) ++j;
          return j;
        });
    walk(
        [&](std::span<const uint64_t> w, size_t from) {
          return FusedLaplaceScanSumGePairwise(
              w, mu, b, {a.data() + from, n - from},
              {bars.data() + from, n - from}, rho);
        },
        [&](size_t from) {
          return from + FindFirstSumGePairwise({a.data() + from, n - from},
                                               {nu.data() + from, n - from},
                                               {bars.data() + from, n - from},
                                               rho);
        });
  }
}

TEST(VecmathFusedScanTest, BitIdenticalAcrossDispatchLevels) {
  // Fused results (index AND ν payload) must not depend on the lane, for
  // hit positions at every lane offset.
  ScopedDispatchLevel restore;
  Rng rng(99);
  const size_t n = 531;
  std::vector<uint64_t> words(2 * n);
  rng.FillUint64(words);
  std::vector<double> a(n), bars(n);
  rng.FillDouble(a);
  rng.FillDouble(bars);

  ASSERT_TRUE(SetDispatchLevel(DispatchLevel::kScalar));
  std::vector<FusedScanHit> ref;
  for (size_t from = 0; from <= n;) {
    const FusedScanHit hit = FusedLaplaceScanSumGePairwise(
        {words.data() + 2 * from, 2 * (n - from)}, 0.0, 2.0,
        {a.data() + from, n - from}, {bars.data() + from, n - from}, 0.5);
    ref.push_back(hit);
    if (from + hit.index >= n) break;
    from += hit.index + 1;
  }
  ASSERT_GT(ref.size(), 2u) << "workload must contain several hits";

  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    size_t k = 0;
    for (size_t from = 0; from <= n;) {
      const FusedScanHit hit = FusedLaplaceScanSumGePairwise(
          {words.data() + 2 * from, 2 * (n - from)}, 0.0, 2.0,
          {a.data() + from, n - from}, {bars.data() + from, n - from}, 0.5);
      ASSERT_LT(k, ref.size());
      ASSERT_EQ(hit.index, ref[k].index) << DispatchLevelName(level);
      ASSERT_EQ(std::bit_cast<uint64_t>(hit.nu),
                std::bit_cast<uint64_t>(ref[k].nu))
          << DispatchLevelName(level);
      ++k;
      if (from + hit.index >= n) break;
      from += hit.index + 1;
    }
    EXPECT_EQ(k, ref.size()) << DispatchLevelName(level);
  }
}

TEST(VecmathFusedScanTest, OddTailsAndEmptySpans) {
  // Chunk tails shorter than one SIMD width delegate to the scalar lane —
  // the same rule as the unfused kernels. Regression-test every length
  // that straddles the AVX2 (4) and AVX-512 (8, plus sub-width) tails,
  // and the empty span, at every level.
  ScopedDispatchLevel restore;
  Rng rng(7);
  std::vector<uint64_t> words(2 * 32);
  rng.FillUint64(words);
  std::vector<double> a(32, -1.0), bars(32, 1e9);
  const Laplace dist(0.0, 1.0);
  std::vector<double> nu(32);

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    dist.TransformBlock(words, nu);
    for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5},
                       size_t{7}, size_t{9}, size_t{11}, size_t{15},
                       size_t{17}, size_t{31}}) {
      // No-hit scans return {len, 0.0} for every variant.
      EXPECT_EQ(FusedLaplaceScanGe({words.data(), 2 * len}, 0.0, 1.0, 1e9)
                    .index,
                len)
          << DispatchLevelName(level) << " len=" << len;
      EXPECT_EQ(FusedLaplaceScanSumGe({words.data(), 2 * len}, 0.0, 1.0,
                                      {a.data(), len}, 1e9)
                    .index,
                len);
      EXPECT_EQ(FusedLaplaceScanGePairwise({words.data(), 2 * len}, 0.0, 1.0,
                                           {bars.data(), len}, 0.0)
                    .index,
                len);
      EXPECT_EQ(
          FusedLaplaceScanSumGePairwise({words.data(), 2 * len}, 0.0, 1.0,
                                        {a.data(), len}, {bars.data(), len},
                                        0.0)
              .index,
          len);
      if (len == 0) continue;
      // A hit in the very last element of an odd tail is found with the
      // oracle's ν.
      const size_t last = len - 1;
      const double bar = nu[last];  // ties fire the ordered >=
      const FusedScanHit hit =
          FusedLaplaceScanGe({words.data(), 2 * len}, 0.0, 1.0, bar);
      ASSERT_LE(hit.index, last);
      ASSERT_EQ(std::bit_cast<uint64_t>(hit.nu),
                std::bit_cast<uint64_t>(nu[hit.index]))
          << DispatchLevelName(level) << " len=" << len;
    }
  }
}

TEST(VecmathExpNoiseTest, NegLogUnitPositiveScalarMatchesBlock) {
  // The scalar form is the single-element contract of the block kernel —
  // this is what makes streaming exponential draws and block transforms
  // draw-for-draw bit-identical.
  Rng rng(4242);
  std::vector<uint64_t> words(257);
  rng.FillUint64(words);
  words[0] = 0;        // largest −log on the lattice
  words[1] = ~0ull;    // u == 1 → −log == -0.0
  ScopedDispatchLevel restore;
  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> block(words.size());
    NegLogUnitPositiveBlock(words, 1, block);
    for (size_t i = 0; i < words.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(NegLogUnitPositive(words[i])),
                std::bit_cast<uint64_t>(block[i]))
          << DispatchLevelName(level) << " i=" << i;
      ASSERT_EQ(
          std::bit_cast<uint64_t>(NegLogUnitPositive(words[i])),
          std::bit_cast<uint64_t>(-Log(Rng::ToUnitDoublePositive(words[i]))))
          << "i=" << i;
    }
  }
}

TEST(VecmathExpNoiseTest, ExponentialTransformUlpBoundVsLibm) {
  // The one-word exponential transform tracks the libm composition
  // b·(−std::log(u)) within the documented kernel bound over a dense random
  // sweep plus the lattice edges.
  Rng rng(17);
  std::vector<uint64_t> words(65536);
  rng.FillUint64(words);
  words[0] = 0;
  words[1] = ~0ull;
  words[2] = 1;
  const double b = 1.75;
  std::vector<double> out(words.size());
  ExponentialTransformBlock(words, b, out);
  int64_t max_ulp = 0;
  for (size_t i = 0; i < words.size(); ++i) {
    const double u = Rng::ToUnitDoublePositive(words[i]);
    max_ulp = std::max(max_ulp, UlpDiff(out[i], b * (-std::log(u))));
  }
  EXPECT_LE(max_ulp, kMaxUlp);
  // One-sided support: every variate is ≥ 0 (u == 1 gives -0.0, which the
  // IEEE product with b keeps as -0.0 — still "not a negative noise").
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_FALSE(out[i] < 0.0) << "i=" << i;
  }
}

TEST(VecmathExpNoiseTest, TransformBitIdenticalAcrossLevels) {
  // ExponentialTransformBlock is defined as the b·NegLogUnitPositiveBlock
  // composition at stride 1; pin the definition at the scalar level and the
  // bit-identity of every SIMD lane against it.
  ScopedDispatchLevel restore;
  Rng rng(123);
  std::vector<uint64_t> words(4099);  // odd: exercises every lane tail
  rng.FillUint64(words);
  words[17] = ~0ull;
  words[33] = 0;
  const double b = 0.625;

  SetDispatchLevel(DispatchLevel::kScalar);
  std::vector<double> ref(words.size());
  ExponentialTransformBlock(words, b, ref);
  for (size_t i = 0; i < words.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(ref[i]),
              std::bit_cast<uint64_t>(b * NegLogUnitPositive(words[i])))
        << "composition definition diverges at i=" << i;
  }

  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> out(words.size());
    ExponentialTransformBlock(words, b, out);
    ExpectBitEqual(out, ref, DispatchLevelName(level));
  }
}

TEST(VecmathFusedExpScanTest, MatchesUnfusedCompositionAtEveryLevel) {
  // Exponential mirror of the Laplace fused-vs-composition walk: the fused
  // kernels must reproduce TransformBlock + FindFirst* exactly — indices
  // and ν payload bits — at every dispatch level. One word per variate.
  ScopedDispatchLevel restore;
  Rng rng(321);
  const size_t n = 1003;  // odd: exercises every lane tail
  std::vector<uint64_t> words(n);
  rng.FillUint64(words);
  words[0] = ~0ull;   // u == 1 lattice edge: ν == -0.0
  words[500] = 0;     // largest draw
  const double b = 1.75;
  std::vector<double> a(n), bars(n);
  rng.FillDouble(a);
  rng.FillDouble(bars);
  for (size_t i = 0; i < n; ++i) {
    a[i] = (a[i] - 0.5) * 8.0;     // straddle the ν scale
    bars[i] = bars[i] * 4.0;       // one-sided ν: keep bars in reach
  }
  const double rho = 0.125;

  const Exponential dist = Exponential::FromScale(b);
  std::vector<double> nu(n);

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    const std::string ctx = DispatchLevelName(level);
    dist.TransformBlock(words, nu);  // the oracle's ν block, same level

    const auto walk = [&](auto fused, auto oracle) {
      size_t from = 0;
      while (from <= n) {
        const std::span<const uint64_t> w{words.data() + from, n - from};
        const FusedScanHit hit = fused(w, from);
        const size_t expect = oracle(from);
        ASSERT_EQ(from + hit.index, expect) << ctx << " from=" << from;
        if (expect >= n) {
          ASSERT_EQ(hit.index, n - from);
          ASSERT_EQ(hit.nu, 0.0) << ctx << " no-hit nu must be 0";
          break;
        }
        ASSERT_EQ(std::bit_cast<uint64_t>(hit.nu),
                  std::bit_cast<uint64_t>(nu[expect]))
            << ctx << " nu diverges at " << expect;
        from = expect + 1;
      }
    };

    const double bar = b;  // plenty of hits, plenty of gaps
    walk(
        [&](std::span<const uint64_t> w, size_t) {
          return FusedExpScanGe(w, b, bar);
        },
        [&](size_t from) {
          size_t j = from;
          while (j < n && !(nu[j] >= bar)) ++j;
          return j;
        });
    walk(
        [&](std::span<const uint64_t> w, size_t from) {
          return FusedExpScanSumGe(w, b, {a.data() + from, n - from}, bar);
        },
        [&](size_t from) {
          return from + FindFirstSumGe({a.data() + from, n - from},
                                       {nu.data() + from, n - from}, bar);
        });
    walk(
        [&](std::span<const uint64_t> w, size_t from) {
          return FusedExpScanGePairwise(w, b, {bars.data() + from, n - from},
                                        rho);
        },
        [&](size_t from) {
          size_t j = from;
          while (j < n && !(nu[j] >= bars[j] + rho)) ++j;
          return j;
        });
    walk(
        [&](std::span<const uint64_t> w, size_t from) {
          return FusedExpScanSumGePairwise(
              w, b, {a.data() + from, n - from},
              {bars.data() + from, n - from}, rho);
        },
        [&](size_t from) {
          return from + FindFirstSumGePairwise({a.data() + from, n - from},
                                               {nu.data() + from, n - from},
                                               {bars.data() + from, n - from},
                                               rho);
        });
  }
}

TEST(VecmathFusedExpScanTest, BitIdenticalAcrossDispatchLevels) {
  // Fused exponential results (index AND ν payload) must not depend on the
  // lane, for hit positions at every lane offset.
  ScopedDispatchLevel restore;
  Rng rng(99);
  const size_t n = 531;
  std::vector<uint64_t> words(n);
  rng.FillUint64(words);
  std::vector<double> a(n), bars(n);
  rng.FillDouble(a);
  rng.FillDouble(bars);

  ASSERT_TRUE(SetDispatchLevel(DispatchLevel::kScalar));
  std::vector<FusedScanHit> ref;
  for (size_t from = 0; from <= n;) {
    const FusedScanHit hit = FusedExpScanSumGePairwise(
        {words.data() + from, n - from}, 2.0, {a.data() + from, n - from},
        {bars.data() + from, n - from}, 0.5);
    ref.push_back(hit);
    if (from + hit.index >= n) break;
    from += hit.index + 1;
  }
  ASSERT_GT(ref.size(), 2u) << "workload must contain several hits";

  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    size_t k = 0;
    for (size_t from = 0; from <= n;) {
      const FusedScanHit hit = FusedExpScanSumGePairwise(
          {words.data() + from, n - from}, 2.0, {a.data() + from, n - from},
          {bars.data() + from, n - from}, 0.5);
      ASSERT_LT(k, ref.size());
      ASSERT_EQ(hit.index, ref[k].index) << DispatchLevelName(level);
      ASSERT_EQ(std::bit_cast<uint64_t>(hit.nu),
                std::bit_cast<uint64_t>(ref[k].nu))
          << DispatchLevelName(level);
      ++k;
      if (from + hit.index >= n) break;
      from += hit.index + 1;
    }
    EXPECT_EQ(k, ref.size()) << DispatchLevelName(level);
  }
}

TEST(VecmathFusedExpScanTest, OddTailsAndEmptySpans) {
  // Same tail rule as the Laplace kernels: sub-SIMD-width tails delegate to
  // the scalar lane. One word per element here.
  ScopedDispatchLevel restore;
  Rng rng(7);
  std::vector<uint64_t> words(32);
  rng.FillUint64(words);
  std::vector<double> a(32, -1.0), bars(32, 1e9);
  const Exponential dist = Exponential::FromScale(1.0);
  std::vector<double> nu(32);

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    dist.TransformBlock(words, nu);
    for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5},
                       size_t{7}, size_t{9}, size_t{11}, size_t{15},
                       size_t{17}, size_t{31}}) {
      // No-hit scans return {len, 0.0} for every variant.
      EXPECT_EQ(FusedExpScanGe({words.data(), len}, 1.0, 1e9).index, len)
          << DispatchLevelName(level) << " len=" << len;
      EXPECT_EQ(
          FusedExpScanSumGe({words.data(), len}, 1.0, {a.data(), len}, 1e9)
              .index,
          len);
      EXPECT_EQ(FusedExpScanGePairwise({words.data(), len}, 1.0,
                                       {bars.data(), len}, 0.0)
                    .index,
                len);
      EXPECT_EQ(FusedExpScanSumGePairwise({words.data(), len}, 1.0,
                                          {a.data(), len}, {bars.data(), len},
                                          0.0)
                    .index,
                len);
      if (len == 0) continue;
      // A hit in the very last element of an odd tail is found with the
      // oracle's ν.
      const size_t last = len - 1;
      const double bar = nu[last];  // ties fire the ordered >=
      const FusedScanHit hit = FusedExpScanGe({words.data(), len}, 1.0, bar);
      ASSERT_LE(hit.index, last);
      ASSERT_EQ(std::bit_cast<uint64_t>(hit.nu),
                std::bit_cast<uint64_t>(nu[hit.index]))
          << DispatchLevelName(level) << " len=" << len;
    }
  }
}

TEST(VecmathDispatchTest, ScalarKernelMatchesComposedDefinition) {
  // The fused sampling kernels are *defined* by composition of Log and the
  // lattice map; pin that definition at the scalar level.
  Rng rng(99);
  std::vector<uint64_t> words(64);
  rng.FillUint64(words);
  ScopedDispatchLevel restore;
  SetDispatchLevel(DispatchLevel::kScalar);
  std::vector<double> out(64);
  NegLogUnitPositiveBlock(words, 1, out);
  for (size_t i = 0; i < words.size(); ++i) {
    const double expected = -Log(Rng::ToUnitDoublePositive(words[i]));
    ASSERT_EQ(std::bit_cast<uint64_t>(out[i]),
              std::bit_cast<uint64_t>(expected))
        << "i=" << i;
  }
}

// --- Megakernel equivalence: in-register generation vs composition -------

bool StatesEqual(const BlockRng::State& a, const BlockRng::State& b) {
  return a.phase == b.phase && a.words == b.words;
}

// Walks every hit of a megakernel against its FillUint64 + fused-scan
// composition oracle: hit indices, ν payloads bit for bit, and — after
// every single call — the stream position, by advancing a shadow Rng with
// FillUint64 over exactly the words the megakernel claims to have
// consumed and comparing States. This is the "in-kernel generation is
// stream-neutral" contract, including mid-chunk positive resume (each
// loop iteration resumes the same State the previous hit left behind).
// `pre_draws` > 0 enters the kernels at an unaligned phase, covering the
// SIMD lanes' whole-call scalar delegation.
template <typename MegaFn, typename FusedFn>
void WalkMegaVsComposition(uint64_t seed, size_t n, size_t wpv,
                           uint32_t pre_draws, MegaFn mega_fn,
                           FusedFn fused_fn, const std::string& ctx,
                           size_t* hits_out = nullptr) {
  Rng comp_rng(seed), mega_rng(seed), shadow(seed);
  for (uint32_t i = 0; i < pre_draws; ++i) {
    comp_rng.NextUint64();
    mega_rng.NextUint64();
    shadow.NextUint64();
  }
  std::vector<uint64_t> words(wpv * n);
  comp_rng.FillUint64(words);
  BlockRng::State st = mega_rng.state();
  std::vector<uint64_t> scratch;
  size_t hits = 0;
  size_t from = 0;
  while (from <= n) {
    const size_t rem = n - from;
    const FusedScanHit want =
        fused_fn(std::span<const uint64_t>{words.data() + wpv * from,
                                           wpv * rem},
                 from);
    const FusedScanHit got = mega_fn(&st, from);
    ASSERT_EQ(got.index, want.index) << ctx << " from=" << from;
    ASSERT_EQ(std::bit_cast<uint64_t>(got.nu),
              std::bit_cast<uint64_t>(want.nu))
        << ctx << " nu diverges, from=" << from;
    const size_t consumed =
        (want.index < rem ? want.index + 1 : rem) * wpv;
    scratch.resize(consumed);
    shadow.FillUint64(scratch);
    const BlockRng::State expect = shadow.state();
    ASSERT_TRUE(StatesEqual(st, expect))
        << ctx << " stream position diverges after scan from=" << from;
    if (want.index >= rem) break;
    ++hits;
    from += want.index + 1;
  }
  // The full walk consumed exactly the words the composition filled.
  ASSERT_TRUE(StatesEqual(st, comp_rng.state())) << ctx;
  if (hits_out) *hits_out = hits;
}

TEST(VecmathMegaScanTest, MatchesFillPlusFusedCompositionAtEveryLevel) {
  ScopedDispatchLevel restore;
  const size_t n = 1003;  // odd: exercises every lane tail
  std::vector<double> a(n);
  Rng setup(555);
  setup.FillDouble(a);
  for (double& x : a) x = (x - 0.5) * 8.0;  // straddle the ν scale
  const double mu = 0.25, b = 1.75;
  const double bar = mu + b;  // plenty of hits, plenty of gaps

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    for (uint32_t pre : {0u, 1u, 3u}) {
      const std::string ctx =
          std::string(DispatchLevelName(level)) + " pre=" + std::to_string(pre);
      size_t hits = 0;
      WalkMegaVsComposition(
          17, n, 2, pre,
          [&](BlockRng::State* st, size_t from) {
            return MegaLaplaceScanSumGe(st, mu, b, {a.data() + from, n - from},
                                        bar);
          },
          [&](std::span<const uint64_t> w, size_t from) {
            return FusedLaplaceScanSumGe(w, mu, b, {a.data() + from, n - from},
                                         bar);
          },
          ctx + " laplace", &hits);
      EXPECT_GT(hits, 2u) << ctx << " workload must contain several hits";
      WalkMegaVsComposition(
          17, n, 1, pre,
          [&](BlockRng::State* st, size_t from) {
            return MegaExpScanSumGe(st, b, {a.data() + from, n - from}, bar);
          },
          [&](std::span<const uint64_t> w, size_t from) {
            return FusedExpScanSumGe(w, b, {a.data() + from, n - from}, bar);
          },
          ctx + " exp", &hits);
      EXPECT_GT(hits, 2u) << ctx << " workload must contain several hits";
    }
  }
}

TEST(VecmathMegaScanTest, OddTailsEmptySpansAndEdgeBars) {
  // Lengths straddling the AVX2 (4) and AVX-512 (8) group widths, the
  // empty span, a bar no element reaches (pure miss: full-span state
  // advance), a bar every element clears (immediate hit: one-element
  // advance every call), and a moderate bar in between — all walked
  // against the composition at every level.
  ScopedDispatchLevel restore;
  constexpr size_t kMaxLen = 33;
  std::vector<double> a(kMaxLen, 0.0);
  const double mu = 0.0, b = 1.0;

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5},
                       size_t{7}, size_t{9}, size_t{11}, size_t{15},
                       size_t{17}, size_t{31}, size_t{33}}) {
      for (double bar : {1e9, -1e9, 0.5}) {
        const std::string ctx = std::string(DispatchLevelName(level)) +
                                " len=" + std::to_string(len) +
                                " bar=" + std::to_string(bar);
        WalkMegaVsComposition(
            7, len, 2, 0,
            [&](BlockRng::State* st, size_t from) {
              return MegaLaplaceScanSumGe(st, mu, b,
                                          {a.data() + from, len - from}, bar);
            },
            [&](std::span<const uint64_t> w, size_t from) {
              return FusedLaplaceScanSumGe(w, mu, b,
                                           {a.data() + from, len - from}, bar);
            },
            ctx + " laplace");
        WalkMegaVsComposition(
            7, len, 1, 0,
            [&](BlockRng::State* st, size_t from) {
              return MegaExpScanSumGe(st, b, {a.data() + from, len - from},
                                      bar);
            },
            [&](std::span<const uint64_t> w, size_t from) {
              return FusedExpScanSumGe(w, b, {a.data() + from, len - from},
                                       bar);
            },
            ctx + " exp");
      }
    }
  }
}

TEST(VecmathMegaScanTest, BitIdenticalAcrossDispatchLevels) {
  // Megakernel hit sequences (index AND ν payload) and final stream
  // positions must not depend on the lane.
  ScopedDispatchLevel restore;
  const size_t n = 531;
  std::vector<double> a(n);
  Rng setup(99);
  setup.FillDouble(a);

  ASSERT_TRUE(SetDispatchLevel(DispatchLevel::kScalar));
  std::vector<FusedScanHit> ref;
  BlockRng::State ref_state;
  {
    Rng rng(99);
    BlockRng::State st = rng.state();
    for (size_t from = 0; from <= n;) {
      const FusedScanHit hit = MegaLaplaceScanSumGe(
          &st, 0.0, 2.0, {a.data() + from, n - from}, 1.5);
      ref.push_back(hit);
      if (from + hit.index >= n) break;
      from += hit.index + 1;
    }
    ref_state = st;
  }
  ASSERT_GT(ref.size(), 2u) << "workload must contain several hits";

  for (DispatchLevel level : {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    Rng rng(99);
    BlockRng::State st = rng.state();
    size_t k = 0;
    for (size_t from = 0; from <= n;) {
      const FusedScanHit hit = MegaLaplaceScanSumGe(
          &st, 0.0, 2.0, {a.data() + from, n - from}, 1.5);
      ASSERT_LT(k, ref.size());
      ASSERT_EQ(hit.index, ref[k].index) << DispatchLevelName(level);
      ASSERT_EQ(std::bit_cast<uint64_t>(hit.nu),
                std::bit_cast<uint64_t>(ref[k].nu))
          << DispatchLevelName(level);
      ++k;
      if (from + hit.index >= n) break;
      from += hit.index + 1;
    }
    EXPECT_EQ(k, ref.size()) << DispatchLevelName(level);
    EXPECT_TRUE(StatesEqual(st, ref_state)) << DispatchLevelName(level);
  }
}

TEST(VecmathMegaBoundedTest, SkipWordThresholdShape) {
  // No sound threshold exists when some answer reaches the bar (gap <= 0)
  // or the inputs are degenerate; otherwise the threshold shrinks (skips
  // more) as the gap grows, and a huge gap skips everything but word 0's
  // neighborhood. All returns stay at or below the sentinel + 1, the
  // AVX2 signed-compare cap.
  EXPECT_GE(MegaSkipWordThreshold(5.0, 5.0, 1.0), kMegaNeverSkipWord);
  EXPECT_GE(MegaSkipWordThreshold(7.0, 5.0, 1.0), kMegaNeverSkipWord);
  EXPECT_GE(MegaSkipWordThreshold(0.0, 1.0, 0.0), kMegaNeverSkipWord);
  uint64_t prev = UINT64_MAX;
  for (double gap : {0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0}) {
    const uint64_t w = MegaSkipWordThreshold(0.0, gap, 1.7);
    EXPECT_LE(w, kMegaNeverSkipWord + 1) << "gap=" << gap;
    EXPECT_LE(w, prev) << "gap=" << gap;
    prev = w;
  }
  EXPECT_LT(MegaSkipWordThreshold(0.0, 40.0, 1.0), uint64_t{1} << 11);
}

TEST(VecmathMegaBoundedTest, FillMinScanSpansMatchesCompositionAtEveryLevel) {
  // The fused generate-bound-and-scan pass is defined by the composition
  // it replaces: FillUint64 of the same words, the minimum magnitude word
  // per span, and the complete set of positives a fused-scan walk over
  // those words finds — indices and ν payloads bit for bit, in order —
  // with the stream left where the fill leaves it. Covers aligned and
  // unaligned entry, short final spans and spans narrower than a chunk.
  // Also pins the overflow contract: with a tiny max_hits the return value
  // still counts every positive and the stored prefix is unchanged.
  ScopedDispatchLevel restore;
  const double b = 2.25;
  const double bar = 0.5;

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    for (size_t n : {size_t{37}, size_t{128}, size_t{1000}, size_t{2048}}) {
      for (size_t span : {size_t{8}, size_t{128}}) {
        for (uint32_t pre : {0u, 1u}) {
          for (int exp_nu = 0; exp_nu <= 1; ++exp_nu) {
            const std::string ctx =
                std::string(DispatchLevelName(level)) + " n=" +
                std::to_string(n) + " span=" + std::to_string(span) +
                " pre=" + std::to_string(pre) +
                " exp=" + std::to_string(exp_nu);
            const size_t wpv = exp_nu ? 1 : 2;
            std::vector<double> a(n);
            Rng setup(n * 7 + exp_nu);
            setup.FillDouble(a);
            double a_max = -1e300;
            for (size_t i = 0; i < n; ++i) {
              a[i] = bar - 10.0 * a[i];
              a_max = std::max(a_max, a[i]);
            }
            const uint64_t skip = MegaSkipWordThreshold(a_max, bar, b);
            ASSERT_LT(skip, kMegaNeverSkipWord) << ctx;
            const size_t nspans = (n + span - 1) / span;

            Rng ref_rng(77);
            for (uint32_t i = 0; i < pre; ++i) ref_rng.NextUint64();
            const BlockRng::State s0 = ref_rng.state();

            // Reference: the composition over the filled words.
            std::vector<uint64_t> words(wpv * n);
            ref_rng.FillUint64(words);
            std::vector<uint64_t> ref_min(nspans, ~0ull);
            for (size_t i = 0; i < n; ++i) {
              ref_min[i / span] = std::min(ref_min[i / span], words[wpv * i]);
            }
            const uint64_t ref_total =
                *std::min_element(ref_min.begin(), ref_min.end());
            std::vector<FusedScanHit> ref_hits;
            for (size_t from = 0; from < n;) {
              const std::span<const double> rest{a.data() + from, n - from};
              const std::span<const uint64_t> w{words.data() + wpv * from,
                                                wpv * (n - from)};
              const FusedScanHit h =
                  exp_nu ? FusedExpScanSumGe(w, b, rest, bar)
                         : FusedLaplaceScanSumGe(w, 0.0, b, rest, bar);
              if (h.index >= n - from) break;
              ref_hits.push_back({from + h.index, h.nu});
              from += h.index + 1;
            }
            ASSERT_GT(ref_hits.size(), 1u)
                << ctx << " workload must contain hits";

            BlockRng::State st = s0;
            std::vector<uint64_t> smin(nspans + 1, 0xdecafbadull);
            std::vector<FusedScanHit> hits(n);
            uint64_t total = 0;
            const size_t found =
                exp_nu ? MegaExpFillMinScanSpans(&st, b, a, bar, skip, span,
                                                 smin.data(), hits.data(), n,
                                                 &total)
                       : MegaLaplaceFillMinScanSpans(&st, 0.0, b, a, bar, skip,
                                                     span, smin.data(),
                                                     hits.data(), n, &total);
            EXPECT_EQ(total, ref_total) << ctx;
            ASSERT_EQ(found, ref_hits.size()) << ctx;
            for (size_t k = 0; k < found; ++k) {
              ASSERT_EQ(hits[k].index, ref_hits[k].index) << ctx << " k=" << k;
              ASSERT_EQ(std::bit_cast<uint64_t>(hits[k].nu),
                        std::bit_cast<uint64_t>(ref_hits[k].nu))
                  << ctx << " k=" << k;
            }
            for (size_t j = 0; j < nspans; ++j) {
              ASSERT_EQ(smin[j], ref_min[j]) << ctx << " span " << j;
            }
            EXPECT_EQ(smin[nspans], 0xdecafbadull)
                << ctx << " wrote past the last span";
            ASSERT_TRUE(StatesEqual(st, ref_rng.state()))
                << ctx << " end state";

            // Overflow: max_hits = 1 stores only the first hit but still
            // counts them all and leaves the reductions and state unchanged.
            BlockRng::State st2 = s0;
            FusedScanHit first{};
            uint64_t total2 = 0;
            const size_t found2 =
                exp_nu ? MegaExpFillMinScanSpans(&st2, b, a, bar, skip, span,
                                                 smin.data(), &first, 1,
                                                 &total2)
                       : MegaLaplaceFillMinScanSpans(&st2, 0.0, b, a, bar,
                                                     skip, span, smin.data(),
                                                     &first, 1, &total2);
            EXPECT_EQ(found2, found) << ctx;
            EXPECT_EQ(total2, ref_total) << ctx;
            EXPECT_EQ(first.index, ref_hits[0].index) << ctx;
            ASSERT_TRUE(StatesEqual(st2, ref_rng.state()))
                << ctx << " overflow end state";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace vec
}  // namespace svt
