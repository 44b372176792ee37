// The vecmath layer's two contracts:
//
//  1. Accuracy: the polynomial Log kernel tracks libm within a small,
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

// Uniform [0, 1) test inputs, one NextDouble() draw each.
void FillUnit(Rng& rng, std::span<double> out) {
  for (double& x : out) x = rng.NextDouble();
}

// Measured max over the dense sweeps below is 1 ulp (an fdlibm-grade
// polynomial); 2 leaves headroom for worst-case inputs the
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
  // A second u == 1 magnitude with the opposite sign word, so both signs
  // of the zero product reach the mu + below.
  words[2 * 34] = ~0ull;
  words[2 * 34 + 1] = ~words[2 * 33 + 1];

  const size_t n = words.size() / 2;
  const double b = 1.75;
  // mu = ±0.0 pins the transform's mu + on the zero products of the u == 1
  // elements: -0.0 + (-0.0) is -0.0 but -0.0 + (+0.0) is +0.0, so a body
  // that adds the fused pass's +0.0 before (or instead of) mu diverges.
  const double mus[] = {0.25, 0.0, -0.0, -3.5};
  std::vector<std::vector<double>> ref_lap;
  std::vector<double> ref_exp(words.size());
  SetDispatchLevel(DispatchLevel::kScalar);
  for (double mu : mus) {
    ref_lap.emplace_back(n);
    LaplaceTransformBlock(words, mu, b, ref_lap.back());
    // The scalar lane is the definition: mu + (b·e with its sign flipped
    // where the sign word's bit 63 is 0), e = -Log(u).
    for (size_t i = 0; i < n; ++i) {
      const double e = -Log(Rng::ToUnitDoublePositive(words[2 * i]));
      const uint64_t flip = ~words[2 * i + 1] & 0x8000'0000'0000'0000ull;
      const double want =
          mu + std::bit_cast<double>(std::bit_cast<uint64_t>(b * e) ^ flip);
      ASSERT_EQ(std::bit_cast<uint64_t>(ref_lap.back()[i]),
                std::bit_cast<uint64_t>(want))
          << "mu=" << mu << " i=" << i;
    }
  }
  ExponentialTransformBlock(words, 1.0, ref_exp);
  const uint64_t ref_min1 = MinWordBlock(words, 1);
  const uint64_t ref_min2 = MinWordBlock(words, 2);

  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    for (size_t k = 0; k < std::size(mus); ++k) {
      std::vector<double> out_lap(n);
      LaplaceTransformBlock(words, mus[k], b, out_lap);
      ExpectBitEqual(out_lap, ref_lap[k],
                     (std::string("laplace transform mu=") +
                      std::to_string(mus[k]) + " " + DispatchLevelName(level))
                         .c_str());
    }
    std::vector<double> out_exp(words.size());
    ExponentialTransformBlock(words, 1.0, out_exp);
    ExpectBitEqual(out_exp, ref_exp, "exponential transform at b = 1");
    EXPECT_EQ(MinWordBlock(words, 1), ref_min1)
        << DispatchLevelName(level);
    EXPECT_EQ(MinWordBlock(words, 2), ref_min2)
        << DispatchLevelName(level);
  }
}

TEST(VecmathDispatchTest, ReductionsAcrossLevels) {
  ScopedDispatchLevel restore;
  Rng rng(7);
  std::vector<double> a(1000);
  FillUnit(rng, a);
  a[777] = 3.0;

  SetDispatchLevel(DispatchLevel::kScalar);
  const double ref_max = MaxBlock(a);
  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    EXPECT_EQ(std::bit_cast<uint64_t>(MaxBlock(a)),
              std::bit_cast<uint64_t>(ref_max))
        << DispatchLevelName(level);
  }

  // Odd (non-multiple-of-the-SIMD-width) sizes exercise the scalar tails.
  for (size_t len : {1u, 3u, 5u, 7u, 9u, 11u, 15u}) {
    const std::span<const double> head(a.data(), len);
    SetDispatchLevel(DispatchLevel::kScalar);
    const double m_scalar = MaxBlock(head);
    for (DispatchLevel level :
         {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
      if (!SetDispatchLevel(level)) continue;
      EXPECT_EQ(MaxBlock(head), m_scalar)
          << DispatchLevelName(level) << " len=" << len;
    }
  }
}

TEST(VecmathDispatchTest, MinBlockBitIdenticalAcrossLevels) {
  ScopedDispatchLevel restore;
  Rng rng(11);
  std::vector<double> a(1000);
  FillUnit(rng, a);
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
  FillUnit(rng, b);
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

TEST(VecmathDispatchTest, QuantizedSpanReductionsAcrossLevels) {
  // Integer max is exact at every level, so the assertion is equality with
  // a scalar loop — covering unaligned starts and every tail shape of the
  // 128-element bound span and beyond.
  ScopedDispatchLevel restore;
  Rng rng(17);
  constexpr uint16_t kMax = std::numeric_limits<uint16_t>::max();
  std::vector<uint16_t> codes(1000);
  for (uint16_t& c : codes) {
    c = static_cast<uint16_t>(rng.NextUint64() & kMax);
  }
  codes[3] = kMax;  // the sentinel value must surface through Max

  for (size_t start : {0u, 1u, 3u}) {
    for (size_t len : {1u, 2u, 15u, 16u, 17u, 31u, 32u, 33u, 128u, 997u}) {
      if (start + len > codes.size()) continue;
      const std::span<const uint16_t> s(codes.data() + start, len);
      const uint16_t want = *std::max_element(s.begin(), s.end());
      for (DispatchLevel level :
           {DispatchLevel::kScalar, DispatchLevel::kAvx2,
            DispatchLevel::kAvx512}) {
        if (!SetDispatchLevel(level)) continue;
        EXPECT_EQ(QuantizedSpanMax(s), want)
            << DispatchLevelName(level) << " start=" << start
            << " len=" << len;
      }
    }
  }
}

// Walks every positive of FindFirstGe over `a` like the batch engine's
// ScanChunk does — with query noise nu or none, under each common bar in
// `common_bars` and under the per-query bars fl(bars[i] + rho) (and an
// unreachable offset) — at every level, against a literal transcription
// of the streaming positive test.
void ExpectScanWalks(const std::vector<double>& a,
                     const std::vector<double>& nu,
                     const std::vector<double>& bars,
                     const std::vector<double>& common_bars, double rho,
                     const std::string& ctx) {
  const size_t n = a.size();
  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    for (int with_nu = 0; with_nu <= 1; ++with_nu) {
      for (int per_query = 0; per_query <= 1; ++per_query) {
        const std::vector<double> offsets =
            per_query ? std::vector<double>{rho, 1e9} : common_bars;
        for (double off : offsets) {
          const auto fires = [&](size_t j) {
            const double x = with_nu ? a[j] + nu[j] : a[j];
            return x >= (per_query ? bars[j] + off : off);
          };
          const std::string where =
              ctx + " " + DispatchLevelName(level) +
              " nu=" + std::to_string(with_nu) +
              " per_query=" + std::to_string(per_query) +
              " offset=" + std::to_string(off);
          for (size_t from = 0; from <= n;) {
            size_t expect = from;
            while (expect < n && !fires(expect)) ++expect;
            const size_t m = n - from;
            const size_t got =
                from + FindFirstGe({a.data() + from, m},
                                   with_nu ? std::span<const double>(
                                                 nu.data() + from, m)
                                           : std::span<const double>(),
                                   per_query ? std::span<const double>(
                                                   bars.data() + from, m)
                                             : std::span<const double>(),
                                   off);
            ASSERT_EQ(got, expect) << where << " from=" << from;
            if (expect >= n) break;
            from = expect + 1;
          }
        }
      }
    }
    // Empty input, in both bar forms.
    EXPECT_EQ(FindFirstGe({}, {}, {}, rho), 0u) << DispatchLevelName(level);
    EXPECT_EQ(FindFirstGe({}, {}, std::span<const double>(bars.data(), 0), rho),
              0u)
        << DispatchLevelName(level);
  }
}

TEST(VecmathDispatchTest, ScansAcrossLevels) {
  // The compare-scan over both axes: ν present or not, one common bar or
  // per-query bars. Random bars, near-threshold bars with exact ties (the
  // >= must fire on equality, at any lane position), NaN patterns (ordered
  // compares: NaN answers, ν, bars and a NaN common bar never match), odd
  // tails and empty input.
  ScopedDispatchLevel restore;
  Rng rng(99);
  const size_t n = 1003;  // odd: exercises every lane tail
  std::vector<double> a(n), b(n), bars(n);
  FillUnit(rng, a);
  FillUnit(rng, b);
  FillUnit(rng, bars);
  const double rho = 0.125;
  // Per-query ties: bars[i] + rho rounds back to exactly a[i].
  for (size_t i : {size_t{37}, size_t{512}, n - 1}) {
    bars[i] = a[i] - rho;
  }
  a[101] = std::nan("");
  bars[202] = std::nan("");
  b[303] = std::nan("");
  // Common-bar ties: a bar equal to one answer, and one equal to one
  // noisy answer.
  ExpectScanWalks(a, b, bars,
                  {rho, a[37], a[512] + b[512], 1e9, std::nan("")}, rho,
                  "random");

  // Answers in [0, 1) with one guaranteed hit at 777 for the noisy test
  // against 3.0, and its odd-length heads.
  Rng rng7(7);
  std::vector<double> a7(1000), b7(1000), bars7(1000);
  FillUnit(rng7, a7);
  FillUnit(rng7, b7);
  a7[777] = 3.0;
  FillUnit(rng7, bars7);
  ExpectScanWalks(a7, b7, bars7, {3.0, 2.5, 1e9, 0.5}, rho, "rng7");
  EXPECT_LE(FindFirstGe(a7, b7, {}, 3.0), 777u);
  EXPECT_EQ(FindFirstGe(a7, {}, {}, 1e9), a7.size());
  for (size_t len : {1u, 3u, 5u, 7u, 9u, 11u, 15u}) {
    ExpectScanWalks({a7.begin(), a7.begin() + len},
                    {b7.begin(), b7.begin() + len},
                    {bars7.begin(), bars7.begin() + len}, {0.5}, rho,
                    "rng7 len=" + std::to_string(len));
  }
}

TEST(VecmathExpNoiseTest, NegLogUnitPositiveScalarMatchesBlock) {
  // The scalar form is the single-element contract of the exponential
  // transform at b = 1 — this is what makes streaming exponential draws
  // and block transforms (and the Gumbel block's first pass) draw-for-draw
  // bit-identical.
  Rng rng(4242);
  std::vector<uint64_t> words(257);
  rng.FillUint64(words);
  words[0] = 0;        // largest −log on the lattice
  words[1] = ~0ull;    // u == 1 → −log == -0.0
  ScopedDispatchLevel restore;
  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> block(words.size());
    ExponentialTransformBlock(words, 1.0, block);
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
  // ExponentialTransformBlock is defined as the b·NegLogUnitPositive
  // composition; pin the definition at the scalar level and the
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

TEST(VecmathDispatchTest, ScalarKernelMatchesComposedDefinition) {
  // The fused sampling kernels are *defined* by composition of Log and the
  // lattice map; pin that definition at the scalar level (the exponential
  // transform at b = 1 is exactly -Log(u), -0.0 at u == 1 included).
  Rng rng(99);
  std::vector<uint64_t> words(64);
  rng.FillUint64(words);
  ScopedDispatchLevel restore;
  SetDispatchLevel(DispatchLevel::kScalar);
  std::vector<double> out(64);
  ExponentialTransformBlock(words, 1.0, out);
  for (size_t i = 0; i < words.size(); ++i) {
    const double expected = -Log(Rng::ToUnitDoublePositive(words[i]));
    ASSERT_EQ(std::bit_cast<uint64_t>(out[i]),
              std::bit_cast<uint64_t>(expected))
        << "i=" << i;
  }
}

// --- Fused passes: in-register generation vs fill + transform + scan -----

bool StatesEqual(const BlockRng::State& a, const BlockRng::State& b) {
  return a.phase == b.phase && a.words == b.words;
}

// The reference ν block of `words`: the dispatched transform kernel of the
// noise kind (wpv 2 Laplace(0, b), wpv 1 Exponential(b)).
std::vector<double> ReferenceNu(const std::vector<uint64_t>& words,
                                size_t wpv, double b) {
  std::vector<double> nu(words.size() / wpv);
  if (wpv == 1) {
    ExponentialTransformBlock(words, b, nu);
  } else {
    LaplaceTransformBlock(words, 0.0, b, nu);
  }
  return nu;
}

// Minimum magnitude word (every wpv-th word) of each span of `span`
// elements.
std::vector<uint64_t> ReferenceSpanMin(const std::vector<uint64_t>& words,
                                       size_t wpv, size_t span) {
  const size_t n = words.size() / wpv;
  std::vector<uint64_t> span_min((n + span - 1) / span, ~0ull);
  for (size_t i = 0; i < n; ++i) {
    span_min[i / span] = std::min(span_min[i / span], words[wpv * i]);
  }
  return span_min;
}

void ExpectSameHits(const FusedScanHit* got, size_t found,
                    const std::vector<FusedScanHit>& want,
                    const std::string& ctx) {
  ASSERT_EQ(found, want.size()) << ctx;
  for (size_t k = 0; k < found; ++k) {
    ASSERT_EQ(got[k].index, want[k].index) << ctx << " k=" << k;
    ASSERT_EQ(std::bit_cast<uint64_t>(got[k].nu),
              std::bit_cast<uint64_t>(want[k].nu))
        << ctx << " k=" << k;
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
  // per span, and the complete set of positives a walk of the transform
  // kernel + FindFirstGe (common bar or per-query bars) over those words
  // finds — indices and ν payloads bit for bit, in
  // order — with the stream left where the fill leaves it. Per query, the
  // skip-word vector mixes finite entries (spans far under their bars, or
  // sound for spans near them) with never-skip ones, and *skipped_out must
  // equal a scalar count of the words at or above their span's skip word.
  // A common bar repeats one skip word and reports 0 skipped. Covers aligned
  // and unaligned entry, short final spans, spans narrower than a chunk,
  // and spans that are no lane multiple (6 runs the scalar lane, 12 the
  // AVX2 lane at the AVX-512 level). Also pins the overflow contract: with
  // max_hits = 1 the return value still counts every positive and the
  // stored prefix, span minima, count and state are unchanged.
  ScopedDispatchLevel restore;
  const double b = 2.25;
  const double bar = 0.5;    // the common bar
  const double rho = 0.125;  // the per-query bars' offset

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    for (int per_query = 0; per_query <= 1; ++per_query) {
      const std::vector<size_t> lengths =
          per_query ? std::vector<size_t>{300, 1000, 2048}
                    : std::vector<size_t>{37, 128, 1000, 2048};
      for (size_t n : lengths) {
        for (size_t span : {size_t{6}, size_t{8}, size_t{12}, size_t{128}}) {
          for (uint32_t pre : {0u, 1u}) {
            for (int exp_nu = 0; exp_nu <= 1; ++exp_nu) {
              const std::string ctx =
                  std::string(DispatchLevelName(level)) +
                  " per_query=" + std::to_string(per_query) +
                  " n=" + std::to_string(n) +
                  " span=" + std::to_string(span) +
                  " pre=" + std::to_string(pre) +
                  " exp=" + std::to_string(exp_nu);
              const size_t wpv = exp_nu ? 1 : 2;
              const size_t nspans = (n + span - 1) / span;
              std::vector<double> a(n), bars;
              std::vector<uint64_t> skip_words(nspans);
              if (per_query) {
                // Bars in [-0.5, 0.5). Even spans sit 1-10 ν scales under
                // the lowest bar, odd spans hug their bars (frequent
                // positives).
                bars.resize(n);
                Rng setup(n * 11 + exp_nu);
                for (size_t i = 0; i < n; ++i) {
                  bars[i] = setup.NextDouble() - 0.5;
                  const double u = setup.NextDouble();
                  a[i] = (i / span) % 2 == 0 ? -0.5 - (1.0 + 9.0 * u) * b
                                             : bars[i] + (u - 0.8) * b;
                }
                // Each span's sound skip word pairs its answer max with its
                // bar min at ρ; every third span never skips.
                bool finite = false, never = false;
                for (size_t j = 0; j < nspans; ++j) {
                  const size_t lo = j * span, m = std::min(span, n - lo);
                  const double up = MaxBlock({a.data() + lo, m});
                  const double dn = MinBlock({bars.data() + lo, m});
                  skip_words[j] = j % 3 == 2
                                      ? kMegaNeverSkipWord
                                      : MegaSkipWordThreshold(up, dn + rho, b);
                  finite = finite || skip_words[j] < kMegaNeverSkipWord;
                  never = never || skip_words[j] >= kMegaNeverSkipWord;
                }
                ASSERT_TRUE(finite && never) << ctx << " needs both skip words";
              } else {
                Rng setup(n * 7 + exp_nu);
                FillUnit(setup, a);
                double a_max = -1e300;
                for (size_t i = 0; i < n; ++i) {
                  a[i] = bar - 10.0 * a[i];
                  a_max = std::max(a_max, a[i]);
                }
                const uint64_t skip = MegaSkipWordThreshold(a_max, bar, b);
                ASSERT_LT(skip, kMegaNeverSkipWord) << ctx;
                std::fill(skip_words.begin(), skip_words.end(), skip);
              }

              Rng ref_rng(per_query ? 78 : 77);
              for (uint32_t i = 0; i < pre; ++i) ref_rng.NextUint64();
              const BlockRng::State s0 = ref_rng.state();

              // Reference: the composition over the filled words.
              std::vector<uint64_t> words(wpv * n);
              ref_rng.FillUint64(words);
              const std::vector<uint64_t> ref_min =
                  ReferenceSpanMin(words, wpv, span);
              const std::vector<double> nu = ReferenceNu(words, wpv, b);
              std::vector<FusedScanHit> ref_hits;
              for (size_t from = 0; from < n;) {
                const std::span<const double> af{a.data() + from, n - from};
                const std::span<const double> nuf{nu.data() + from, n - from};
                const size_t i =
                    from + (per_query
                                ? FindFirstGe(af, nuf,
                                              {bars.data() + from, n - from},
                                              rho)
                                : FindFirstGe(af, nuf, {}, bar));
                if (i >= n) break;
                ref_hits.push_back({i, nu[i]});
                from = i + 1;
              }
              ASSERT_GT(ref_hits.size(), 1u)
                  << ctx << " workload must contain hits";
              uint64_t ref_skipped = 0;
              if (per_query) {
                for (size_t i = 0; i < n; ++i) {
                  ref_skipped +=
                      (words[wpv * i] >> 11) >= skip_words[i / span];
                }
                ASSERT_GT(ref_skipped, 0u) << ctx << " workload must skip";
              }

              BlockRng::State st = s0;
              std::vector<uint64_t> smin(nspans + 1, 0xdecafbadull);
              std::vector<FusedScanHit> hits(n);
              uint64_t skipped = ~0ull;
              const size_t found = MegaFillMinScanSpans(
                  &st, wpv, b, a, bars, per_query ? rho : bar,
                  skip_words.data(), span, smin.data(), hits.data(), n,
                  &skipped);
              EXPECT_EQ(skipped, ref_skipped) << ctx;
              ExpectSameHits(hits.data(), found, ref_hits, ctx);
              for (size_t j = 0; j < nspans; ++j) {
                ASSERT_EQ(smin[j], ref_min[j]) << ctx << " span " << j;
              }
              EXPECT_EQ(smin[nspans], 0xdecafbadull)
                  << ctx << " wrote past the last span";
              ASSERT_TRUE(StatesEqual(st, ref_rng.state()))
                  << ctx << " end state";

              // Overflow: max_hits = 1 stores only the first hit but still
              // counts them all and leaves the span minima, the count and
              // the state unchanged.
              BlockRng::State st2 = s0;
              std::vector<uint64_t> smin2(nspans);
              FusedScanHit first{};
              uint64_t skipped2 = ~0ull;
              const size_t found2 = MegaFillMinScanSpans(
                  &st2, wpv, b, a, bars, per_query ? rho : bar,
                  skip_words.data(), span, smin2.data(), &first, 1,
                  &skipped2);
              EXPECT_EQ(found2, found) << ctx;
              EXPECT_EQ(skipped2, ref_skipped) << ctx;
              EXPECT_EQ(first.index, ref_hits[0].index) << ctx;
              for (size_t j = 0; j < nspans; ++j) {
                ASSERT_EQ(smin2[j], ref_min[j]) << ctx << " overflow span "
                                                << j;
              }
              ASSERT_TRUE(StatesEqual(st2, ref_rng.state()))
                  << ctx << " overflow end state";
            }
          }
        }
      }
    }
  }
}

// --- Seeded fire masks: in-register seeding vs fresh streams --------------

// SeededFireMasks' composed definition: each run's stream through
// Rng(seed).FillUint64, the noise kind's TransformBlock, then window[i] +
// ν >= bar in that form.
std::vector<uint64_t> ComposedFireMasks(const std::vector<uint64_t>& seeds,
                                        size_t wpv, double b,
                                        const std::vector<double>& window,
                                        size_t rows,
                                        const std::vector<double>& bars) {
  const size_t runs = bars.size() / rows;
  const size_t n = window.size();
  std::vector<uint64_t> fires(bars.size(), 0);
  std::vector<uint64_t> words(n * wpv);
  std::vector<double> nu(n, 0.0);
  for (size_t r = 0; r < runs; ++r) {
    if (wpv > 0) {
      Rng(seeds[r]).FillUint64(words);
      if (wpv == 2) {
        Laplace::Centered(b).TransformBlock(words, nu);
      } else {
        Exponential::FromScale(b).TransformBlock(words, nu);
      }
    }
    for (size_t j = 0; j < rows; ++j) {
      for (size_t i = 0; i < n; ++i) {
        if (window[i] + nu[i] >= bars[j * runs + r]) {
          fires[j * runs + r] |= uint64_t{1} << i;
        }
      }
    }
  }
  return fires;
}

// The inverse of SplitMix64's output mix: undo each xorshift by iterating
// it, and each odd multiply by the constant's inverse mod 2^64.
uint64_t UnXorShift(uint64_t y, int k) {
  uint64_t x = y;
  for (int i = 0; i < 64 / k + 1; ++i) x = y ^ (x >> k);
  return x;
}

uint64_t OddInverse(uint64_t c) {
  uint64_t inv = c;  // correct to 3 bits; each Newton step doubles them
  for (int i = 0; i < 5; ++i) inv *= 2 - c * inv;
  return inv;
}

uint64_t UnMix(uint64_t z) {
  z = UnXorShift(z, 31) * OddInverse(0x94d049bb133111ebULL);
  z = UnXorShift(z, 27) * OddInverse(0xbf58476d1ce4e5b9ULL);
  return UnXorShift(z, 30);
}

// A seed whose xoshiro lane 0 has state word w (0-3) zero: lane 0's key is
// mix(seed + γ) and its word w is mix(key + (w + 1)γ), and mix(0) = 0.
uint64_t SeedWithZeroLane0Word(int w) {
  constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  const uint64_t key = 0 - (static_cast<uint64_t>(w) + 1) * kGamma;
  return UnMix(key) - kGamma;
}

TEST(VecmathLaneStreamsTest, MatchesEightFreshStreamsAtEveryLevel) {
  // FillLaneStreams against Rng(seed).FillUint64 per stream, word k of
  // stream L at out[8k + L], for word counts 0-300 (every count mod 4, so
  // each xoshiro lane ends on every phase) and seeds 0, ~0, crafted seeds
  // with a zero state word, trial-walker lane seeds and random ones.
  ScopedDispatchLevel restore;
  std::vector<std::vector<uint64_t>> seed_sets;
  seed_sets.push_back({0, ~uint64_t{0}, SeedWithZeroLane0Word(0),
                       SeedWithZeroLane0Word(3), 1, 2, 0x9e3779b97f4a7c15ULL,
                       uint64_t{1} << 63});
  std::vector<uint64_t> lane_seeds(kLaneStreams);
  for (size_t lane = 0; lane < kLaneStreams; ++lane) {
    uint64_t state = 2017 + (8 * 3 + lane) * 0x9e3779b97f4a7c15ULL;
    lane_seeds[lane] = SplitMix64Next(state);  // TrialWalker::LaneSeed
  }
  seed_sets.push_back(lane_seeds);
  Rng gen(31);
  for (int i = 0; i < 3; ++i) {
    std::vector<uint64_t> seeds(kLaneStreams);
    gen.FillUint64(seeds);
    seed_sets.push_back(seeds);
  }
  for (const std::vector<uint64_t>& seeds : seed_sets) {
    for (size_t words = 0; words <= 300; ++words) {
      std::vector<uint64_t> want(kLaneStreams * words);
      {
        ScopedDispatchLevel pin;
        SetDispatchLevel(DispatchLevel::kScalar);
        std::vector<uint64_t> stream(words);
        for (size_t lane = 0; lane < kLaneStreams; ++lane) {
          Rng(seeds[lane]).FillUint64(stream);
          for (size_t k = 0; k < words; ++k) {
            want[kLaneStreams * k + lane] = stream[k];
          }
        }
      }
      for (DispatchLevel level : kAllDispatchLevels) {
        if (!SetDispatchLevel(level)) continue;
        std::vector<uint64_t> got(want.size(), 0x5a5a5a5a5a5a5a5aULL);
        FillLaneStreams(seeds, words, got);
        ASSERT_EQ(got, want) << DispatchLevelName(level)
                             << " words=" << words << " seed0=" << seeds[0];
      }
    }
  }
}

TEST(VecmathSeededFireTest, MatchesComposedDefinitionAtEveryLevel) {
  // Run counts on both sides of every lane width and of the SIMD lanes'
  // four-group blocks (45: a block, then single groups, then a tail);
  // windows 0-7 with both words-per-variate (and no ν), so xoshiro lanes
  // yield 0, 1, 2 and 3 or more words; one to three bars per run. Window
  // and bars carry ±inf, NaN and ±0, and the seeds include 0 and ~0.
  ScopedDispatchLevel restore;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Rng gen(2024);
  int checked = 0, fired = 0;
  for (size_t runs : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                      size_t{17}, size_t{45}, size_t{256}}) {
    std::vector<uint64_t> seeds(runs);
    gen.FillUint64(seeds);
    if (runs > 1) seeds[1] = 0;
    if (runs > 8) seeds[8] = ~uint64_t{0};
    for (size_t n = 0; n <= 7; ++n) {
      std::vector<double> window(n);
      for (double& a : window) a = (gen.NextDouble() - 0.5) * 6.0;
      const double edge[] = {kInf, -kInf, kNaN, 0.0, -0.0};
      if (n > 0) window[(runs + n) % n] = edge[(runs + n) % 5];
      if (n > 3) window[3] = edge[(runs + n + 2) % 5];
      for (size_t rows = 1; rows <= 3; ++rows) {
        std::vector<double> bars(rows * runs);
        for (double& bar : bars) bar = (gen.NextDouble() - 0.5) * 4.0;
        for (size_t k = 0; k < bars.size(); k += 5) {
          bars[k] = edge[(k / 5 + n + rows) % 5];
        }
        for (size_t wpv = 0; wpv <= 2; ++wpv) {
          const double b = wpv == 0 ? 0.0 : 1.5;
          std::vector<uint64_t> want;
          {
            ScopedDispatchLevel pin;
            SetDispatchLevel(DispatchLevel::kScalar);
            want = ComposedFireMasks(seeds, wpv, b, window, rows, bars);
          }
          for (DispatchLevel level : kAllDispatchLevels) {
            if (!SetDispatchLevel(level)) continue;
            std::vector<uint64_t> got(bars.size(), ~uint64_t{0});
            SeededFireMasks(wpv == 0 ? std::span<const uint64_t>() : seeds,
                            wpv, b, window, rows, bars, got);
            ASSERT_EQ(got, want)
                << DispatchLevelName(level) << " runs=" << runs
                << " n=" << n << " rows=" << rows << " wpv=" << wpv;
            ++checked;
          }
          for (uint64_t f : want) fired += f != 0;
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_GT(fired, 0);
}

TEST(VecmathSeededFireTest, SeedsWithAZeroStateWordMatch) {
  // The kernel seeds without BlockRng's all-zero guard, which cannot fire
  // because at most one state word of a lane is zero. Pin seeds whose lane
  // 0 has s0, then s3, zero: words the kernel reads from the first output.
  ScopedDispatchLevel restore;
  for (int w : {0, 3}) {
    const uint64_t seed = SeedWithZeroLane0Word(w);
    const Rng::State st = Rng(seed).state();
    ASSERT_EQ(st.words[w * BlockRng::kLanes], 0u) << "w=" << w;
    // A full lane width of the crafted seed, so the SIMD bodies see it.
    const std::vector<uint64_t> seeds(9, seed);
    for (size_t wpv : {size_t{1}, size_t{2}}) {
      for (size_t n : {size_t{1}, size_t{4}, size_t{7}}) {
        std::vector<double> window(n, 0.0);
        std::vector<double> bars(seeds.size());
        for (size_t r = 0; r < bars.size(); ++r) {
          bars[r] = (static_cast<double>(r) - 4.0) * 0.5;
        }
        const std::vector<uint64_t> want =
            ComposedFireMasks(seeds, wpv, 1.0, window, 1, bars);
        for (DispatchLevel level : kAllDispatchLevels) {
          if (!SetDispatchLevel(level)) continue;
          std::vector<uint64_t> got(bars.size());
          SeededFireMasks(seeds, wpv, 1.0, window, 1, bars, got);
          ASSERT_EQ(got, want) << DispatchLevelName(level) << " w=" << w
                               << " wpv=" << wpv << " n=" << n;
        }
      }
    }
  }
}

}  // namespace
}  // namespace vec
}  // namespace svt
