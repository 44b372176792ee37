// Block RNG and bulk sampler contracts: (a) every Fill*/SampleBlock output
// is bit-for-bit the corresponding scalar call sequence, at sizes that
// straddle the internal chunking, at every vecmath dispatch level; (b) the
// lane-interleaved stream definition (draw-order contract step 5,
// core/svt.h) is pinned against an independent xoshiro256++ reference
// implementation; (c) golden values lock the SplitMix64 and interleaved
// streams across platforms (pure integer ops, so any compliant
// implementation must reproduce them exactly — the SplitMix64 seed-0
// values also match the published reference outputs).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/distributions.h"
#include "common/rng.h"
#include "common/vecmath.h"
#include "dispatch_test_util.h"

namespace svt {
namespace {

// Sizes chosen to straddle the lane count (4), the Fill* transform block
// (512), and the SampleBlock chunk (256): empty, sub-step, unaligned,
// exact block, block + 1, multi-block.
const size_t kSizes[] = {0, 1, 3, 4, 5, 255, 256, 257, 512, 513, 1000, 1025};

TEST(RngBlockTest, FillUint64MatchesScalarStream) {
  ScopedDispatchLevel restore;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (size_t size : kSizes) {
      // `pre` scalar draws first, so Fill starts at every lane phase.
      for (size_t pre : {0u, 1u, 2u, 3u}) {
        Rng block_rng(101), scalar_rng(101);
        for (size_t i = 0; i < pre; ++i) {
          ASSERT_EQ(block_rng.NextUint64(), scalar_rng.NextUint64());
        }
        std::vector<uint64_t> block(size);
        block_rng.FillUint64(block);
        for (size_t i = 0; i < size; ++i) {
          ASSERT_EQ(block[i], scalar_rng.NextUint64())
              << vec::DispatchLevelName(level) << " size=" << size
              << " pre=" << pre << " i=" << i;
        }
        // The two generators must land in the same state: interleaving
        // block and scalar draws is seamless.
        ASSERT_EQ(block_rng.NextUint64(), scalar_rng.NextUint64());
      }
    }
  }
}

TEST(RngBlockTest, FillUint64BitIdenticalAcrossDispatchLevels) {
  // The SIMD lockstep kernels are pure integer arithmetic and must emit
  // exactly the scalar reference stream, whatever level dispatch picked.
  ScopedDispatchLevel restore;
  ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
  Rng scalar_rng(311);
  std::vector<uint64_t> reference(4099);
  scalar_rng.FillUint64(reference);
  for (vec::DispatchLevel level :
       {vec::DispatchLevel::kAvx2, vec::DispatchLevel::kAvx512}) {
    if (!vec::SetDispatchLevel(level)) continue;
    Rng rng(311);
    std::vector<uint64_t> block(reference.size());
    rng.FillUint64(block);
    ASSERT_EQ(block, reference) << vec::DispatchLevelName(level);
  }
}

// Independent xoshiro256++ reference for the lane-layout contract test:
// a fresh transcription of the published algorithm, deliberately separate
// from the library's lockstep kernels.
struct RefXoshiro {
  uint64_t s[4];

  explicit RefXoshiro(uint64_t key) {
    uint64_t sm = key;
    for (auto& word : s) word = SplitMix64Next(sm);
  }

  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s[0] + s[3], 23) + s[0];
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = Rotl(s[3], 45);
    return result;
  }
};

// The documented stream, from the reference lanes: output k is lane
// (k mod 4)'s xoshiro256++ output at step floor(k/4), lanes seeded by
// SplitMix64 key-splitting in lane order.
struct RefStream {
  std::vector<RefXoshiro> lanes;
  size_t k = 0;

  explicit RefStream(uint64_t seed) {
    uint64_t sm = seed;
    for (int lane = 0; lane < 4; ++lane) {
      lanes.emplace_back(SplitMix64Next(sm));
    }
  }

  uint64_t Next() { return lanes[k++ % 4].Next(); }
};

TEST(RngBlockTest, StreamIsTheDocumentedFourLaneInterleave) {
  // Draw-order contract step 5 (core/svt.h), pinned against the
  // independent reference above at every dispatch level, so no fill lane
  // and not the scalar step can drift silently. FillUint64 enters at every
  // phase (after `pre` NextUint64 draws) and its lengths leave an odd
  // number of whole 4-word steps after the head (4, 12, 255 from phase 0),
  // which the AVX-512 lane's 8-word step hands to the scalar lane.
  const uint64_t seed = 20260731;
  ScopedDispatchLevel restore;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    RefStream next_ref(seed);
    Rng next_rng(seed);
    for (int k = 0; k < 64; ++k) {
      ASSERT_EQ(next_rng.NextUint64(), next_ref.Next())
          << vec::DispatchLevelName(level) << " NextUint64 k=" << k;
    }
    for (size_t pre : {0u, 1u, 2u, 3u}) {
      for (size_t len : {1u, 3u, 4u, 7u, 8u, 12u, 13u, 16u, 255u, 256u}) {
        const std::string ctx = std::string(vec::DispatchLevelName(level)) +
                                " pre=" + std::to_string(pre) +
                                " len=" + std::to_string(len);
        RefStream ref(seed);
        Rng rng(seed);
        for (size_t i = 0; i < pre; ++i) ASSERT_EQ(rng.NextUint64(), ref.Next());
        std::vector<uint64_t> block(len);
        rng.FillUint64(block);
        for (size_t i = 0; i < len; ++i) {
          ASSERT_EQ(block[i], ref.Next()) << ctx << " i=" << i;
        }
        // The fill left the state where the stream continues.
        for (int k = 0; k < 9; ++k) {
          ASSERT_EQ(rng.NextUint64(), ref.Next()) << ctx << " after k=" << k;
        }
      }
    }
  }
}

// Golden SplitMix64 stream from state 0 — matches the reference
// implementation's published outputs, so a transcription error in the
// mixing constants cannot survive this test on any platform.
TEST(RngGoldenTest, SplitMix64Seed0) {
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64Next(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64Next(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(SplitMix64Next(state), 0x06c45d188009454fULL);
  EXPECT_EQ(SplitMix64Next(state), 0xf88bb8a8724c81ecULL);
}

// Golden four-lane interleaved block for seed 42. Locks the seeding
// procedure, the lane layout and the lockstep kernel. Re-recorded in PR 4
// when the stream became the four-lane interleave (a one-time golden
// re-record, like PR 3's libm→vecmath switch).
TEST(RngGoldenTest, FillUint64Seed42) {
  Rng rng(42);
  uint64_t block[8];
  rng.FillUint64(block);
  const uint64_t expected[8] = {
      0xab4c4adfbb450230ULL, 0x2fcd8d44ddf09827ULL, 0xff4b7589576fd0d3ULL,
      0x165093ad8e91298dULL, 0x16c758048460b512ULL, 0x1b035635de0f5d7fULL,
      0x6386aa34f6b9dd80ULL, 0x8898a0928396972eULL};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(block[i], expected[i]) << i;
}

TEST(SampleBlockTest, LaplaceBlockMatchesScalarSampleLoop) {
  ScopedDispatchLevel restore;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (size_t size : kSizes) {
      for (const auto& [mu, b] : {std::pair{0.0, 1.0},
                                  std::pair{0.0, 2.5},
                                  std::pair{-3.0, 0.25}}) {
        const Laplace d(mu, b);
        Rng block_rng(104), scalar_rng(104);
        std::vector<double> block(size);
        d.SampleBlock(block_rng, block);
        for (size_t i = 0; i < size; ++i) {
          ASSERT_EQ(block[i], d.Sample(scalar_rng))
              << vec::DispatchLevelName(level) << " size=" << size
              << " b=" << b << " i=" << i;
        }
      }
    }
  }
}

TEST(SampleBlockTest, SampleLaplaceBlockMatchesSampleLaplace) {
  Rng block_rng(105), scalar_rng(105);
  std::vector<double> block(777);
  SampleLaplaceBlock(block_rng, 2.0, block);
  for (double v : block) ASSERT_EQ(v, SampleLaplace(scalar_rng, 2.0));
}

TEST(SampleBlockTest, TransformBlockIsThePureTransform) {
  // SampleBlock == FillUint64 + TransformBlock, by definition.
  const Laplace d(0.0, 1.5);
  Rng rng_a(106), rng_b(106);
  std::vector<double> via_sample(300);
  d.SampleBlock(rng_a, via_sample);
  std::vector<uint64_t> words(600);
  rng_b.FillUint64(words);
  std::vector<double> via_transform(300);
  d.TransformBlock(words, via_transform);
  EXPECT_EQ(via_sample, via_transform);
}

TEST(SampleBlockTest, GumbelBlockMatchesScalarSampleLoop) {
  ScopedDispatchLevel restore;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (size_t size : kSizes) {
      Rng block_rng(107), scalar_rng(107);
      std::vector<double> block(size);
      SampleGumbelBlock(block_rng, block);
      for (size_t i = 0; i < size; ++i) {
        ASSERT_EQ(block[i], SampleGumbel(scalar_rng))
            << vec::DispatchLevelName(level) << " size=" << size;
      }
    }
  }
}

// Golden Laplace block (libm log() is nearly correctly rounded and these
// particular values are far from rounding boundaries; tolerance 1 ulp-ish
// via EXPECT_DOUBLE_EQ keeps this portable across libms).
TEST(RngGoldenTest, LaplaceBlockSeed9) {
  Rng rng(9);
  double block[4];
  SampleLaplaceBlock(rng, 2.0, block);
  EXPECT_DOUBLE_EQ(block[0], -0x1.19015f68823bdp+2);
  EXPECT_DOUBLE_EQ(block[1], -0x1.99d69309c3b56p-3);
  EXPECT_DOUBLE_EQ(block[2], -0x1.21daf01165948p+0);
  EXPECT_DOUBLE_EQ(block[3], 0x1.383b747bf6f2p+1);
}

TEST(SampleBlockTest, ExponentialBlockMatchesScalarSampleLoop) {
  // One 64-bit word per variate — half the stream of the Laplace path —
  // and still draw-for-draw bit-identical between scalar and block.
  ScopedDispatchLevel restore;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (size_t size : kSizes) {
      for (double b : {1.0, 2.5, 0.25}) {
        const Exponential d = Exponential::FromScale(b);
        Rng block_rng(104), scalar_rng(104);
        std::vector<double> block(size);
        d.SampleBlock(block_rng, block);
        for (size_t i = 0; i < size; ++i) {
          ASSERT_EQ(block[i], d.Sample(scalar_rng))
              << vec::DispatchLevelName(level) << " size=" << size
              << " b=" << b << " i=" << i;
          ASSERT_FALSE(block[i] < 0.0) << "one-sided support";
        }
        // Interleaving block and scalar draws is seamless.
        ASSERT_EQ(block_rng.NextUint64(), scalar_rng.NextUint64());
      }
    }
  }
}

TEST(SampleBlockTest, SampleExponentialBlockMatchesSampleExponential) {
  Rng block_rng(105), scalar_rng(105);
  std::vector<double> block(777);
  SampleExponentialBlock(block_rng, 2.0, block);
  for (double v : block) ASSERT_EQ(v, SampleExponential(scalar_rng, 2.0));
}

TEST(SampleBlockTest, ExponentialTransformBlockIsThePureTransform) {
  // SampleBlock == FillUint64 + TransformBlock, by definition — with one
  // word per variate, not two.
  const Exponential d = Exponential::FromScale(1.5);
  Rng rng_a(106), rng_b(106);
  std::vector<double> via_sample(300);
  d.SampleBlock(rng_a, via_sample);
  std::vector<uint64_t> words(300);
  rng_b.FillUint64(words);
  std::vector<double> via_transform(300);
  d.TransformBlock(words, via_transform);
  EXPECT_EQ(via_sample, via_transform);
}

// Golden exponential block (same portability note as LaplaceBlockSeed9).
// block[0] is the Laplace golden's |block[0]|: the magnitude word is the
// same seed-9 word 0, and the exponential transform consumes no sign word.
TEST(RngGoldenTest, ExponentialBlockSeed9) {
  Rng rng(9);
  double block[4];
  SampleExponentialBlock(rng, 2.0, block);
  EXPECT_DOUBLE_EQ(block[0], 0x1.19015f68823bdp+2);
  EXPECT_DOUBLE_EQ(block[1], 0x1.acf03f12473abp+1);
  EXPECT_DOUBLE_EQ(block[2], 0x1.99d69309c3b56p-3);
  EXPECT_DOUBLE_EQ(block[3], 0x1.4f4d34c2371dap+1);
}

TEST(SampleBlockTest, BlockStatisticsAreExponential) {
  // Mean ~ b, all non-negative for Exp(b).
  Rng rng(108);
  std::vector<double> block(200000);
  SampleExponentialBlock(rng, 2.0, block);
  double sum = 0.0;
  double min = block[0];
  for (double v : block) {
    sum += v;
    min = std::min(min, v);
  }
  EXPECT_NEAR(sum / block.size(), 2.0, 0.05);
  EXPECT_GE(min, 0.0);
}

TEST(SampleBlockTest, BlockStatisticsAreLaplace) {
  // Mean ~0, mean |x| ~ b for Lap(b): a coarse distribution sanity check on
  // the bulk path itself.
  Rng rng(108);
  std::vector<double> block(200000);
  SampleLaplaceBlock(rng, 2.0, block);
  double sum = 0.0, abs_sum = 0.0;
  for (double v : block) {
    sum += v;
    abs_sum += std::abs(v);
  }
  EXPECT_NEAR(sum / block.size(), 0.0, 0.05);
  EXPECT_NEAR(abs_sum / block.size(), 2.0, 0.05);
}

TEST(RestoreTest, RoundTripsTheStreamAtEveryPhase) {
  // Restore is the return half of the megakernel checkpoint seam: a
  // snapshot taken at any phase, restored after arbitrary further draws,
  // replays the stream exactly.
  Rng rng(123);
  for (int pre = 0; pre < 6; ++pre) {
    rng.NextUint64();  // walk through phases 1, 2, 3, 0, 1, ...
    const Rng::State snap = rng.state();
    std::vector<uint64_t> first(37), again(37);
    rng.FillUint64(first);
    rng.RestoreState(snap);
    rng.FillUint64(again);
    EXPECT_EQ(first, again) << "pre=" << pre;
  }
}

TEST(RestoreDeathTest, RejectsAnAllZeroLane) {
  Rng rng(1);
  Rng::State bad = rng.state();
  for (int w = 0; w < 4; ++w) bad.words[w * BlockRng::kLanes + 2] = 0;
  EXPECT_DEATH(rng.RestoreState(bad), "all-zero");
}

TEST(MegakernelStreamTest, MegaScanLeavesRngAtTheFillPosition) {
  // The engine-side contract of the fused-pass seam: snapshot state(), let
  // the in-register pass consume k words, RestoreState the pass's final
  // State — the Rng must sit exactly where FillUint64 of k words would
  // have left it, so subsequent draws (ρ resamples, the next chunk)
  // continue the one stream. Runs passes of several lengths back to back
  // against a FillUint64-driven twin, entering at phases 0-3 (the SIMD
  // lanes take only phase 0), with a scalar draw between passes as the
  // engine's positives take them.
  ScopedDispatchLevel restore;
  constexpr size_t kSpan = 128;
  const size_t lengths[] = {517, 64, 9, 128, 1, 300};
  const std::vector<double> a(517, 0.0);
  const uint64_t skip = vec::MegaSkipWordThreshold(0.0, 0.5, 1.0);
  ASSERT_LT(skip, vec::kMegaNeverSkipWord);
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (int pre = 0; pre < 4; ++pre) {
      Rng mega(2024), twin(2024);
      for (int k = 0; k < pre; ++k) {
        ASSERT_EQ(mega.NextUint64(), twin.NextUint64());
      }
      std::vector<uint64_t> scratch, span_min((517 + kSpan - 1) / kSpan);
      const std::vector<uint64_t> skip_words(span_min.size(), skip);
      std::vector<vec::FusedScanHit> hits(517);
      for (size_t len : lengths) {
        const std::string ctx = std::string(vec::DispatchLevelName(level)) +
                                " pre=" + std::to_string(pre) +
                                " len=" + std::to_string(len) +
                                " phase=" + std::to_string(mega.state().phase);
        BlockRng::State st = mega.state();
        uint64_t skipped = 0;
        vec::MegaFillMinScanSpans(&st, /*wpv=*/2, 1.0, {a.data(), len}, {},
                                  0.5, skip_words.data(), kSpan,
                                  span_min.data(), hits.data(), hits.size(),
                                  &skipped);
        mega.RestoreState(st);
        scratch.resize(2 * len);
        twin.FillUint64(scratch);
        const Rng::State sm = mega.state(), st2 = twin.state();
        ASSERT_EQ(sm.phase, st2.phase) << ctx;
        ASSERT_EQ(sm.words, st2.words) << ctx;
        // The pass read exactly the twin's words: its minimum magnitude
        // word is theirs.
        uint64_t want_min = ~0ull;
        for (size_t i = 0; i < len; ++i) {
          want_min = std::min(want_min, scratch[2 * i]);
        }
        const size_t nspans = (len + kSpan - 1) / kSpan;
        EXPECT_EQ(*std::min_element(span_min.begin(),
                                    span_min.begin() + nspans),
                  want_min)
            << ctx;
        // Interleave a scalar draw on both streams, as the engine does for
        // a positive's resample, so the next pass enters at a new phase.
        ASSERT_EQ(mega.NextUint64(), twin.NextUint64()) << ctx;
      }
    }
  }
}

// Two chunks of Laplace ν words in the batch engine: the distances its
// workers jump are multiples of this.
constexpr uint64_t kEngineChunkWords = 2 * 2048;

BlockRng AtPhase(uint64_t seed, int phase) {
  BlockRng rng(seed);
  for (int k = 0; k < phase; ++k) rng.Next();
  return rng;
}

void ExpectSameBlockState(const BlockRng& a, const BlockRng& b,
                          const std::string& context) {
  const BlockRng::State sa = a.state(), sb = b.state();
  EXPECT_EQ(sa.phase, sb.phase) << context;
  EXPECT_EQ(sa.words, sb.words) << context;
}

TEST(AdvanceTest, EqualsThatManyNextCalls) {
  std::vector<uint64_t> distances;
  for (uint64_t k = 0; k <= 17; ++k) distances.push_back(k);
  for (uint64_t m : {1, 2, 3, 5, 8, 13}) {
    distances.push_back(m * kEngineChunkWords);
  }
  distances.push_back((uint64_t{1} << 20) + 3);
  std::vector<uint64_t> sink;
  for (uint64_t seed : {uint64_t{1}, uint64_t{42}, uint64_t{20261017}}) {
    for (int phase = 0; phase < 4; ++phase) {
      for (uint64_t k : distances) {
        BlockRng jumped = AtPhase(seed, phase), stepped = jumped;
        jumped.Advance(k);
        sink.resize(k);
        stepped.Fill(sink);
        ExpectSameBlockState(jumped, stepped,
                             "seed=" + std::to_string(seed) +
                                 " phase=" + std::to_string(phase) +
                                 " k=" + std::to_string(k));
        EXPECT_EQ(jumped.Next(), stepped.Next());
      }
    }
  }
}

TEST(AdvanceTest, ComposesAdditively) {
  const uint64_t big = uint64_t{1} << 40;
  const std::pair<uint64_t, uint64_t> splits[] = {
      {0, 0},          {1, 2},
      {3, 1},          {513, 2050},
      {kEngineChunkWords, 7 * kEngineChunkWords},
      {big, big},      {big + 5, 3},
      {(uint64_t{1} << 62) + 3, (uint64_t{1} << 61) + 1},
  };
  for (int phase = 0; phase < 4; ++phase) {
    for (const auto& [a, b] : splits) {
      BlockRng twice = AtPhase(77, phase), once = twice;
      twice.Advance(a);
      twice.Advance(b);
      once.Advance(a + b);
      ExpectSameBlockState(twice, once,
                           "phase=" + std::to_string(phase) +
                               " a=" + std::to_string(a) +
                               " b=" + std::to_string(b));
    }
  }
}

// One lane's xoshiro256 state transition as a 256 x 256 matrix over GF(2):
// column j is the image of the state with only bit j set (bit j % 64 of
// state word j / 64). Squaring it reaches distances no stepping can, with
// no polynomial arithmetic shared with the library.
using Bits256 = std::array<uint64_t, 4>;

struct Gf2Transition {
  std::array<Bits256, 256> col{};

  Bits256 Apply(const Bits256& v) const {
    Bits256 r{};
    for (size_t j = 0; j < 256; ++j) {
      if ((v[j / 64] >> (j % 64) & 1) != 0) {
        for (size_t w = 0; w < 4; ++w) r[w] ^= col[j][w];
      }
    }
    return r;
  }

  Gf2Transition Squared() const {
    Gf2Transition m;
    for (size_t j = 0; j < 256; ++j) m.col[j] = Apply(col[j]);
    return m;
  }
};

Gf2Transition XoshiroTransition() {
  Gf2Transition t;
  for (size_t j = 0; j < 256; ++j) {
    RefXoshiro x(0);
    for (auto& word : x.s) word = 0;
    x.s[j / 64] = uint64_t{1} << (j % 64);
    x.Next();
    for (size_t w = 0; w < 4; ++w) t.col[j][w] = x.s[w];
  }
  return t;
}

TEST(AdvanceTest, MatchesTheTransitionMatrixAtTwoToTheForty) {
  // 2^40 words from a lane-aligned position are 2^38 steps of every lane.
  Gf2Transition t = XoshiroTransition();
  for (int i = 0; i < 38; ++i) t = t.Squared();
  for (uint64_t seed : {uint64_t{5}, uint64_t{20261017}}) {
    BlockRng rng(seed);
    const BlockRng::State before = rng.state();
    rng.Advance(uint64_t{1} << 40);
    const BlockRng::State after = rng.state();
    EXPECT_EQ(after.phase, 0u);
    for (size_t lane = 0; lane < BlockRng::kLanes; ++lane) {
      Bits256 v;
      for (size_t w = 0; w < 4; ++w) {
        v[w] = before.words[w * BlockRng::kLanes + lane];
      }
      const Bits256 want = t.Apply(v);
      for (size_t w = 0; w < 4; ++w) {
        EXPECT_EQ(after.words[w * BlockRng::kLanes + lane], want[w])
            << "seed=" << seed << " lane=" << lane << " word=" << w;
      }
    }
  }
}

}  // namespace
}  // namespace svt
