// Batch/streaming equivalence: under the draw-order contract pinned on
// SpecDrivenSvt (core/svt.h), Run()/RunAppend() must emit bit-for-bit the
// Response sequence of a scalar Process() loop with the same seed — for
// every variant's noise structure, at sizes that straddle the engine's
// chunking, through positives, cutoff aborts, numeric outputs and Reset
// cycles. This is the test that licenses every batch-path optimization.

#include "core/batch_runner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/vecmath.h"
#include "core/budget.h"
#include "core/response.h"
#include "core/svt.h"
#include "core/svt_variants.h"
#include "core/variant_spec.h"
#include "data/bound_prefilter.h"
#include "dispatch_test_util.h"

namespace svt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Builds an answer stream whose positives are sprinkled at irregular
// positions (including exactly at chunk boundaries) on a far-below
// baseline, so both the tier-1 all-below shortcut and the slow path get
// exercised within one run.
std::vector<double> MixedAnswers(size_t n) {
  std::vector<double> answers(n, -50.0);
  for (size_t i = 0; i < n; i += 97) answers[i] = 10.0;   // clear positives
  for (size_t i = 31; i < n; i += 211) answers[i] = 0.1;  // borderline
  if (n > BatchRunner::kChunkSize) {
    answers[BatchRunner::kChunkSize - 1] = 10.0;
    answers[BatchRunner::kChunkSize] = 10.0;
  }
  return answers;
}

// Responses must agree exactly, including numeric payloads bit for bit.
void ExpectSameResponses(const std::vector<Response>& batch,
                         const std::vector<Response>& stream,
                         const std::string& context) {
  ASSERT_EQ(batch.size(), stream.size()) << context;
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].outcome, stream[i].outcome) << context << " i=" << i;
    if (batch[i].outcome == Outcome::kAboveValue) {
      ASSERT_EQ(batch[i].value, stream[i].value) << context << " i=" << i;
    }
  }
}

// Runs mechanism `a` through the batch path and `b` (same seed) through a
// manual streaming loop, over several Reset cycles, and demands identical
// output plus identical counters.
void CheckEquivalence(SvtMechanism* batch_mech, SvtMechanism* stream_mech,
                      const std::vector<double>& answers, double threshold,
                      const std::string& context) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    const std::vector<Response> batch = batch_mech->Run(answers, threshold);
    std::vector<Response> stream;
    for (double a : answers) {
      if (stream_mech->exhausted()) break;
      stream.push_back(stream_mech->Process(a, threshold));
    }
    ExpectSameResponses(batch, stream,
                        context + " cycle=" + std::to_string(cycle));
    EXPECT_EQ(batch_mech->positives_emitted(),
              stream_mech->positives_emitted())
        << context;
    EXPECT_EQ(batch_mech->queries_processed(),
              stream_mech->queries_processed())
        << context;
    EXPECT_EQ(batch_mech->exhausted(), stream_mech->exhausted()) << context;
    batch_mech->Reset();
    stream_mech->Reset();
  }
}

class VariantEquivalence : public ::testing::TestWithParam<VariantId> {};

TEST_P(VariantEquivalence, BatchMatchesStreamingAcrossChunks) {
  const VariantId id = GetParam();
  // 3 full chunks plus an odd tail; cutoff high enough to survive most of
  // the stream but low enough to abort some cycles mid-run.
  const std::vector<double> answers =
      MixedAnswers(3 * BatchRunner::kChunkSize + 123);
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng_batch(seed), rng_stream(seed);
    auto batch = MakeVariantMechanism(id, 1.0, 1.0, 40, &rng_batch).value();
    auto stream = MakeVariantMechanism(id, 1.0, 1.0, 40, &rng_stream).value();
    CheckEquivalence(batch.get(), stream.get(), answers, 0.0,
                     std::string(VariantIdToString(id)) + " seed=" +
                         std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VariantEquivalence,
    ::testing::Values(VariantId::kAlg1, VariantId::kAlg2, VariantId::kAlg3,
                      VariantId::kAlg4, VariantId::kAlg5, VariantId::kAlg6,
                      VariantId::kGptt, VariantId::kStandard,
                      VariantId::kExpNoise, VariantId::kRevisited));

TEST_P(VariantEquivalence, BatchOutputIdenticalAcrossDispatchLevels) {
  // Scalar vs SIMD dispatch for every variant's noise structure: same
  // seed, same batch, bit-identical responses. Skips the SIMD half where
  // no SIMD level is compiled in / supported.
  const VariantId id = GetParam();
  ScopedDispatchLevel restore;
  const std::vector<double> answers =
      MixedAnswers(2 * BatchRunner::kChunkSize + 77);

  ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
  Rng rng_scalar(41);
  auto scalar_mech = MakeVariantMechanism(id, 1.0, 1.0, 40, &rng_scalar)
                         .value();
  const std::vector<Response> scalar_out = scalar_mech->Run(answers, 0.0);

  for (vec::DispatchLevel level :
       {vec::DispatchLevel::kAvx2, vec::DispatchLevel::kAvx512}) {
    if (!vec::SetDispatchLevel(level)) continue;
    Rng rng_simd(41);
    auto simd_mech =
        MakeVariantMechanism(id, 1.0, 1.0, 40, &rng_simd).value();
    const std::vector<Response> simd_out = simd_mech->Run(answers, 0.0);
    ExpectSameResponses(simd_out, scalar_out,
                        std::string(VariantIdToString(id)) + " dispatch " +
                            vec::DispatchLevelName(level));
    EXPECT_EQ(simd_mech->positives_emitted(),
              scalar_mech->positives_emitted());
    EXPECT_EQ(simd_mech->queries_processed(),
              scalar_mech->queries_processed());
  }
}

TEST(BatchRunnerTest, NumericOutputEpsilon3Equivalence) {
  // Alg. 7 with ε₃ > 0: numeric answers draw from the base stream at each
  // positive — the interleaving the substream contract exists to protect.
  SvtOptions o;
  o.epsilon = 2.0;
  o.cutoff = 25;
  o.numeric_output_fraction = 0.3;
  const std::vector<double> answers = MixedAnswers(5000);
  Rng rng_batch(11), rng_stream(11);
  auto batch = SparseVector::Create(o, &rng_batch).value();
  auto stream = SparseVector::Create(o, &rng_stream).value();
  CheckEquivalence(batch.get(), stream.get(), answers, 0.0, "eps3");
}

TEST(BatchRunnerTest, PerQueryThresholdEquivalence) {
  const size_t n = 2 * BatchRunner::kChunkSize + 57;
  const std::vector<double> answers = MixedAnswers(n);
  std::vector<double> thresholds(n);
  for (size_t i = 0; i < n; ++i) {
    thresholds[i] = (i % 5 == 0) ? -1.0 : 0.5;
  }
  for (uint64_t seed : {4u, 5u}) {
    Rng rng_batch(seed), rng_stream(seed);
    SvtOptions o;
    o.epsilon = 1.0;
    o.cutoff = 60;
    auto batch = SparseVector::Create(o, &rng_batch).value();
    auto stream = SparseVector::Create(o, &rng_stream).value();
    for (int cycle = 0; cycle < 2; ++cycle) {
      const std::vector<Response> b = batch->Run(answers, thresholds);
      std::vector<Response> s;
      for (size_t i = 0; i < n; ++i) {
        if (stream->exhausted()) break;
        s.push_back(stream->Process(answers[i], thresholds[i]));
      }
      ExpectSameResponses(b, s, "per-query seed=" + std::to_string(seed));
      batch->Reset();
      stream->Reset();
    }
  }
}

TEST(BatchRunnerTest, CutoffTruncatesExactly) {
  Rng rng(6);
  SvtOptions o;
  o.epsilon = 100.0;  // tiny noise: the first `cutoff` answers all fire
  o.cutoff = 2;
  auto mech = SparseVector::Create(o, &rng).value();
  const std::vector<double> answers(50, 1e9);
  const std::vector<Response> rs = mech->Run(answers, 0.0);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_TRUE(rs[0].is_positive());
  EXPECT_TRUE(rs[1].is_positive());
  EXPECT_TRUE(mech->exhausted());
  // An exhausted mechanism appends nothing.
  EXPECT_TRUE(mech->Run(answers, 0.0).empty());
}

TEST(BatchRunnerTest, RunAppendReusesBuffer) {
  Rng rng(7);
  SvtOptions o;
  o.epsilon = 1.0;
  o.cutoff = 1000;
  auto mech = SparseVector::Create(o, &rng).value();
  const std::vector<double> answers(100, -50.0);
  std::vector<Response> buffer;
  EXPECT_EQ(mech->RunAppend(answers, 0.0, &buffer), 100u);
  EXPECT_EQ(buffer.size(), 100u);
  // Appending keeps prior content in place.
  EXPECT_EQ(mech->RunAppend(answers, 0.0, &buffer), 100u);
  EXPECT_EQ(buffer.size(), 200u);
  buffer.clear();
  EXPECT_EQ(mech->RunAppend(answers, 0.0, &buffer), 100u);
  EXPECT_EQ(buffer.size(), 100u);
}

TEST(BatchRunnerTest, EmptyBatchIsANoOp) {
  Rng rng(8);
  SvtOptions o;
  auto mech = SparseVector::Create(o, &rng).value();
  EXPECT_TRUE(mech->Run(std::vector<double>{}, 0.0).empty());
  EXPECT_EQ(mech->queries_processed(), 0);
  // The RNG position is untouched: a subsequent run matches a fresh
  // same-seed mechanism that never saw the empty batch.
  Rng rng2(8);
  auto mech2 = SparseVector::Create(o, &rng2).value();
  const std::vector<double> answers = MixedAnswers(100);
  ExpectSameResponses(mech->Run(answers, 0.0), mech2->Run(answers, 0.0),
                      "empty-batch");
}

TEST(BatchRunnerTest, MixedStreamingAndBatchStaysAligned) {
  // Feeding the first k queries through Process() and the rest through
  // Run() must equal the all-streaming sequence: the batch engine picks up
  // the ν substream exactly where streaming left it.
  const std::vector<double> answers = MixedAnswers(3000);
  Rng rng_mixed(9), rng_stream(9);
  SvtOptions o;
  o.epsilon = 1.0;
  o.cutoff = 100;
  auto mixed = SparseVector::Create(o, &rng_mixed).value();
  auto stream = SparseVector::Create(o, &rng_stream).value();

  const size_t split = 123;
  std::vector<Response> mixed_out;
  for (size_t i = 0; i < split && !mixed->exhausted(); ++i) {
    mixed_out.push_back(mixed->Process(answers[i], 0.0));
  }
  if (!mixed->exhausted()) {
    mixed->RunAppend(
        std::span<const double>(answers).subspan(split), 0.0, &mixed_out);
  }

  std::vector<Response> stream_out;
  for (double a : answers) {
    if (stream->exhausted()) break;
    stream_out.push_back(stream->Process(a, 0.0));
  }
  ExpectSameResponses(mixed_out, stream_out, "mixed");
}

TEST(BatchRunnerTest, AllBelowFastPathCountsProcessed) {
  Rng rng(10);
  SvtOptions o;
  o.epsilon = 0.5;
  o.cutoff = 3;
  auto mech = SparseVector::Create(o, &rng).value();
  const std::vector<double> answers(4096, -1e9);
  const std::vector<Response> rs = mech->Run(answers, 0.0);
  EXPECT_EQ(rs.size(), 4096u);
  EXPECT_EQ(mech->queries_processed(), 4096);
  EXPECT_EQ(mech->positives_emitted(), 0);
  for (const Response& r : rs) ASSERT_FALSE(r.is_positive());
  // Far-below answers are exactly what the tier-1 bound proves ⊥: both
  // chunks skip, nothing reaches tier-2.
  EXPECT_EQ(mech->batch_stats().tier1_chunks_skipped, 2);
  EXPECT_EQ(mech->batch_stats().tier2_chunks_scanned, 0);
}

// Builds a near-threshold stream: every answer within a few ν scales of
// the threshold, so no chunk can be proven all-below (the tier-1 bound on
// 2048 draws is ~7.6 ν scales) while positives stay rare — the regime
// where Lyu-Su-Li's variants spend their noise draws.
std::vector<double> NearThresholdAnswers(size_t n, double nu_scale,
                                         uint64_t seed) {
  std::vector<double> answers(n);
  Rng gen(seed);
  for (double& a : answers) {
    a = (-6.0 + (gen.NextDouble() - 0.5)) * nu_scale;
  }
  return answers;
}

TEST(BatchRunnerTest, NearThresholdWorkloadExercisesTier2) {
  // Queries clustered at ρ±ν scale: tier-2 must run for every chunk (the
  // skip counter proves the workload actually hits the transform path) and
  // stay bitwise-equal to streaming.
  const size_t n = 4 * BatchRunner::kChunkSize + 321;
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 1 << 20;
  o.monotonic = true;
  Rng rng_probe(21);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();
  const std::vector<double> answers = NearThresholdAnswers(n, nu_scale, 99);

  Rng rng_batch(21), rng_stream(21);
  auto batch = SparseVector::Create(o, &rng_batch).value();
  auto stream = SparseVector::Create(o, &rng_stream).value();

  const std::vector<Response> b = batch->Run(answers, 0.0);
  std::vector<Response> s;
  for (double a : answers) {
    if (stream->exhausted()) break;
    s.push_back(stream->Process(a, 0.0));
  }
  ExpectSameResponses(b, s, "near-threshold");

  // Every chunk materialized its ν block; none was skipped.
  EXPECT_EQ(batch->batch_stats().tier1_chunks_skipped, 0);
  EXPECT_EQ(batch->batch_stats().tier2_chunks_scanned, 5);
  // Positives occur (the workload is near, not under, the threshold) but
  // stay rare — this is a ⊥-dominated tier-2 stream, not a cutoff test.
  EXPECT_GT(batch->positives_emitted(), 0);
  EXPECT_LT(batch->positives_emitted(), static_cast<int>(n / 100));

  // Reset clears the tier counters with the rest of the run state.
  batch->Reset();
  EXPECT_EQ(batch->batch_stats().tier1_chunks_skipped, 0);
  EXPECT_EQ(batch->batch_stats().tier2_chunks_scanned, 0);
}

TEST(BatchRunnerTest, BatchOutputIndependentOfDispatchLevel) {
  // The vecmath kernels are bit-identical across dispatch levels, so the
  // whole mechanism — responses, counters, tier decisions — must be too.
  // On hosts without AVX2 this degenerates to scalar-vs-scalar.
  ScopedDispatchLevel restore;
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 50;
  o.monotonic = true;
  Rng rng_probe(33);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();
  std::vector<double> answers =
      NearThresholdAnswers(3 * BatchRunner::kChunkSize, nu_scale, 7);
  // Splice in far-below stretches so tier-1 skips on some chunks too.
  for (size_t i = 0; i < BatchRunner::kChunkSize; ++i) {
    answers[BatchRunner::kChunkSize + i] = -1e9;
  }

  ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
  Rng rng_scalar(5);
  auto scalar_mech = SparseVector::Create(o, &rng_scalar).value();
  const std::vector<Response> scalar_out = scalar_mech->Run(answers, 0.0);
  const auto scalar_stats = scalar_mech->batch_stats();

  for (vec::DispatchLevel level :
       {vec::DispatchLevel::kAvx2, vec::DispatchLevel::kAvx512}) {
    if (!vec::SetDispatchLevel(level)) continue;
    Rng rng_simd(5);
    auto simd_mech = SparseVector::Create(o, &rng_simd).value();
    const std::vector<Response> simd_out = simd_mech->Run(answers, 0.0);
    ExpectSameResponses(simd_out, scalar_out,
                        std::string("dispatch ") +
                            vec::DispatchLevelName(level));
    EXPECT_EQ(simd_mech->batch_stats().tier1_chunks_skipped,
              scalar_stats.tier1_chunks_skipped);
    EXPECT_EQ(simd_mech->batch_stats().tier2_chunks_scanned,
              scalar_stats.tier2_chunks_scanned);
    EXPECT_EQ(simd_mech->positives_emitted(),
              scalar_mech->positives_emitted());
  }
  EXPECT_GT(scalar_stats.tier1_chunks_skipped, 0);
  EXPECT_GT(scalar_stats.tier2_chunks_scanned, 0);
}

TEST(BatchRunnerTest, PerQueryThresholdNearThresholdAcrossDispatchLevels) {
  // The per-query-threshold scan (FindFirst*Pairwise) in its target
  // regime: every answer AND every bar within a few ν scales of zero, odd
  // tail sizes, ties near chunk boundaries. Batch must equal streaming
  // bit for bit at every dispatch level, with and without query noise.
  ScopedDispatchLevel restore;
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 200;
  o.monotonic = true;
  Rng rng_probe(55);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();

  for (size_t n : {2 * BatchRunner::kChunkSize + 1,
                   3 * BatchRunner::kChunkSize - 1, size_t{613}}) {
    std::vector<double> answers(n), thresholds(n);
    Rng gen(n);
    for (size_t i = 0; i < n; ++i) {
      answers[i] = (-6.0 + (gen.NextDouble() - 0.5)) * nu_scale;
      thresholds[i] = (gen.NextDouble() - 0.5) * nu_scale;
    }
    // A bar pattern that ties exactly at a chunk boundary answer.
    if (n > BatchRunner::kChunkSize) {
      thresholds[BatchRunner::kChunkSize] = answers[BatchRunner::kChunkSize];
    }

    // Scalar streaming is the reference for every (level, path) pair.
    ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
    Rng rng_stream(77);
    auto stream = SparseVector::Create(o, &rng_stream).value();
    std::vector<Response> ref;
    for (size_t i = 0; i < n; ++i) {
      if (stream->exhausted()) break;
      ref.push_back(stream->Process(answers[i], thresholds[i]));
    }

    for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
      if (!vec::SetDispatchLevel(level)) continue;
      Rng rng_batch(77);
      auto batch = SparseVector::Create(o, &rng_batch).value();
      const std::vector<Response> b = batch->Run(answers, thresholds);
      ExpectSameResponses(b, ref,
                          std::string("per-query near-threshold ") +
                              vec::DispatchLevelName(level) +
                              " n=" + std::to_string(n));
      // Per-query chunks always run tier-2 (no tier-1 bound is sound).
      EXPECT_EQ(batch->batch_stats().tier1_chunks_skipped, 0);
      EXPECT_GT(batch->batch_stats().tier2_chunks_scanned, 0);
    }
  }

  // The ν-free per-query path (pure FindFirstGePairwise): Alg. 5
  // (Stoddard) has nu_scale == 0, so the scan compares raw answers to
  // per-query bars.
  const size_t n = BatchRunner::kChunkSize + 13;
  std::vector<double> answers(n, -1.0), thresholds(n);
  Rng gen(3);
  for (size_t i = 0; i < n; ++i) {
    thresholds[i] = gen.NextDouble() - 0.97;  // bars straddle the answers
  }
  ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
  Rng rng_stream(91);
  auto stream =
      MakeVariantMechanism(VariantId::kAlg5, 1.0, 1.0, 30, &rng_stream)
          .value();
  std::vector<Response> ref;
  for (size_t i = 0; i < n; ++i) {
    if (stream->exhausted()) break;
    ref.push_back(stream->Process(answers[i], thresholds[i]));
  }
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    Rng rng_batch(91);
    auto batch =
        MakeVariantMechanism(VariantId::kAlg5, 1.0, 1.0, 30, &rng_batch)
            .value();
    ExpectSameResponses(batch->Run(answers, thresholds), ref,
                        std::string("nu-free per-query ") +
                            vec::DispatchLevelName(level));
  }
}

TEST(BatchRunnerTest, InterleavedCommonAndPerQueryRunAppendAcrossLevels) {
  // One mechanism fed alternately through the common-threshold and the
  // per-query-threshold RunAppend overloads — the two fused tier-2 paths
  // share the ν substream, so their interleaving must stay draw-for-draw
  // aligned with one streaming Process() loop, at every dispatch level,
  // including segments with odd tails shorter than a SIMD width.
  ScopedDispatchLevel restore;
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 500;
  o.monotonic = true;
  Rng rng_probe(66);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();

  const size_t n = 3 * BatchRunner::kChunkSize + 41;
  std::vector<double> answers(n), bars(n);
  Rng gen(13);
  for (size_t i = 0; i < n; ++i) {
    answers[i] = (-6.0 + (gen.NextDouble() - 0.5)) * nu_scale;
    bars[i] = (gen.NextDouble() - 0.5) * nu_scale;
  }
  // Segment lengths cycle through odd tails, sub-SIMD-width pieces, and
  // chunk-crossing blocks; even segments run common-threshold (bar 0 for
  // every element), odd segments the per-query overload.
  const size_t seg_len[] = {7, 613, 3, BatchRunner::kChunkSize + 9, 1, 257};

  // Streaming reference (scalar level).
  ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
  Rng rng_stream(29);
  auto stream = SparseVector::Create(o, &rng_stream).value();
  std::vector<Response> ref;
  {
    size_t i = 0, seg = 0;
    while (i < n && !stream->exhausted()) {
      const size_t len = std::min(seg_len[seg % 6], n - i);
      for (size_t k = 0; k < len && !stream->exhausted(); ++k) {
        const double bar = (seg % 2 == 0) ? 0.0 : bars[i + k];
        ref.push_back(stream->Process(answers[i + k], bar));
      }
      i += len;
      ++seg;
    }
  }

  std::optional<BatchRunStats> scalar_stats;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    Rng rng_batch(29);
    auto batch = SparseVector::Create(o, &rng_batch).value();
    std::vector<Response> got;
    size_t i = 0, seg = 0;
    while (i < n && !batch->exhausted()) {
      const size_t len = std::min(seg_len[seg % 6], n - i);
      const std::span<const double> a{answers.data() + i, len};
      if (seg % 2 == 0) {
        batch->RunAppend(a, 0.0, &got);
      } else {
        batch->RunAppend(a, {bars.data() + i, len}, &got);
      }
      i += len;
      ++seg;
    }
    ExpectSameResponses(got, ref,
                        std::string("interleaved ") +
                            vec::DispatchLevelName(level));
    EXPECT_EQ(batch->positives_emitted(), stream->positives_emitted());
    EXPECT_EQ(batch->queries_processed(), stream->queries_processed());

    // The fused paths must be observable: both overloads ran tier-2, the
    // per-query path pulled bounded sub-blocks, and the counters — like
    // the responses — are dispatch-level-independent.
    const BatchRunStats& st = batch->batch_stats();
    EXPECT_GT(st.tier2_chunks_scanned, 0) << vec::DispatchLevelName(level);
    EXPECT_GT(st.tier2_fused_segments, 0) << vec::DispatchLevelName(level);
    EXPECT_GT(st.tier2_fused_subblocks, 0) << vec::DispatchLevelName(level);
    if (!scalar_stats.has_value()) {
      scalar_stats = st;
    } else {
      EXPECT_EQ(st.tier1_chunks_skipped, scalar_stats->tier1_chunks_skipped);
      EXPECT_EQ(st.tier2_chunks_scanned, scalar_stats->tier2_chunks_scanned);
      EXPECT_EQ(st.tier2_fused_segments, scalar_stats->tier2_fused_segments);
      EXPECT_EQ(st.tier2_fused_subblocks,
                scalar_stats->tier2_fused_subblocks);
      EXPECT_EQ(st.tier2_spans_skipped, scalar_stats->tier2_spans_skipped);
    }
  }
}

TEST(BatchRunnerTest, HierarchicalBoundSkipsSpansInsideTier2Chunks) {
  // A chunk with one near-threshold element defeats the whole-chunk bound
  // (the chunk must run tier-2) while every other kBoundSpan-sized span is
  // far below — those spans skip their transform, observably.
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 100;
  o.monotonic = true;
  Rng rng_probe(31);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();

  const size_t n = BatchRunner::kChunkSize;
  std::vector<double> answers(n, -1e9);
  answers[n - 1] = -0.5 * nu_scale;  // near the bar: no bound can clear it
  Rng rng_batch(31), rng_stream(31);
  auto batch = SparseVector::Create(o, &rng_batch).value();
  auto stream = SparseVector::Create(o, &rng_stream).value();

  const std::vector<Response> b = batch->Run(answers, 0.0);
  std::vector<Response> s;
  for (double a : answers) {
    if (stream->exhausted()) break;
    s.push_back(stream->Process(a, 0.0));
  }
  ExpectSameResponses(b, s, "hierarchical-bound");

  const BatchRunStats& st = batch->batch_stats();
  EXPECT_EQ(st.tier1_chunks_skipped, 0);
  EXPECT_EQ(st.tier2_chunks_scanned, 1);
  // All spans except the one holding the near-threshold element skip.
  EXPECT_GE(st.tier2_spans_skipped,
            static_cast<int64_t>(n / BatchRunner::kBoundSpan) - 1);
  EXPECT_GT(st.tier2_fused_segments, 0);
}

// An all-exponential spec with moderate scales, long-running (huge cutoff)
// so tier counters accumulate over many chunks.
VariantSpec AllExponentialSpec() {
  VariantSpec spec;
  spec.name = "exp-nu-batch-test";
  spec.rho_kind = NoiseKind::kExponential;
  spec.rho_scale = 1.0;
  spec.nu_kind = NoiseKind::kExponential;
  spec.nu_scale = 1.0;
  spec.cutoff = 1 << 20;
  return spec;
}

TEST(BatchRunnerTest, ExpNuOneSidedEnvelopeTierBehavior) {
  // The chunk bound under exponential ν is the one-sided envelope
  // b·(-log u_min): ν_i ∈ [0, b·(-log u_min)], one word per variate. This
  // test pins both halves of its contract: far-below chunks skip at tier 1
  // (the envelope is tight enough to prove ⊥), and a near-threshold
  // workload — answers within the envelope of the bar — runs tier 2 and
  // stays bit-identical to streaming (the envelope never skips a chunk
  // that could fire, or streaming would emit a ⊤ the batch path dropped).
  const size_t n = 2 * BatchRunner::kChunkSize;

  {
    // ρ ≥ 0 and ν ≤ envelope: answers at -1e9 are unreachable.
    Rng rng_batch(3), rng_stream(3);
    CustomSvt batch(AllExponentialSpec(), &rng_batch);
    CustomSvt stream(AllExponentialSpec(), &rng_stream);
    const std::vector<double> answers(n, -1e9);
    CheckEquivalence(&batch, &stream, answers, 0.0, "exp-nu far-below");
    batch.Reset();
    batch.Run(answers, 0.0);
    EXPECT_EQ(batch.batch_stats().tier1_chunks_skipped, 2);
    EXPECT_EQ(batch.batch_stats().tier2_chunks_scanned, 0);
  }

  {
    // Near-threshold on the one-sided axis: answers a few ν scales under
    // the bar (ρ ≥ 0 pushes the bar up, so stay close), where only the
    // upper envelope decides skips. Positives need ν ≥ |a| + ρ (≈ e^-3
    // each), so they occur but stay rare.
    std::vector<double> answers(n);
    Rng gen(99);
    for (double& a : answers) a = -3.0 + (gen.NextDouble() - 0.5);
    Rng rng_batch(5), rng_stream(5);
    CustomSvt batch(AllExponentialSpec(), &rng_batch);
    CustomSvt stream(AllExponentialSpec(), &rng_stream);
    CheckEquivalence(&batch, &stream, answers, 0.0, "exp-nu near-threshold");
    batch.Reset();
    batch.Run(answers, 0.0);
    EXPECT_EQ(batch.batch_stats().tier1_chunks_skipped, 0);
    EXPECT_EQ(batch.batch_stats().tier2_chunks_scanned, 2);
    EXPECT_GT(batch.positives_emitted(), 0);
  }

  {
    // Hierarchical spans under exponential ν: one near element defeats the
    // chunk bound, every other kBoundSpan span still proves all-⊥ from the
    // span-local envelope and skips its transform.
    std::vector<double> answers(BatchRunner::kChunkSize, -1e9);
    answers[BatchRunner::kChunkSize - 1] = -0.5;
    Rng rng_batch(7), rng_stream(7);
    CustomSvt batch(AllExponentialSpec(), &rng_batch);
    CustomSvt stream(AllExponentialSpec(), &rng_stream);
    CheckEquivalence(&batch, &stream, answers, 0.0, "exp-nu hierarchical");
    batch.Reset();
    batch.Run(answers, 0.0);
    const BatchRunStats& st = batch.batch_stats();
    EXPECT_EQ(st.tier1_chunks_skipped, 0);
    EXPECT_EQ(st.tier2_chunks_scanned, 1);
    EXPECT_GE(st.tier2_spans_skipped,
              static_cast<int64_t>(BatchRunner::kChunkSize /
                                   BatchRunner::kBoundSpan) -
                  1);
  }

  // Per-query-threshold overload with exponential ν, across dispatch
  // levels: one word per variate through the bounded fills too.
  {
    ScopedDispatchLevel restore;
    const size_t pn = BatchRunner::kChunkSize + 613;
    std::vector<double> answers(pn), bars(pn);
    Rng gen(17);
    for (size_t i = 0; i < pn; ++i) {
      answers[i] = -6.0 + (gen.NextDouble() - 0.5);
      bars[i] = gen.NextDouble() - 0.5;
    }
    ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
    Rng rng_stream(23);
    CustomSvt stream(AllExponentialSpec(), &rng_stream);
    std::vector<Response> ref;
    for (size_t i = 0; i < pn; ++i) {
      if (stream.exhausted()) break;
      ref.push_back(stream.Process(answers[i], bars[i]));
    }
    for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
      if (!vec::SetDispatchLevel(level)) continue;
      Rng rng_batch(23);
      CustomSvt batch(AllExponentialSpec(), &rng_batch);
      ExpectSameResponses(batch.Run(answers, bars), ref,
                          std::string("exp-nu per-query ") +
                              vec::DispatchLevelName(level));
    }
  }
}

class ScopedBatchKernelMode {
 public:
  explicit ScopedBatchKernelMode(BatchKernelMode mode)
      : saved_(ActiveBatchKernelMode()) {
    SetBatchKernelMode(mode);
  }
  ~ScopedBatchKernelMode() { SetBatchKernelMode(saved_); }

  ScopedBatchKernelMode(const ScopedBatchKernelMode&) = delete;
  ScopedBatchKernelMode& operator=(const ScopedBatchKernelMode&) = delete;

 private:
  BatchKernelMode saved_;
};

TEST(BatchRunnerTest, ParseBatchKernelModeFallsBackOnUnrecognized) {
  BatchKernelMode mode = BatchKernelMode::kComposition;
  EXPECT_TRUE(ParseBatchKernelMode("megakernel", &mode));
  EXPECT_EQ(mode, BatchKernelMode::kMegakernel);
  EXPECT_TRUE(ParseBatchKernelMode("composition", &mode));
  EXPECT_EQ(mode, BatchKernelMode::kComposition);
  // Anything else leaves *mode untouched: the SVT_BATCH_KERNELS reader
  // logs one warning and keeps the default instead of aborting.
  EXPECT_FALSE(ParseBatchKernelMode("fused", &mode));
  EXPECT_EQ(mode, BatchKernelMode::kComposition);
  EXPECT_FALSE(ParseBatchKernelMode("", &mode));
  EXPECT_EQ(mode, BatchKernelMode::kComposition);
  EXPECT_FALSE(ParseBatchKernelMode("Megakernel", &mode));
  EXPECT_EQ(mode, BatchKernelMode::kComposition);
}

TEST(BatchRunnerTest, MegakernelAndCompositionModesAgreeExactly) {
  // The kernel-mode axis is purely a performance toggle: responses, run
  // counters, every batch statistic, and the RNG stream positions must be
  // identical between modes — for Laplace and exponential ν, common and
  // per-query thresholds, near-threshold (tier-2 + positives + resumes)
  // and far-below (tier-1) chunks, at every dispatch level. The stream
  // positions are pinned by the back-to-back runs: any divergence in
  // words consumed by run 1 would shift every draw of run 2.
  ScopedDispatchLevel restore_level;
  ScopedBatchKernelMode restore_mode(ActiveBatchKernelMode());

  const size_t n = 2 * BatchRunner::kChunkSize + 123;
  std::vector<double> near(n), bars(n);
  Rng gen(2718);
  for (size_t i = 0; i < n; ++i) {
    // Near-threshold (tier-2, rare positives), with every third bound
    // span far below so the hierarchical span-skip path runs too.
    const bool far_span = (i / BatchRunner::kBoundSpan) % 3 == 0;
    near[i] = far_span ? -1e9 : -3.0 + (gen.NextDouble() - 0.5);
    bars[i] = gen.NextDouble() - 0.5;
  }
  const std::vector<double> far(n, -1e9);  // tier-1 skips every chunk

  struct Observed {
    std::vector<Response> common_near, common_far, common_resumed, per_query;
    BatchRunStats stats;
    int64_t positives = 0, processed = 0;
  };
  const auto run_all = [&](BatchKernelMode mode, bool exp_nu) {
    SetBatchKernelMode(mode);
    Observed obs;
    Rng rng(77);
    std::unique_ptr<SvtMechanism> mech;
    if (exp_nu) {
      mech = std::make_unique<CustomSvt>(AllExponentialSpec(), &rng);
    } else {
      SvtOptions o;
      o.epsilon = 0.5;
      o.cutoff = 1 << 20;
      mech = SparseVector::Create(o, &rng).value();
    }
    obs.common_near = mech->Run(near, 0.0);
    obs.common_far = mech->Run(far, 0.0);
    // Back-to-back re-run without reseeding: catches any stream-position
    // drift from run 1, and its resumes re-enter mid-chunk.
    obs.common_resumed = mech->Run(near, -0.5);
    obs.per_query = mech->Run(near, bars);
    auto* spec_mech = dynamic_cast<SpecDrivenSvt*>(mech.get());
    EXPECT_NE(spec_mech, nullptr);
    if (spec_mech != nullptr) obs.stats = spec_mech->batch_stats();
    obs.positives = mech->positives_emitted();
    obs.processed = mech->queries_processed();
    return obs;
  };

  // The element-granular per-query skip counter must be identical not just
  // across kernel modes but across dispatch levels (it is a deterministic
  // function of the stream words and the span skip words).
  std::optional<int64_t> words_skipped_by_nu[2];

  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (bool exp_nu : {false, true}) {
      const std::string ctx = std::string(vec::DispatchLevelName(level)) +
                              (exp_nu ? " exp" : " laplace");
      Observed mega, comp;
      {
        SCOPED_TRACE(ctx);
        mega = run_all(BatchKernelMode::kMegakernel, exp_nu);
        comp = run_all(BatchKernelMode::kComposition, exp_nu);
      }
      ExpectSameResponses(mega.common_near, comp.common_near,
                          ctx + " common near");
      ExpectSameResponses(mega.common_far, comp.common_far,
                          ctx + " common far");
      ExpectSameResponses(mega.common_resumed, comp.common_resumed,
                          ctx + " common resumed");
      ExpectSameResponses(mega.per_query, comp.per_query, ctx + " per-query");
      EXPECT_EQ(mega.positives, comp.positives) << ctx;
      EXPECT_GT(mega.positives, 0) << ctx << " workload must have positives";
      EXPECT_EQ(mega.processed, comp.processed) << ctx;
      EXPECT_EQ(mega.stats.tier1_chunks_skipped, comp.stats.tier1_chunks_skipped)
          << ctx;
      EXPECT_EQ(mega.stats.tier2_chunks_scanned, comp.stats.tier2_chunks_scanned)
          << ctx;
      EXPECT_EQ(mega.stats.tier2_fused_segments, comp.stats.tier2_fused_segments)
          << ctx;
      EXPECT_EQ(mega.stats.tier2_spans_skipped, comp.stats.tier2_spans_skipped)
          << ctx;
      EXPECT_EQ(mega.stats.tier2_fused_subblocks,
                comp.stats.tier2_fused_subblocks)
          << ctx;
      EXPECT_EQ(mega.stats.mega_words_skipped_q,
                comp.stats.mega_words_skipped_q)
          << ctx;
      EXPECT_EQ(mega.stats.replay_rederivations,
                comp.stats.replay_rederivations)
          << ctx;
      EXPECT_GT(mega.stats.tier1_chunks_skipped, 0) << ctx;
      EXPECT_GT(mega.stats.tier2_spans_skipped, 0) << ctx;
      // The per-query run's far-below spans have finite skip words, so the
      // skip counter moves; ρ never resamples here, so no resume enters
      // under a moved ρ in either mode.
      EXPECT_GT(mega.stats.mega_words_skipped_q, 0) << ctx;
      EXPECT_EQ(mega.stats.replay_rederivations, 0) << ctx;
      std::optional<int64_t>& words = words_skipped_by_nu[exp_nu ? 1 : 0];
      if (!words.has_value()) {
        words = mega.stats.mega_words_skipped_q;
      } else {
        EXPECT_EQ(*words, mega.stats.mega_words_skipped_q) << ctx;
      }
    }
  }
}

TEST(BatchRunnerTest, MegakernelModeAgreesUnderRhoResampling) {
  // ρ resampling moves the bar after every positive. Upward moves keep
  // the megakernel arm's cached fused-scan hits live: the cached walk
  // replays them with each recorded hit revalidated against the resampled
  // bar (the recorded ν are bit-identical to streaming's, so revalidation
  // is exact). Downward moves void the cache and the resume falls back to
  // the checkpoint walk — including rebuilding its stream cursor at an
  // off-grid position from the enclosing span's pass-1 checkpoint. A
  // hit-dense near-threshold workload forces many of both per chunk;
  // responses, counters, and stream positions must still match the
  // composition exactly at every dispatch level.
  ScopedDispatchLevel restore_level;
  ScopedBatchKernelMode restore_mode(ActiveBatchKernelMode());

  const size_t n = 2 * BatchRunner::kChunkSize + 57;
  std::vector<double> near(n);
  Rng gen(424242);
  for (size_t i = 0; i < n; ++i) {
    near[i] = -2.0 + 2.5 * (gen.NextDouble() - 0.5);
  }

  const auto run_all = [&](BatchKernelMode mode) {
    SetBatchKernelMode(mode);
    Rng rng(1234);
    SvtOptions o;
    o.epsilon = 0.75;
    o.cutoff = 1 << 20;
    o.resample_threshold_noise = true;
    auto mech = SparseVector::Create(o, &rng).value();
    std::vector<Response> out = mech->Run(near, 0.0);
    // Second run resumes from a shifted stream; its chunks re-enter the
    // fallback from fresh cached state.
    std::vector<Response> out2 = mech->Run(near, -0.25);
    auto* spec_mech = dynamic_cast<SpecDrivenSvt*>(mech.get());
    EXPECT_NE(spec_mech, nullptr);
    return std::tuple{std::move(out), std::move(out2),
                      spec_mech != nullptr ? spec_mech->batch_stats()
                                           : BatchRunStats{},
                      mech->positives_emitted()};
  };

  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    const std::string ctx(vec::DispatchLevelName(level));
    const auto [mega1, mega2, mega_stats, mega_pos] =
        run_all(BatchKernelMode::kMegakernel);
    const auto [comp1, comp2, comp_stats, comp_pos] =
        run_all(BatchKernelMode::kComposition);
    ExpectSameResponses(mega1, comp1, ctx + " run 1");
    ExpectSameResponses(mega2, comp2, ctx + " run 2");
    EXPECT_EQ(mega_pos, comp_pos) << ctx;
    EXPECT_GT(mega_pos, 20) << ctx << " workload must resample repeatedly";
    EXPECT_EQ(mega_stats.tier2_fused_segments, comp_stats.tier2_fused_segments)
        << ctx;
    EXPECT_EQ(mega_stats.tier2_spans_skipped, comp_stats.tier2_spans_skipped)
        << ctx;
    // Every mid-chunk resume here enters under a freshly resampled ρ, and
    // the counter is mode-independent by construction (counted centrally
    // at the resume site, before the walk decides cache vs. fallback).
    EXPECT_EQ(mega_stats.replay_rederivations, comp_stats.replay_rederivations)
        << ctx;
    EXPECT_GT(mega_stats.replay_rederivations, 0) << ctx;
    // Common-threshold runs never touch the per-query skip counter.
    EXPECT_EQ(mega_stats.mega_words_skipped_q, 0) << ctx;
    EXPECT_EQ(comp_stats.mega_words_skipped_q, 0) << ctx;
  }
}

TEST(BatchRunnerTest, PerQueryResamplingAgreesAcrossModesAndLevels) {
  // RevSVT-style workload: per-query thresholds with ρ resampled after
  // every positive. Each positive moves ρ mid-sub-block, so the megakernel
  // arm must either replay its recorded prepass hits against the resampled
  // ρ (upward moves — the span skip words derived at the entry ρ stay
  // sound because fl(bar_min + ρ) is monotone in ρ) or rebuild from span
  // checkpoints through the *bounded* pairwise kernels, re-deriving each
  // span's skip word at the current ρ (downward moves). Every third span
  // sits far below its bars so the skip-word vector actually bites.
  // Responses, positives, and both new counters must match the
  // composition exactly at every dispatch level — and the counters must
  // be identical across levels too.
  ScopedDispatchLevel restore_level;
  ScopedBatchKernelMode restore_mode(ActiveBatchKernelMode());

  const size_t n = 2 * BatchRunner::kChunkSize + 57;
  std::vector<double> answers(n), bars(n);
  Rng gen(31337);
  for (size_t i = 0; i < n; ++i) {
    const bool far_span = (i / BatchRunner::kBoundSpan) % 3 == 0;
    answers[i] = far_span ? -1e9 : -2.0 + 2.5 * (gen.NextDouble() - 0.5);
    bars[i] = gen.NextDouble() - 0.5;
  }

  const auto run_all = [&](BatchKernelMode mode, bool exp_noise) {
    SetBatchKernelMode(mode);
    Rng rng(4242);
    std::unique_ptr<SvtMechanism> mech;
    if (exp_noise) {
      VariantSpec spec = AllExponentialSpec();
      spec.resample_rho_after_positive = true;
      spec.rho_resample_scale = 1.0;
      mech = std::make_unique<CustomSvt>(spec, &rng);
    } else {
      SvtOptions o;
      o.epsilon = 0.75;
      o.cutoff = 1 << 20;
      o.resample_threshold_noise = true;
      mech = SparseVector::Create(o, &rng).value();
    }
    std::vector<Response> out = mech->Run(answers, bars);
    auto* spec_mech = dynamic_cast<SpecDrivenSvt*>(mech.get());
    EXPECT_NE(spec_mech, nullptr);
    return std::tuple{std::move(out),
                      spec_mech != nullptr ? spec_mech->batch_stats()
                                           : BatchRunStats{},
                      mech->positives_emitted()};
  };

  for (bool exp_noise : {false, true}) {
    std::optional<int64_t> level_words, level_rederiv;
    for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
      if (!vec::SetDispatchLevel(level)) continue;
      const std::string ctx = std::string(vec::DispatchLevelName(level)) +
                              (exp_noise ? " exp" : " laplace");
      const auto [mega, mega_stats, mega_pos] =
          run_all(BatchKernelMode::kMegakernel, exp_noise);
      const auto [comp, comp_stats, comp_pos] =
          run_all(BatchKernelMode::kComposition, exp_noise);
      ExpectSameResponses(mega, comp, ctx + " per-query resample");
      EXPECT_EQ(mega_pos, comp_pos) << ctx;
      EXPECT_GT(mega_pos, 10) << ctx << " workload must resample repeatedly";
      EXPECT_EQ(mega_stats.tier2_fused_segments,
                comp_stats.tier2_fused_segments)
          << ctx;
      EXPECT_EQ(mega_stats.tier2_spans_skipped, comp_stats.tier2_spans_skipped)
          << ctx;
      EXPECT_EQ(mega_stats.mega_words_skipped_q,
                comp_stats.mega_words_skipped_q)
          << ctx;
      EXPECT_EQ(mega_stats.replay_rederivations,
                comp_stats.replay_rederivations)
          << ctx;
      EXPECT_GT(mega_stats.mega_words_skipped_q, 0) << ctx;
      EXPECT_GT(mega_stats.replay_rederivations, 0) << ctx;
      if (!level_words.has_value()) {
        level_words = mega_stats.mega_words_skipped_q;
        level_rederiv = mega_stats.replay_rederivations;
      } else {
        EXPECT_EQ(*level_words, mega_stats.mega_words_skipped_q) << ctx;
        EXPECT_EQ(*level_rederiv, mega_stats.replay_rederivations) << ctx;
      }
    }
  }
}

TEST(BatchRunnerTest, ResamplingHitOverflowAgreesAcrossModes) {
  // The cached-hit replay only engages while a chunk's (or sub-block's)
  // recorded prepass hits fit the fixed cache (kChunkSize/16 entries).
  // This workload defeats it on purpose: the answers sit close enough
  // under the bar that the recording prepass still runs (the skip word is
  // finite) yet hundreds of elements fire the prepass test, so the
  // recorder overflows and every resampled resume must take the
  // checkpoint-rebuild path instead — in the common arm and, with half
  // the spans far below to keep the skip-word vector live, in the
  // per-query arm. Responses and counters must still match composition
  // exactly at every dispatch level.
  ScopedDispatchLevel restore_level;
  ScopedBatchKernelMode restore_mode(ActiveBatchKernelMode());

  SvtOptions o;
  o.epsilon = 0.75;
  o.cutoff = 1 << 20;
  o.resample_threshold_noise = true;
  Rng rng_probe(8);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();

  const size_t n = 2 * BatchRunner::kChunkSize + 57;
  std::vector<double> dense(n), mixed(n), bars(n);
  Rng gen(515151);
  for (size_t i = 0; i < n; ++i) {
    // Dense: every element ~1.5 ν scales under the common bar — the fire
    // probability (~e^-1.5/2 per element) yields far more than
    // kChunkSize/16 prepass hits per chunk while the chunk skip word
    // stays finite.
    dense[i] = (-1.5 + 0.2 * (gen.NextDouble() - 0.5)) * nu_scale;
    bars[i] = 0.5 * (gen.NextDouble() - 0.5) * nu_scale;
    // Mixed (per-query arm): alternating spans far below (finite skip
    // words keep the recording prepass on) and spans hugging their bars
    // (~e^-0.5/2 fire probability — overflow again).
    const bool far_span = (i / BatchRunner::kBoundSpan) % 2 == 0;
    mixed[i] =
        far_span ? -1e9 : bars[i] + (-0.5 + 0.2 * (gen.NextDouble() - 0.5)) *
                              nu_scale;
  }

  const auto run_all = [&](BatchKernelMode mode) {
    SetBatchKernelMode(mode);
    Rng rng(9090);
    auto mech = SparseVector::Create(o, &rng).value();
    std::vector<Response> common = mech->Run(dense, 0.0);
    std::vector<Response> per_query = mech->Run(mixed, bars);
    auto* spec_mech = dynamic_cast<SpecDrivenSvt*>(mech.get());
    EXPECT_NE(spec_mech, nullptr);
    return std::tuple{std::move(common), std::move(per_query),
                      spec_mech != nullptr ? spec_mech->batch_stats()
                                           : BatchRunStats{},
                      mech->positives_emitted()};
  };

  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    const std::string ctx(vec::DispatchLevelName(level));
    const auto [mega_c, mega_pq, mega_stats, mega_pos] =
        run_all(BatchKernelMode::kMegakernel);
    const auto [comp_c, comp_pq, comp_stats, comp_pos] =
        run_all(BatchKernelMode::kComposition);
    ExpectSameResponses(mega_c, comp_c, ctx + " overflow common");
    ExpectSameResponses(mega_pq, comp_pq, ctx + " overflow per-query");
    EXPECT_EQ(mega_pos, comp_pos) << ctx;
    // Dense positives: far more than the hit cache can hold per chunk.
    EXPECT_GT(mega_pos, static_cast<int64_t>(BatchRunner::kChunkSize / 16))
        << ctx;
    EXPECT_EQ(mega_stats.tier2_fused_segments, comp_stats.tier2_fused_segments)
        << ctx;
    EXPECT_EQ(mega_stats.tier2_spans_skipped, comp_stats.tier2_spans_skipped)
        << ctx;
    EXPECT_EQ(mega_stats.mega_words_skipped_q, comp_stats.mega_words_skipped_q)
        << ctx;
    EXPECT_EQ(mega_stats.replay_rederivations, comp_stats.replay_rederivations)
        << ctx;
    EXPECT_GT(mega_stats.replay_rederivations, 0) << ctx;
    EXPECT_GT(mega_stats.mega_words_skipped_q, 0) << ctx;
  }
}

TEST(BatchRunnerTest, TinyAndOddSizedBatchesMatchStreaming) {
  // Engine-level odd-tail regression for the fused paths: batches shorter
  // than one SIMD width, shorter than one bound span, and one past each
  // boundary — common and per-query — must equal streaming exactly. Calls
  // shorter than kStreamingCutover stream instead of entering the engine,
  // so the engine's own sub-SIMD tails are reached as the tail chunk of a
  // longer call: kChunkSize + {1, 3, 7}.
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 50;
  o.monotonic = true;
  Rng rng_probe(71);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();

  for (size_t n : {size_t{1}, size_t{3}, size_t{7}, size_t{9},
                   BatchRunner::kBoundSpan - 1, BatchRunner::kBoundSpan + 1,
                   BatchRunner::kChunkSize + 1, BatchRunner::kChunkSize + 3,
                   BatchRunner::kChunkSize + 7}) {
    std::vector<double> answers(n), bars(n);
    Rng gen(n + 1);
    for (size_t i = 0; i < n; ++i) {
      answers[i] = (-2.0 + (gen.NextDouble() - 0.5)) * nu_scale;
      bars[i] = (gen.NextDouble() - 0.5) * nu_scale;
    }
    for (const bool per_query : {false, true}) {
      Rng rng_batch(77), rng_stream(77);
      auto batch = SparseVector::Create(o, &rng_batch).value();
      auto stream = SparseVector::Create(o, &rng_stream).value();
      std::vector<Response> got, ref;
      if (per_query) {
        batch->RunAppend(answers, bars, &got);
      } else {
        batch->RunAppend(answers, 0.0, &got);
      }
      for (size_t i = 0; i < n && !stream->exhausted(); ++i) {
        ref.push_back(
            stream->Process(answers[i], per_query ? bars[i] : 0.0));
      }
      ExpectSameResponses(got, ref,
                          "tiny n=" + std::to_string(n) +
                              (per_query ? " per-query" : " common"));
    }
  }
}

bool SameState(const Rng::State& a, const Rng::State& b) {
  return a.words == b.words && a.phase == b.phase;
}

// One of the ten variants with its ν drawn from `nu_kind`: the variant's
// own class when that is its native kind, else a CustomSvt over its spec
// (every SpecDrivenSvt class is fully described by its spec).
std::unique_ptr<SpecDrivenSvt> MakeWithNuKind(VariantId id, NoiseKind nu_kind,
                                              int cutoff, Rng* rng) {
  VariantSpec spec = MakeSpec(id, 1.0, 1.0, cutoff);
  if (spec.nu_kind != nu_kind) {
    spec.nu_kind = nu_kind;
    return std::make_unique<CustomSvt>(std::move(spec), rng);
  }
  std::unique_ptr<SvtMechanism> mech =
      MakeVariantMechanism(id, 1.0, 1.0, cutoff, rng).value();
  auto* spec_driven = dynamic_cast<SpecDrivenSvt*>(mech.get());
  SVT_CHECK(spec_driven != nullptr);
  mech.release();
  return std::unique_ptr<SpecDrivenSvt>(spec_driven);
}

TEST(BatchRunnerTest, ShortCallCutoverMatchesStreamingAtEveryLength) {
  // Every call length on both sides of the short-call cutover, for all ten
  // variants × both ν kinds × common and per-query bars (odd lengths with
  // a prefilter attached): the responses, the base stream afterwards, and
  // — unless the cutoff exhausted the run — the ν substream must match the
  // Process() loop, and streamed_queries must say which path ran.
  constexpr int kCutoff = 2;
  const VariantId ids[] = {VariantId::kAlg1,     VariantId::kAlg2,
                           VariantId::kAlg3,     VariantId::kAlg4,
                           VariantId::kAlg5,     VariantId::kAlg6,
                           VariantId::kGptt,     VariantId::kStandard,
                           VariantId::kExpNoise, VariantId::kRevisited};
  int exhausted_runs = 0, open_runs = 0;
  for (VariantId id : ids) {
    for (NoiseKind nu_kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
      for (size_t n = 1; n <= BatchRunner::kStreamingCutover + 2; ++n) {
        for (const bool per_query : {false, true}) {
          for (uint64_t seed : {1u, 2u, 3u}) {
            Rng rng_batch(seed), rng_stream(seed);
            auto batch = MakeWithNuKind(id, nu_kind, kCutoff, &rng_batch);
            auto stream = MakeWithNuKind(id, nu_kind, kCutoff, &rng_stream);
            const VariantSpec& spec = batch->spec();
            // Answers around the bar, so runs fire and some exhaust.
            const double scale = std::max(spec.nu_scale, spec.rho_scale);
            std::vector<double> answers(n), bars(n, 0.0);
            Rng gen(seed * 131 + n);
            for (size_t i = 0; i < n; ++i) {
              answers[i] = (gen.NextDouble() - 0.7) * 3.0 * scale;
              if (per_query) bars[i] = (gen.NextDouble() - 0.5) * scale;
            }
            const bool with_pf = n % 2 == 1;
            const BoundPrefilter pf = per_query
                                          ? BoundPrefilter::Build(answers, bars)
                                          : BoundPrefilter::Build(answers);
            std::vector<Response> got, ref;
            if (per_query) {
              batch->RunAppend(answers, bars, with_pf ? &pf : nullptr, &got);
            } else {
              batch->RunAppend(answers, 0.0, with_pf ? &pf : nullptr, &got);
            }
            for (size_t i = 0; i < n && !stream->exhausted(); ++i) {
              ref.push_back(stream->Process(answers[i], bars[i]));
            }

            const std::string ctx =
                std::string(VariantIdToString(id)) +
                (nu_kind == NoiseKind::kLaplace ? " lap" : " exp") +
                " n=" + std::to_string(n) +
                (per_query ? " per-query" : " common") +
                " seed=" + std::to_string(seed);
            ExpectSameResponses(got, ref, ctx);
            EXPECT_EQ(batch->exhausted(), stream->exhausted()) << ctx;
            EXPECT_EQ(batch->positives_emitted(), stream->positives_emitted())
                << ctx;
            EXPECT_EQ(batch->queries_processed(), stream->queries_processed())
                << ctx;
            EXPECT_TRUE(SameState(rng_batch.state(), rng_stream.state()))
                << ctx;
            if (batch->exhausted()) {
              ++exhausted_runs;
            } else {
              ++open_runs;
              EXPECT_TRUE(SameState(batch->nu_stream_state(),
                                    stream->nu_stream_state()))
                  << ctx;
            }
            const int64_t streamed =
                n < BatchRunner::kStreamingCutover
                    ? static_cast<int64_t>(got.size())
                    : 0;
            EXPECT_EQ(batch->batch_stats().streamed_queries, streamed) << ctx;
          }
        }
      }
    }
  }
  // Both the exhausting and the open case were actually exercised.
  EXPECT_GT(exhausted_runs, 0);
  EXPECT_GT(open_runs, 0);
}

// The non-finite contract (core/svt.h): when the answer or the threshold
// is not finite, whether the query fires is fixed — never if either is
// NaN, else exactly when the answer is +inf or the threshold is -inf.
std::optional<bool> NonFiniteOutcome(double answer, double threshold) {
  if (std::isfinite(answer) && std::isfinite(threshold)) return std::nullopt;
  if (std::isnan(answer) || std::isnan(threshold)) return false;
  return answer == kInf || threshold == -kInf;
}

TEST(BatchRunnerTest, RunTrialsMatchesResetRunAppendLoop) {
  // RunTrials against `Reset(); RunAppend(window)` per trial and against a
  // Reset + Process() loop, across all ten variants plus an ε₃ spec, both
  // ν kinds, with and without a cutoff, windows 1..10 (both sides of the
  // short-call cutover, so batched, looped and engine runs all appear),
  // finite and non-finite answers and thresholds, at every dispatch level.
  // Trial counts straddle a RunTrials block boundary.
  constexpr int kCutoff = 2;
  constexpr int64_t kTrials = BatchRunner::kTrialBlock + 19;
  const VariantId ids[] = {VariantId::kAlg1,     VariantId::kAlg2,
                           VariantId::kAlg3,     VariantId::kAlg4,
                           VariantId::kAlg5,     VariantId::kAlg6,
                           VariantId::kGptt,     VariantId::kStandard,
                           VariantId::kExpNoise, VariantId::kRevisited};
  const double thresholds[] = {0.0, kInf, -kInf, kNaN};
  ScopedDispatchLevel restore;
  int batched = 0, looped = 0, non_finite_checked = 0;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (size_t v = 0; v <= std::size(ids); ++v) {
      for (NoiseKind nu_kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
        for (const bool with_cutoff : {true, false}) {
          // Index std::size(ids) is Alg. 7 answering positives with ε₃.
          VariantSpec spec =
              MakeSpec(v < std::size(ids) ? ids[v] : VariantId::kStandard,
                       1.0, 1.0, kCutoff);
          if (v == std::size(ids)) spec.numeric_scale = 2.0;
          spec.nu_kind = nu_kind;
          spec.cutoff = with_cutoff ? std::optional<int>(kCutoff)
                                    : std::nullopt;
          for (size_t n = 1; n <= BatchRunner::kStreamingCutover + 2; ++n) {
            // Answers around the bar, with +inf, -inf and NaN sprinkled at
            // fixed positions.
            const double scale = std::max(spec.nu_scale, spec.rho_scale);
            std::vector<double> window(n);
            Rng gen(n * 7 + v);
            for (size_t i = 0; i < n; ++i) {
              window[i] = (gen.NextDouble() - 0.6) * 3.0 * scale;
            }
            if (n > 2) window[2] = kNaN;
            if (n > 4) window[4] = kInf;
            if (n > 5) window[5] = -kInf;
            for (double threshold : thresholds) {
              const uint64_t seed = 1000 + v * 31 + n;
              Rng rng_trials(seed), rng_loop(seed), rng_process(seed);
              CustomSvt trials_mech(spec, &rng_trials);
              CustomSvt loop_mech(spec, &rng_loop);
              CustomSvt process_mech(spec, &rng_process);

              std::vector<Response> got = {Response::Above()};
              std::vector<size_t> got_counts = {99};
              const size_t appended = trials_mech.RunTrials(
                  window, threshold, kTrials, &got, &got_counts);

              std::vector<Response> loop = {Response::Above()};
              std::vector<size_t> loop_counts = {99};
              std::vector<Response> process;
              for (int64_t t = 0; t < kTrials; ++t) {
                loop_mech.Reset();
                loop_counts.push_back(
                    loop_mech.RunAppend(window, threshold, &loop));
                process_mech.Reset();
                for (size_t i = 0; i < n && !process_mech.exhausted(); ++i) {
                  process.push_back(process_mech.Process(window[i], threshold));
                }
              }

              const std::string ctx =
                  std::string(v < std::size(ids) ? VariantIdToString(ids[v])
                                                 : "eps3") +
                  (nu_kind == NoiseKind::kLaplace ? " lap" : " exp") +
                  (with_cutoff ? " cutoff" : " no-cutoff") +
                  " n=" + std::to_string(n) +
                  " T=" + std::to_string(threshold) + " " +
                  vec::DispatchLevelName(level);
              ExpectSameResponses(got, loop, ctx);
              ASSERT_EQ(got_counts, loop_counts) << ctx;
              EXPECT_EQ(appended, got.size() - 1) << ctx;
              ExpectSameResponses(
                  std::vector<Response>(got.begin() + 1, got.end()), process,
                  ctx);
              EXPECT_TRUE(SameState(rng_trials.state(), rng_loop.state()))
                  << ctx;
              EXPECT_TRUE(SameState(rng_trials.state(), rng_process.state()))
                  << ctx;
              EXPECT_EQ(std::bit_cast<uint64_t>(trials_mech.threshold_noise()),
                        std::bit_cast<uint64_t>(loop_mech.threshold_noise()))
                  << ctx;
              EXPECT_EQ(trials_mech.positives_emitted(),
                        loop_mech.positives_emitted())
                  << ctx;
              EXPECT_EQ(trials_mech.queries_processed(),
                        loop_mech.queries_processed())
                  << ctx;
              EXPECT_EQ(trials_mech.exhausted(), loop_mech.exhausted()) << ctx;
              EXPECT_EQ(trials_mech.batch_stats().streamed_queries,
                        loop_mech.batch_stats().streamed_queries)
                  << ctx;
              if (!trials_mech.exhausted()) {
                EXPECT_TRUE(SameState(trials_mech.nu_stream_state(),
                                      loop_mech.nu_stream_state()))
                    << ctx;
              }
              // Every non-finite comparison obeys the written contract
              // (index 0 of both buffers is the pre-existing sentinel).
              const Response* run = got.data() + 1;
              for (size_t k = 1; k < got_counts.size(); ++k) {
                const size_t count = got_counts[k];
                for (size_t i = 0; i < count; ++i) {
                  const std::optional<bool> fires =
                      NonFiniteOutcome(window[i], threshold);
                  if (!fires.has_value()) continue;
                  ++non_finite_checked;
                  ASSERT_EQ(run[i].is_positive(), *fires)
                      << ctx << " answer=" << window[i];
                }
                run += count;
              }
              if (BatchRunner::CanBatchTrials(spec, n)) {
                ++batched;
              } else {
                ++looped;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(batched, 0);
  EXPECT_GT(looped, 0);
  EXPECT_GT(non_finite_checked, 0);
}

TEST(BatchRunnerTest, RunTrialsWithZeroTrialsChangesNothing) {
  Rng rng(5), ref(5);
  CustomSvt mech(MakeAlg1Spec(1.0, 1.0, 1), &rng);
  CustomSvt ref_mech(MakeAlg1Spec(1.0, 1.0, 1), &ref);
  const std::vector<double> window = {0.0, 1.0};
  std::vector<Response> out;
  std::vector<size_t> counts;
  EXPECT_EQ(mech.RunTrials(window, 0.0, 0, &out, &counts), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(counts.empty());
  EXPECT_TRUE(SameState(rng.state(), ref.state()));
  EXPECT_EQ(mech.threshold_noise(), ref_mech.threshold_noise());
}

TEST(BatchRunnerTest, StreamedQueriesClearedOnReset) {
  Rng rng(12);
  SvtOptions o;
  o.cutoff = 1000;
  auto mech = SparseVector::Create(o, &rng).value();
  const std::vector<double> answers(BatchRunner::kStreamingCutover - 1,
                                    -50.0);
  std::vector<Response> out;
  mech->RunAppend(answers, 0.0, &out);
  EXPECT_EQ(mech->batch_stats().streamed_queries,
            static_cast<int64_t>(answers.size()));
  mech->Reset();
  EXPECT_EQ(mech->batch_stats().streamed_queries, 0);
}

TEST(BatchRunnerTest, ResumeWalkMatchesStreamingAndComposition) {
  // A megakernel arm scans a surviving span from its fused pass's hit
  // record while the bar stays at the chunk-entry bar, and otherwise by
  // comparing against the chunk's ν block, each span transformed once.
  // Every scenario below reaches the ν block: ρ resampled densely (the
  // bar drops below the entry bar many times per chunk), a record that
  // overflows, chunks with no sound skip word, and a cutoff that exhausts
  // the run inside a span. Each runs as several calls that cross chunk
  // boundaries, for both arms, both ν kinds, the prefilter on and off, at
  // every dispatch level. Batch must equal streaming and megakernel must
  // equal composition: responses, both streams and the span counters.
  ScopedDispatchLevel restore_level;
  ScopedBatchKernelMode restore_mode(ActiveBatchKernelMode());
  ScopedPrefilterGate restore_gate;
  constexpr size_t kChunk = BatchRunner::kChunkSize;
  constexpr size_t kSpan = BatchRunner::kBoundSpan;
  constexpr int kNoCutoff = 1 << 20;
  struct Scenario {
    const char* name;
    bool resample;
    int cutoff;
    double lo, hi;       // answers lo..hi ν scales from their bar
    size_t spike_every;  // 0, or every k-th answer 3 ν scales above it
    std::vector<size_t> calls;
  };
  const Scenario scenarios[] = {
      {"resample-dense", true, kNoCutoff, -4.0, -1.0, 0,
       {2 * kChunk + 300, kChunk - 5, 3 * kSpan + 1}},
      // Close enough under the bar that more than kChunkSize / 16
      // elements per chunk fire, far enough that the skip word is finite.
      {"overflow", false, kNoCutoff, -1.6, -1.4, 0, {kChunk + 517, kChunk + 9}},
      // An answer above the bar in every span: no sound skip word.
      {"no-skip-word", false, kNoCutoff, -1.0, 0.0, kSpan - 31,
       {2 * kChunk + 77, 700}},
      {"cutoff", false, 301, -1.5, -0.5, 0, {3 * kChunk}},
      {"cutoff-resample", true, 157, -3.0, -1.0, 0, {kChunk + 700, kChunk}},
  };

  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (const Scenario& sc : scenarios) {
      for (NoiseKind nu_kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
        for (const bool per_query : {false, true}) {
          for (const bool prefilter_on : {true, false}) {
            SetBoundPrefilterEnabled(prefilter_on);
            VariantSpec spec =
                MakeSpec(sc.resample ? VariantId::kAlg2 : VariantId::kAlg1,
                         1.0, 1.0, sc.cutoff);
            spec.nu_kind = nu_kind;
            const double s = spec.nu_scale;
            Rng rng_mega(7), rng_comp(7), rng_stream(7), gen(11);
            CustomSvt mega(spec, &rng_mega), comp(spec, &rng_comp),
                stream(spec, &rng_stream);
            std::vector<Response> got_mega, got_comp, want;
            for (size_t len : sc.calls) {
              // Bars placed against the current ρ, so the entry bar sits
              // where the scenario wants it.
              const double rho = stream.threshold_noise();
              std::vector<double> answers(len), bars(len, -rho);
              for (size_t i = 0; i < len; ++i) {
                if (per_query) bars[i] += 0.25 * s * (gen.NextDouble() - 0.5);
                const bool spike =
                    sc.spike_every != 0 && i % sc.spike_every == 0;
                const double off =
                    spike ? 3.0 : sc.lo + (sc.hi - sc.lo) * gen.NextDouble();
                answers[i] = bars[i] + off * s;
              }
              const BoundPrefilter pf =
                  per_query ? BoundPrefilter::Build(answers, bars)
                            : BoundPrefilter::Build(answers);
              const auto run = [&](CustomSvt& mech, BatchKernelMode mode,
                                   std::vector<Response>* out) {
                SetBatchKernelMode(mode);
                if (per_query) {
                  mech.RunAppend(answers, bars, &pf, out);
                } else {
                  mech.RunAppend(answers, -rho, &pf, out);
                }
              };
              run(mega, BatchKernelMode::kMegakernel, &got_mega);
              run(comp, BatchKernelMode::kComposition, &got_comp);
              for (size_t i = 0; i < len && !stream.exhausted(); ++i) {
                want.push_back(stream.Process(answers[i], bars[i]));
              }
            }

            const std::string ctx =
                std::string(sc.name) +
                (nu_kind == NoiseKind::kLaplace ? " lap" : " exp") +
                (per_query ? " per-query" : " common") +
                (prefilter_on ? " prefilter" : " no-prefilter") + " " +
                vec::DispatchLevelName(level);
            ExpectSameResponses(got_mega, want, ctx + " megakernel");
            ExpectSameResponses(got_comp, want, ctx + " composition");
            EXPECT_TRUE(SameState(rng_mega.state(), rng_stream.state()))
                << ctx;
            EXPECT_TRUE(SameState(rng_comp.state(), rng_stream.state()))
                << ctx;
            EXPECT_TRUE(
                SameState(mega.nu_stream_state(), comp.nu_stream_state()))
                << ctx;
            if (!stream.exhausted()) {
              EXPECT_TRUE(
                  SameState(mega.nu_stream_state(), stream.nu_stream_state()))
                  << ctx;
            }
            const BatchRunStats& ms = mega.batch_stats();
            const BatchRunStats& cs = comp.batch_stats();
            EXPECT_EQ(ms.tier2_fused_segments, cs.tier2_fused_segments) << ctx;
            EXPECT_EQ(ms.tier2_spans_skipped, cs.tier2_spans_skipped) << ctx;
            EXPECT_EQ(ms.replay_rederivations, cs.replay_rederivations)
                << ctx;

            // Each scenario reaches the regime it names.
            if (sc.resample) {
              EXPECT_GT(ms.replay_rederivations, 10) << ctx;
            }
            if (sc.cutoff != kNoCutoff) {
              EXPECT_TRUE(mega.exhausted()) << ctx;
              EXPECT_NE(want.size() % kSpan, 0u)
                  << ctx << " exhausted on a span boundary";
            }
            if (std::string(sc.name) == "overflow") {
              const auto fired = std::count_if(
                  want.begin(), want.begin() + kChunk,
                  [](const Response& r) { return r.is_positive(); });
              EXPECT_GT(fired, static_cast<std::ptrdiff_t>(kChunk / 16))
                  << ctx;
            }
          }
        }
      }
    }
  }
}

TEST(BatchRunnerTest, RepeatedEngineCallsGrowTheOutputGeometrically) {
  // 1000 engine-sized calls appended to one vector emit what one call over
  // all the answers does, and the vector reallocates only logarithmically
  // often: the engine reserves with the vector's geometric growth before
  // it zero-fills chunk by chunk, never an exact size per call.
  constexpr size_t kCall = 64;
  constexpr size_t kCalls = 1000;
  static_assert(kCall >= BatchRunner::kStreamingCutover);
  std::vector<double> answers(kCall * kCalls), bars(kCall * kCalls);
  Rng gen(91);
  for (size_t i = 0; i < answers.size(); ++i) {
    answers[i] = (gen.NextDouble() - 0.8) * 6.0;
    bars[i] = gen.NextDouble() - 0.5;
  }
  SvtOptions o;
  o.epsilon = 0.5;
  o.cutoff = 1 << 20;
  for (const bool per_query : {false, true}) {
    Rng rng_calls(5), rng_one(5);
    auto calls = SparseVector::Create(o, &rng_calls).value();
    auto one = SparseVector::Create(o, &rng_one).value();
    std::vector<Response> got, want;
    int reallocations = 0;
    for (size_t c = 0; c < kCalls; ++c) {
      const std::span<const double> a{answers.data() + c * kCall, kCall};
      const size_t capacity = got.capacity();
      if (per_query) {
        calls->RunAppend(a, {bars.data() + c * kCall, kCall}, &got);
      } else {
        calls->RunAppend(a, 0.0, &got);
      }
      reallocations += got.capacity() != capacity;
    }
    if (per_query) {
      one->RunAppend(answers, bars, &want);
    } else {
      one->RunAppend(answers, 0.0, &want);
    }
    const std::string ctx = per_query ? "per-query" : "common";
    ExpectSameResponses(got, want, ctx);
    EXPECT_GT(std::count_if(got.begin(), got.end(),
                            [](const Response& r) { return r.is_positive(); }),
              100)
        << ctx;
    // ceil(log2(64000)) = 16 doublings from empty.
    EXPECT_LE(reallocations, 17) << ctx;
  }
}

TEST(BatchRunnerDeathTest, ShortCallsKeepTheArgumentChecks) {
  // A call short enough to stream is checked exactly like a long one.
  Rng rng(13);
  auto mech = SparseVector::Create(SvtOptions{}, &rng).value();
  const std::vector<double> answers(3, 0.0), bars(3, 0.0), two_bars(2, 0.0);
  const BoundPrefilter wrong_size =
      BoundPrefilter::Build(std::vector<double>(5, 0.0));
  const BoundPrefilter no_bars = BoundPrefilter::Build(answers);
  std::vector<Response> out;
  EXPECT_DEATH(mech->RunAppend(answers, two_bars, &out), "size mismatch");
  EXPECT_DEATH(mech->RunAppend(answers, 0.0, &wrong_size, &out),
               "does not match");
  EXPECT_DEATH(mech->RunAppend(answers, bars, &no_bars, &out), "two-array");
}

}  // namespace
}  // namespace svt
