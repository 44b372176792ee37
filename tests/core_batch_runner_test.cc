// Batch/streaming equivalence: under the draw-order contract pinned on
// SparseVector (core/svt.h), Run()/RunAppend() must emit bit-for-bit the
// Response sequence of a scalar Process() loop with the same seed — for
// every variant's noise structure, at sizes that straddle the engine's
// chunking, through positives, cutoff aborts, numeric outputs and Reset
// cycles. This is the test that licenses every batch-path optimization.

#include "core/batch_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
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
void CheckEquivalence(SparseVector* batch_mech, SparseVector* stream_mech,
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
  // The per-query-threshold scan (FindFirstGe with bars) in its target
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

  // The ν-free per-query path (FindFirstGe with bars, no ν): Alg. 5
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

    // The tier-2 paths must be observable: both overloads ran tier-2, and
    // the counters — like the responses — are dispatch-level-independent.
    const BatchRunStats& st = batch->batch_stats();
    EXPECT_GT(st.tier2_chunks_scanned, 0) << vec::DispatchLevelName(level);
    EXPECT_GT(st.tier2_fused_segments, 0) << vec::DispatchLevelName(level);
    if (!scalar_stats.has_value()) {
      scalar_stats = st;
    } else {
      EXPECT_EQ(st.tier1_chunks_skipped, scalar_stats->tier1_chunks_skipped);
      EXPECT_EQ(st.tier2_chunks_scanned, scalar_stats->tier2_chunks_scanned);
      EXPECT_EQ(st.tier2_fused_segments, scalar_stats->tier2_fused_segments);
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
    SparseVector batch(AllExponentialSpec(), &rng_batch);
    SparseVector stream(AllExponentialSpec(), &rng_stream);
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
    SparseVector batch(AllExponentialSpec(), &rng_batch);
    SparseVector stream(AllExponentialSpec(), &rng_stream);
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
    SparseVector batch(AllExponentialSpec(), &rng_batch);
    SparseVector stream(AllExponentialSpec(), &rng_stream);
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
    SparseVector stream(AllExponentialSpec(), &rng_stream);
    std::vector<Response> ref;
    for (size_t i = 0; i < pn; ++i) {
      if (stream.exhausted()) break;
      ref.push_back(stream.Process(answers[i], bars[i]));
    }
    for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
      if (!vec::SetDispatchLevel(level)) continue;
      Rng rng_batch(23);
      SparseVector batch(AllExponentialSpec(), &rng_batch);
      ExpectSameResponses(batch.Run(answers, bars), ref,
                          std::string("exp-nu per-query ") +
                              vec::DispatchLevelName(level));
    }
  }
}

bool SameState(const Rng::State& a, const Rng::State& b) {
  return a.words == b.words && a.phase == b.phase;
}

// The streaming oracle: appends the Process() responses for `answers`
// against one common bar, or per-query bars, until the run is exhausted.
void StreamAppend(SparseVector* mech, std::span<const double> answers,
                  double threshold, std::vector<Response>* out) {
  for (double a : answers) {
    if (mech->exhausted()) break;
    out->push_back(mech->Process(a, threshold));
  }
}

void StreamAppend(SparseVector* mech, std::span<const double> answers,
                  std::span<const double> bars, std::vector<Response>* out) {
  for (size_t i = 0; i < answers.size() && !mech->exhausted(); ++i) {
    out->push_back(mech->Process(answers[i], bars[i]));
  }
}

// A batch mechanism agrees with its streaming twin on everything the
// draw-order contract pins after a run that did not exhaust: the run
// counters and the positions of both streams.
void ExpectSameRunState(const SparseVector& batch, const Rng& batch_rng,
                        const SparseVector& stream, const Rng& stream_rng,
                        const std::string& context) {
  EXPECT_EQ(batch.positives_emitted(), stream.positives_emitted()) << context;
  EXPECT_EQ(batch.queries_processed(), stream.queries_processed())
      << context;
  EXPECT_TRUE(SameState(batch_rng.state(), stream_rng.state())) << context;
  EXPECT_TRUE(SameState(batch.nu_stream_state(), stream.nu_stream_state()))
      << context;
}

void ExpectSameStats(const BatchRunStats& a, const BatchRunStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.tier1_chunks_skipped, b.tier1_chunks_skipped) << context;
  EXPECT_EQ(a.tier2_chunks_scanned, b.tier2_chunks_scanned) << context;
  EXPECT_EQ(a.tier2_fused_segments, b.tier2_fused_segments) << context;
  EXPECT_EQ(a.tier2_spans_skipped, b.tier2_spans_skipped) << context;
  EXPECT_EQ(a.bound_spans_pruned_q, b.bound_spans_pruned_q) << context;
  EXPECT_EQ(a.bound_bytes_touched, b.bound_bytes_touched) << context;
  EXPECT_EQ(a.mega_words_skipped_q, b.mega_words_skipped_q) << context;
  EXPECT_EQ(a.replay_rederivations, b.replay_rederivations) << context;
  EXPECT_EQ(a.unaligned_chunks, b.unaligned_chunks) << context;
  EXPECT_EQ(a.streamed_queries, b.streamed_queries) << context;
}

// Counters are dispatch-level independent: the first level a test runs
// records them in *first, and every later level must match.
void ExpectStatsMatchFirstLevel(const BatchRunStats& stats,
                                std::optional<BatchRunStats>* first,
                                const std::string& context) {
  if (first->has_value()) {
    ExpectSameStats(stats, **first, context + " vs first level");
  } else {
    *first = stats;
  }
}

TEST(BatchRunnerTest, FusedPassesMatchStreamingExactly) {
  // Responses, run counters and both stream positions must equal the
  // streaming Process() loop — for Laplace and exponential ν, common and
  // per-query thresholds, near-threshold (tier-2 + positives + resumes)
  // and far-below (tier-1) chunks, at every dispatch level. The stream
  // positions are pinned by the back-to-back runs too: any divergence in
  // words consumed by run 1 would shift every draw of run 2.
  ScopedDispatchLevel restore_level;

  const size_t n = 2 * BatchRunner::kChunkSize + 123;
  std::vector<double> near(n), bars(n);
  Rng gen(2718);
  for (size_t i = 0; i < n; ++i) {
    // Near-threshold (tier-2, rare positives), with every third pair of
    // bound spans far below so the hierarchical span-skip path runs too.
    // A far run is two spans long, so it still covers a whole span of a
    // call whose grid an alignment head shifts by up to 3 queries.
    const bool far_span = (i / (2 * BatchRunner::kBoundSpan)) % 3 == 0;
    near[i] = far_span ? -1e9 : -3.0 + (gen.NextDouble() - 0.5);
    bars[i] = gen.NextDouble() - 0.5;
  }
  const std::vector<double> far(n, -1e9);  // tier-1 skips every chunk

  const auto make = [](bool exp_nu,
                       Rng* rng) -> std::unique_ptr<SparseVector> {
    if (exp_nu) {
      return std::make_unique<SparseVector>(AllExponentialSpec(), rng);
    }
    SvtOptions o;
    o.epsilon = 0.5;
    o.cutoff = 1 << 20;
    return SparseVector::Create(o, rng).value();
  };

  std::optional<BatchRunStats> first_level[2];
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (bool exp_nu : {false, true}) {
      const std::string ctx = std::string(vec::DispatchLevelName(level)) +
                              (exp_nu ? " exp" : " laplace");
      Rng rng_batch(77), rng_stream(77);
      const auto batch = make(exp_nu, &rng_batch);
      const auto stream = make(exp_nu, &rng_stream);
      std::vector<Response> want;
      StreamAppend(stream.get(), near, 0.0, &want);
      ExpectSameResponses(batch->Run(near, 0.0), want, ctx + " common near");
      want.clear();
      StreamAppend(stream.get(), far, 0.0, &want);
      ExpectSameResponses(batch->Run(far, 0.0), want, ctx + " common far");
      // Back-to-back re-run without reseeding: catches any stream-position
      // drift from run 1, and its resumes re-enter mid-chunk.
      want.clear();
      StreamAppend(stream.get(), near, -0.5, &want);
      ExpectSameResponses(batch->Run(near, -0.5), want,
                          ctx + " common resumed");
      want.clear();
      StreamAppend(stream.get(), near, bars, &want);
      ExpectSameResponses(batch->Run(near, bars), want, ctx + " per-query");
      ExpectSameRunState(*batch, rng_batch, *stream, rng_stream, ctx);
      EXPECT_GT(batch->positives_emitted(), 0)
          << ctx << " workload must have positives";

      const BatchRunStats& st = batch->batch_stats();
      EXPECT_GT(st.tier1_chunks_skipped, 0) << ctx;
      EXPECT_GT(st.tier2_spans_skipped, 0) << ctx;
      // The per-query run's far-below spans have finite skip words, so the
      // skip counter moves; ρ never resamples here, so no resume enters
      // under a moved ρ.
      EXPECT_GT(st.mega_words_skipped_q, 0) << ctx;
      EXPECT_EQ(st.replay_rederivations, 0) << ctx;
      ExpectStatsMatchFirstLevel(st, &first_level[exp_nu ? 1 : 0], ctx);
    }
  }
}

TEST(BatchRunnerTest, RhoResamplingMatchesStreaming) {
  // ρ resampling moves the bar after every positive, so such a spec's
  // chunks keep no hit record: every resume compares against the chunk's
  // ν block. A hit-dense near-threshold workload forces many resumes per
  // chunk;
  // responses, run counters and stream positions must still match the
  // streaming loop exactly at every dispatch level.
  ScopedDispatchLevel restore_level;

  const size_t n = 2 * BatchRunner::kChunkSize + 57;
  std::vector<double> near(n);
  Rng gen(424242);
  for (size_t i = 0; i < n; ++i) {
    near[i] = -2.0 + 2.5 * (gen.NextDouble() - 0.5);
  }
  SvtOptions o;
  o.epsilon = 0.75;
  o.cutoff = 1 << 20;
  o.resample_threshold_noise = true;

  std::optional<BatchRunStats> first_level;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    const std::string ctx(vec::DispatchLevelName(level));
    Rng rng_batch(1234), rng_stream(1234);
    auto batch = SparseVector::Create(o, &rng_batch).value();
    auto stream = SparseVector::Create(o, &rng_stream).value();
    std::vector<Response> want;
    StreamAppend(stream.get(), near, 0.0, &want);
    ExpectSameResponses(batch->Run(near, 0.0), want, ctx + " run 1");
    // Second run resumes from a shifted stream; its chunks start from
    // fresh records.
    want.clear();
    StreamAppend(stream.get(), near, -0.25, &want);
    ExpectSameResponses(batch->Run(near, -0.25), want, ctx + " run 2");
    ExpectSameRunState(*batch, rng_batch, *stream, rng_stream, ctx);
    EXPECT_GT(batch->positives_emitted(), 20)
        << ctx << " workload must resample repeatedly";

    const BatchRunStats& st = batch->batch_stats();
    // Every mid-chunk resume here enters under a freshly resampled ρ.
    EXPECT_GT(st.replay_rederivations, 0) << ctx;
    // Common-threshold runs never touch the per-query skip counter.
    EXPECT_EQ(st.mega_words_skipped_q, 0) << ctx;
    ExpectStatsMatchFirstLevel(st, &first_level, ctx);
  }
}

TEST(BatchRunnerTest, PerQueryResamplingMatchesStreamingAtEveryLevel) {
  // RevSVT-style workload: per-query thresholds with ρ resampled after
  // every positive. Each positive moves ρ mid-chunk, so no chunk of such a
  // spec takes the fused pass: every resume compares against the chunk's
  // ν block, and no skip word discharges a word. Every third span sits far
  // below its bars, so the span bounds skip spans all the same. Responses,
  // run counters and stream positions must match the streaming loop
  // exactly at every dispatch level, and the counters must be identical
  // across levels.
  ScopedDispatchLevel restore_level;

  const size_t n = 2 * BatchRunner::kChunkSize + 57;
  std::vector<double> answers(n), bars(n);
  Rng gen(31337);
  for (size_t i = 0; i < n; ++i) {
    const bool far_span = (i / BatchRunner::kBoundSpan) % 3 == 0;
    answers[i] = far_span ? -1e9 : -2.0 + 2.5 * (gen.NextDouble() - 0.5);
    bars[i] = gen.NextDouble() - 0.5;
  }

  const auto make = [](bool exp_noise,
                       Rng* rng) -> std::unique_ptr<SparseVector> {
    if (exp_noise) {
      VariantSpec spec = AllExponentialSpec();
      spec.resample_rho_after_positive = true;
      spec.rho_resample_scale = 1.0;
      return std::make_unique<SparseVector>(spec, rng);
    }
    SvtOptions o;
    o.epsilon = 0.75;
    o.cutoff = 1 << 20;
    o.resample_threshold_noise = true;
    return SparseVector::Create(o, rng).value();
  };

  for (bool exp_noise : {false, true}) {
    std::optional<BatchRunStats> first_level;
    for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
      if (!vec::SetDispatchLevel(level)) continue;
      const std::string ctx = std::string(vec::DispatchLevelName(level)) +
                              (exp_noise ? " exp" : " laplace");
      Rng rng_batch(4242), rng_stream(4242);
      const auto batch = make(exp_noise, &rng_batch);
      const auto stream = make(exp_noise, &rng_stream);
      std::vector<Response> want;
      StreamAppend(stream.get(), answers, bars, &want);
      ExpectSameResponses(batch->Run(answers, bars), want,
                          ctx + " per-query resample");
      ExpectSameRunState(*batch, rng_batch, *stream, rng_stream, ctx);
      EXPECT_GT(batch->positives_emitted(), 10)
          << ctx << " workload must resample repeatedly";
      const BatchRunStats& st = batch->batch_stats();
      EXPECT_GT(st.tier2_spans_skipped, 0) << ctx;
      EXPECT_EQ(st.mega_words_skipped_q, 0) << ctx;
      EXPECT_GT(st.replay_rederivations, 0) << ctx;
      ExpectStatsMatchFirstLevel(st, &first_level, ctx);
    }
  }
}

// The most positives any kChunkSize consecutive responses of `responses`
// hold, counted from its start.
int64_t MostPositivesPerChunk(const std::vector<Response>& responses) {
  int64_t most = 0;
  for (size_t lo = 0; lo < responses.size(); lo += BatchRunner::kChunkSize) {
    const size_t hi = std::min(lo + BatchRunner::kChunkSize, responses.size());
    most = std::max<int64_t>(
        most, std::count_if(responses.begin() + lo, responses.begin() + hi,
                            [](const Response& r) { return r.is_positive(); }));
  }
  return most;
}

TEST(BatchRunnerTest, ResamplingHitOverflowMatchesStreaming) {
  // A chunk's recorded hits only serve its walk while they fit the fixed
  // record (kChunkSize/16 entries). The overflow runs defeat it on purpose:
  // the answers sit close enough under the bar that the fused pass still
  // runs (the skip word is finite) yet hundreds of elements per chunk
  // fire, so the record overflows and every resume must compare against
  // the chunk's ν block instead — in the common arm and, with half the
  // spans far below to keep the skip-word vector live, in the per-query
  // arm. Only a spec that never moves ρ takes the fused pass, so the
  // overflow runs use one. The same workloads under a spec that resamples
  // ρ resume against the ν block with ρ moved at every positive. Responses,
  // run counters and stream positions must match the streaming loop
  // exactly at every dispatch level.
  ScopedDispatchLevel restore_level;

  SvtOptions o;
  o.epsilon = 0.75;
  o.cutoff = 1 << 20;
  Rng rng_probe(8);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();

  const size_t n = 2 * BatchRunner::kChunkSize + 57;
  std::vector<double> dense(n), mixed(n), bars(n);
  Rng gen(515151);
  for (size_t i = 0; i < n; ++i) {
    // Dense: every element ~1.5 ν scales under the common bar — the fire
    // probability (~e^-1.5/2 per element) yields far more than
    // kChunkSize/16 hits per chunk while the chunk skip word stays
    // finite.
    dense[i] = (-1.5 + 0.2 * (gen.NextDouble() - 0.5)) * nu_scale;
    bars[i] = 0.5 * (gen.NextDouble() - 0.5) * nu_scale;
    // Mixed (per-query arm): alternating spans far below (finite skip
    // words keep the fused pass on) and spans hugging their bars
    // (~e^-0.5/2 fire probability — overflow again).
    const bool far_span = (i / BatchRunner::kBoundSpan) % 2 == 0;
    mixed[i] =
        far_span ? -1e9 : bars[i] + (-0.5 + 0.2 * (gen.NextDouble() - 0.5)) *
                              nu_scale;
  }

  for (const bool resample : {false, true}) {
    o.resample_threshold_noise = resample;
    std::optional<BatchRunStats> first_level;
    for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
      if (!vec::SetDispatchLevel(level)) continue;
      const std::string ctx = std::string(vec::DispatchLevelName(level)) +
                              (resample ? " resample" : " overflow");
      Rng rng_batch(9090), rng_stream(9090);
      auto batch = SparseVector::Create(o, &rng_batch).value();
      auto stream = SparseVector::Create(o, &rng_stream).value();
      std::vector<Response> want;
      StreamAppend(stream.get(), dense, 0.0, &want);
      const std::vector<Response> common = batch->Run(dense, 0.0);
      ExpectSameResponses(common, want, ctx + " common");
      want.clear();
      StreamAppend(stream.get(), mixed, bars, &want);
      const std::vector<Response> per_query = batch->Run(mixed, bars);
      ExpectSameResponses(per_query, want, ctx + " per-query");
      ExpectSameRunState(*batch, rng_batch, *stream, rng_stream, ctx);
      // Dense positives: some chunk of each call holds more than its
      // record can.
      const int64_t record = BatchRunner::kChunkSize / 16;
      EXPECT_GT(MostPositivesPerChunk(common), record) << ctx << " common";
      EXPECT_GT(MostPositivesPerChunk(per_query), record)
          << ctx << " per-query";
      const BatchRunStats& st = batch->batch_stats();
      if (resample) {
        EXPECT_GT(st.replay_rederivations, 0) << ctx;
        EXPECT_EQ(st.mega_words_skipped_q, 0) << ctx;
      } else {
        // The per-query fused pass ran, and ρ never moved.
        EXPECT_GT(st.mega_words_skipped_q, 0) << ctx;
        EXPECT_EQ(st.replay_rederivations, 0) << ctx;
      }
      ExpectStatsMatchFirstLevel(st, &first_level, ctx);
    }
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

// One of the ten variants with its ν drawn from `nu_kind`: the variant's
// own factory when that is its native kind, else a SparseVector over its
// spec with the kind swapped.
std::unique_ptr<SparseVector> MakeWithNuKind(VariantId id, NoiseKind nu_kind,
                                             int cutoff, Rng* rng) {
  VariantSpec spec = MakeSpec(id, 1.0, 1.0, cutoff);
  if (spec.nu_kind != nu_kind) {
    spec.nu_kind = nu_kind;
    return std::make_unique<SparseVector>(std::move(spec), rng);
  }
  return MakeVariantMechanism(id, 1.0, 1.0, cutoff, rng).value();
}

TEST(BatchRunnerTest, ShortCallCutoverMatchesStreamingAtEveryLength) {
  // Every call length on both sides of the short-call cutover, for all ten
  // variants × both ν kinds × common and per-query bars (odd common-bar
  // lengths with a prefilter attached): the responses, the base stream afterwards, and
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
            const BoundPrefilter pf = BoundPrefilter::Build(answers);
            std::vector<Response> got, ref;
            if (per_query) {
              batch->RunAppend(answers, bars, &got);
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

// A spec drawing both noises from `kind` at unit scales, with `cutoff`.
VariantSpec UnitSpec(NoiseKind kind, int cutoff) {
  VariantSpec spec = AllExponentialSpec();
  spec.rho_kind = kind;
  spec.nu_kind = kind;
  spec.cutoff = cutoff;
  return spec;
}

// The ν stream's lane phase a call enters at, from the streaming twin.
uint32_t NuPhase(const SparseVector& mech) {
  return mech.nu_stream_state().phase;
}

TEST(BatchRunnerTest, UnalignedEntryMatchesStreaming) {
  // A call inherits the ν phase the previous call left. Back-to-back calls
  // whose lengths reach every entry phase (Laplace 0 and 2, exponential
  // 0-3), of kStreamingCutover and kStreamingCutover + 3 queries among
  // them, for both bar forms, and for the common bar with and without a
  // prefilter, at every dispatch level: responses and both streams must
  // equal the streaming loop's. A call without a prefilter streams its
  // alignment head, so no chunk enters off a lane boundary; a prefiltered
  // call keeps its unaligned entry.
  ScopedDispatchLevel restore_level;
  constexpr size_t kCut = BatchRunner::kStreamingCutover;
  const size_t lengths[] = {BatchRunner::kChunkSize + 1,
                            kCut,
                            kCut + 3,
                            2 * BatchRunner::kChunkSize + 1,
                            BatchRunner::kBoundSpan + 2,
                            1027,
                            kCut + 1,
                            BatchRunner::kChunkSize + 2};
  size_t total = 0;
  for (size_t n : lengths) total += n;
  std::vector<double> answers(total), bars(total);
  Rng gen(606);
  for (size_t i = 0; i < total; ++i) {
    // Near-bar pairs of spans between far-below ones: positives, resumes
    // and span skips in every call.
    const bool far = (i / (2 * BatchRunner::kBoundSpan)) % 2 == 0;
    answers[i] = far ? -1e9 : (gen.NextDouble() - 0.9) * 6.0;
    bars[i] = gen.NextDouble() - 0.5;
  }

  for (NoiseKind kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
    for (const bool per_query : {false, true}) {
      for (const bool with_pf : {false, true}) {
        if (per_query && with_pf) continue;  // prefilters are common-bar only
        std::optional<BatchRunStats> first_level;
        std::set<uint32_t> phases;
        for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
          if (!vec::SetDispatchLevel(level)) continue;
          const std::string ctx =
              std::string(vec::DispatchLevelName(level)) +
              (kind == NoiseKind::kLaplace ? " lap" : " exp") +
              (per_query ? " per-query" : " common") +
              (with_pf ? " prefilter" : "");
          Rng rng_batch(31), rng_stream(31);
          SparseVector batch(UnitSpec(kind, 1 << 20), &rng_batch);
          SparseVector stream(UnitSpec(kind, 1 << 20), &rng_stream);
          size_t offset = 0;
          for (size_t n : lengths) {
            const std::string call = ctx + " n=" + std::to_string(n);
            const std::span<const double> a(answers.data() + offset, n);
            const std::span<const double> t(bars.data() + offset, n);
            offset += n;
            const uint32_t phase = NuPhase(stream);
            phases.insert(phase);
            const BoundPrefilter pf = BoundPrefilter::Build(a);
            const BatchRunStats before = batch.batch_stats();
            std::vector<Response> got, want;
            if (per_query) {
              batch.RunAppend(a, t, &got);
              StreamAppend(&stream, a, t, &want);
            } else {
              batch.RunAppend(a, 0.0, with_pf ? &pf : nullptr, &got);
              StreamAppend(&stream, a, 0.0, &want);
            }
            ExpectSameResponses(got, want, call);
            ExpectSameRunState(batch, rng_batch, stream, rng_stream, call);
            const BatchRunStats& st = batch.batch_stats();
            const int64_t unaligned =
                st.unaligned_chunks - before.unaligned_chunks;
            const int64_t streamed =
                st.streamed_queries - before.streamed_queries;
            if (with_pf && phase != 0) {
              const size_t chunks = (n + BatchRunner::kChunkSize - 1) /
                                    BatchRunner::kChunkSize;
              EXPECT_EQ(unaligned, static_cast<int64_t>(chunks)) << call;
              EXPECT_EQ(streamed, 0) << call;
            } else {
              EXPECT_EQ(unaligned, 0) << call;
              const uint32_t wpv = kind == NoiseKind::kLaplace ? 2 : 1;
              EXPECT_EQ(streamed, with_pf ? 0 : (4 - phase) % 4 / wpv)
                  << call;
            }
          }
          EXPECT_GT(batch.positives_emitted(), 0) << ctx;
          ExpectStatsMatchFirstLevel(batch.batch_stats(), &first_level, ctx);
        }
        // The lengths reach every phase the ν kind can enter at.
        EXPECT_EQ(phases.size(), kind == NoiseKind::kLaplace ? 2u : 4u);
      }
    }
  }
}

TEST(BatchRunnerTest, CutoffInsideTheAlignmentHeadMatchesStreaming) {
  // A run whose cutoff exhausts inside the ≤3-query head, or on its last
  // query, must stop there exactly like the streaming loop; one that
  // exhausts after the head stops inside the engine. A first call of
  // kStreamingCutover + 1 far-below queries leaves the ν phase at 2
  // (Laplace: head 1) or 1 (exponential: head 3); the second call's first
  // three answers always fire.
  ScopedDispatchLevel restore_level;
  constexpr size_t kFirst = BatchRunner::kStreamingCutover + 1;
  const std::vector<double> below(kFirst, -1e9);
  std::vector<double> second(4 * BatchRunner::kStreamingCutover, -1e9);
  second[0] = second[1] = second[2] = 1e9;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (NoiseKind kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
      for (int cutoff : {1, 2, 3}) {
        for (const bool per_query : {false, true}) {
          const std::string ctx =
              std::string(vec::DispatchLevelName(level)) +
              (kind == NoiseKind::kLaplace ? " lap" : " exp") +
              " cutoff=" + std::to_string(cutoff) +
              (per_query ? " per-query" : " common");
          Rng rng_batch(47), rng_stream(47);
          SparseVector batch(UnitSpec(kind, cutoff), &rng_batch);
          SparseVector stream(UnitSpec(kind, cutoff), &rng_stream);
          const std::vector<double> zeros(second.size(), 0.0);
          std::vector<Response> got, want;
          batch.RunAppend(below, 0.0, &got);
          StreamAppend(&stream, below, 0.0, &want);
          ASSERT_NE(NuPhase(stream), 0u) << ctx;
          if (per_query) {
            batch.RunAppend(second, zeros, &got);
            StreamAppend(&stream, second, zeros, &want);
          } else {
            batch.RunAppend(second, 0.0, &got);
            StreamAppend(&stream, second, 0.0, &want);
          }
          ExpectSameResponses(got, want, ctx);
          EXPECT_TRUE(batch.exhausted()) << ctx;
          EXPECT_EQ(got.size(), kFirst + static_cast<size_t>(cutoff)) << ctx;
          EXPECT_EQ(batch.positives_emitted(), stream.positives_emitted())
              << ctx;
          EXPECT_EQ(batch.queries_processed(), stream.queries_processed())
              << ctx;
          EXPECT_TRUE(SameState(rng_batch.state(), rng_stream.state()))
              << ctx;
          // The first call entered aligned and ran in the engine.
          const int head = kind == NoiseKind::kLaplace ? 1 : 3;
          if (cutoff <= head) {
            // The run ended in the head: the engine never ran, and the ν
            // stream stands where the loop left it.
            EXPECT_EQ(batch.batch_stats().streamed_queries, cutoff) << ctx;
            EXPECT_TRUE(
                SameState(batch.nu_stream_state(), stream.nu_stream_state()))
                << ctx;
          } else {
            EXPECT_EQ(batch.batch_stats().streamed_queries, head) << ctx;
          }
        }
      }
    }
  }
}

TEST(BatchRunnerTest, ResumeWalkMatchesStreaming) {
  // The walk scans a surviving span from its fused pass's complete hit
  // record, which only a spec that never moves ρ keeps, and otherwise by
  // comparing against the chunk's ν block, transformed whole. Every
  // scenario below reaches the ν block: ρ resampled densely (the bar moves
  // many times per chunk), a record that overflows,
  // chunks with no sound skip word, and a cutoff that exhausts the run
  // inside a span. Each runs as several calls that cross chunk boundaries,
  // for both arms, both ν kinds, and on the common arm with a prefilter
  // attached and without one, at every dispatch level. Batch must equal
  // streaming — responses and both streams — and the counters must be the
  // same at every dispatch level.
  ScopedDispatchLevel restore_level;
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

  // Counters of each case at the first dispatch level, by case.
  std::map<std::string, BatchRunStats> first_level;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (const Scenario& sc : scenarios) {
      for (NoiseKind nu_kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
        for (const bool per_query : {false, true}) {
          for (const bool with_pf : {true, false}) {
            if (per_query && with_pf) continue;  // common-bar only
            VariantSpec spec =
                MakeSpec(sc.resample ? VariantId::kAlg2 : VariantId::kAlg1,
                         1.0, 1.0, sc.cutoff);
            spec.nu_kind = nu_kind;
            const double s = spec.nu_scale;
            Rng rng_batch(7), rng_stream(7), gen(11);
            SparseVector batch(spec, &rng_batch), stream(spec, &rng_stream);
            std::vector<Response> got, want;
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
              if (per_query) {
                batch.RunAppend(answers, bars, &got);
              } else {
                const BoundPrefilter pf = BoundPrefilter::Build(answers);
                batch.RunAppend(answers, -rho, with_pf ? &pf : nullptr, &got);
              }
              for (size_t i = 0; i < len && !stream.exhausted(); ++i) {
                want.push_back(stream.Process(answers[i], bars[i]));
              }
            }

            const std::string name =
                std::string(sc.name) +
                (nu_kind == NoiseKind::kLaplace ? " lap" : " exp") +
                (per_query ? " per-query" : " common") +
                (with_pf ? " prefilter" : " no-prefilter");
            const std::string ctx =
                name + " " + vec::DispatchLevelName(level);
            ExpectSameResponses(got, want, ctx);
            EXPECT_EQ(batch.positives_emitted(), stream.positives_emitted())
                << ctx;
            EXPECT_EQ(batch.queries_processed(), stream.queries_processed())
                << ctx;
            EXPECT_TRUE(SameState(rng_batch.state(), rng_stream.state()))
                << ctx;
            if (!stream.exhausted()) {
              EXPECT_TRUE(
                  SameState(batch.nu_stream_state(), stream.nu_stream_state()))
                  << ctx;
            }
            const BatchRunStats& st = batch.batch_stats();
            const auto [first, inserted] = first_level.emplace(name, st);
            if (!inserted) ExpectSameStats(st, first->second, ctx);

            // Each scenario reaches the regime it names.
            if (sc.resample) {
              EXPECT_GT(st.replay_rederivations, 10) << ctx;
            }
            if (sc.cutoff != kNoCutoff) {
              EXPECT_TRUE(batch.exhausted()) << ctx;
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

TEST(BatchRunnerTest, StageRunAheadMatchesInlineAndStreaming) {
  // A call of at least kParallelMinQueries made from the test thread runs
  // its noise stage on pool workers ahead of the walk, each group of
  // chunks started by jumping the ν stream; the same call made inside a
  // ParallelFor slice runs the stage inline. Both must emit what streaming
  // does and leave both streams where it does, and the two must agree on
  // every counter. Each mechanism takes a short streamed call first (so
  // the long calls start at an odd ν phase), then two long calls appended
  // to one output. In the cutoff scenario the first long call has no
  // positive and the second fires densely from its 21st chunk on, so the
  // walk stops in a chunk the workers have long passed.
  ScopedDispatchLevel restore_level;
  constexpr size_t kChunk = BatchRunner::kChunkSize;
  constexpr size_t kMin = BatchRunner::kParallelMinQueries;
  const size_t calls[] = {5, kMin + 2 * kChunk + 77, kMin + 8 * kChunk + 1001};
  const size_t dense_from = 20 * kChunk;  // in the last call
  constexpr int kNoCutoff = 1 << 20;
  constexpr int kCutoff = 30;

  struct Case {
    const char* name;
    VariantId id;
    bool per_query;
    bool prefilter;  // common bar only
    double numeric_scale;  // > 0: ε₃ answers
  };
  const Case cases[] = {
      {"alg1", VariantId::kAlg1, false, false, 0.0},
      {"alg1-prefilter", VariantId::kAlg1, false, true, 0.0},
      {"alg1-per-query", VariantId::kAlg1, true, false, 0.0},
      {"alg2", VariantId::kAlg2, false, false, 0.0},
      {"alg2-per-query", VariantId::kAlg2, true, false, 0.0},
      {"revisited", VariantId::kRevisited, false, true, 0.0},
      {"alg1-eps3", VariantId::kAlg1, false, false, 2.0},
      {"alg3", VariantId::kAlg3, false, false, 0.0},
      {"alg5", VariantId::kAlg5, true, false, 0.0},
  };

  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (const Case& cs : cases) {
      for (NoiseKind nu_kind :
           {NoiseKind::kLaplace, NoiseKind::kExponential}) {
        for (const bool cutoff : {false, true}) {
          VariantSpec spec =
              MakeSpec(cs.id, 1.0, 1.0, cutoff ? kCutoff : kNoCutoff);
          spec.nu_kind = nu_kind;
          if (cs.numeric_scale > 0.0) spec.numeric_scale = cs.numeric_scale;
          const double s = spec.nu_scale > 0.0 ? spec.nu_scale : 1.0;
          Rng rng_ahead(17), rng_inline(17), rng_stream(17), gen(23);
          SparseVector ahead(spec, &rng_ahead), in_line(spec, &rng_inline),
              stream(spec, &rng_stream);
          std::vector<Response> got_ahead, got_inline, want;
          for (size_t c = 0; c < std::size(calls); ++c) {
            const size_t len = calls[c];
            const bool last = c + 1 == std::size(calls);
            // Bars placed against the current ρ: answers 5 ± 1 ν scales
            // under their bar, 1.5 ± 0.5 from dense_from of the last
            // call in the cutoff scenario, and far under before it.
            const double rho = stream.threshold_noise();
            std::vector<double> answers(len), bars(len, -rho);
            for (size_t i = 0; i < len; ++i) {
              if (cs.per_query) {
                bars[i] += 0.25 * s * (gen.NextDouble() - 0.5);
              }
              double off = -4.0 - 2.0 * gen.NextDouble();
              if (cutoff && len > kMin) {
                off = last && i >= dense_from ? -1.0 - gen.NextDouble()
                                              : -1e6;
              }
              answers[i] = bars[i] + off * s;
            }
            const BoundPrefilter pf = BoundPrefilter::Build(answers);
            const BoundPrefilter* attached = cs.prefilter ? &pf : nullptr;
            const auto run = [&](SparseVector& mech,
                                 std::vector<Response>* out) {
              if (cs.per_query) {
                mech.RunAppend(answers, bars, out);
              } else {
                mech.RunAppend(answers, -rho, attached, out);
              }
            };
            run(ahead, &got_ahead);
            ParallelFor(1, 1, [&](int64_t, int64_t, int) {
              run(in_line, &got_inline);
            });
            for (size_t i = 0; i < len && !stream.exhausted(); ++i) {
              want.push_back(stream.Process(answers[i], bars[i]));
            }
          }

          const std::string ctx =
              std::string(cs.name) +
              (nu_kind == NoiseKind::kLaplace ? " lap" : " exp") +
              (cutoff ? " cutoff" : "") + " " +
              vec::DispatchLevelName(level);
          ExpectSameResponses(got_ahead, want, ctx + " ahead");
          ExpectSameResponses(got_inline, want, ctx + " inline");
          EXPECT_TRUE(SameState(rng_ahead.state(), rng_stream.state()))
              << ctx;
          EXPECT_TRUE(SameState(rng_inline.state(), rng_stream.state()))
              << ctx;
          EXPECT_TRUE(
              SameState(ahead.nu_stream_state(), in_line.nu_stream_state()))
              << ctx;
          if (!stream.exhausted()) {
            EXPECT_TRUE(
                SameState(ahead.nu_stream_state(), stream.nu_stream_state()))
                << ctx;
          }
          EXPECT_EQ(ahead.threshold_noise(), stream.threshold_noise())
              << ctx;
          EXPECT_EQ(ahead.positives_emitted(), stream.positives_emitted())
              << ctx;
          EXPECT_EQ(ahead.queries_processed(), stream.queries_processed())
              << ctx;
          EXPECT_EQ(ahead.exhausted(), stream.exhausted()) << ctx;
          ExpectSameStats(ahead.batch_stats(), in_line.batch_stats(), ctx);
          if (cutoff && spec.cutoff.has_value()) {
            EXPECT_TRUE(stream.exhausted()) << ctx;
            EXPECT_GT(want.size(), calls[0] + calls[1] + dense_from) << ctx;
          }
        }
      }
    }
  }
}

TEST(BatchRunnerTest, ConcurrentLongCallsMatchStreaming) {
  // Long calls made at once from several threads: one at a time runs its
  // stage ahead on the pool and the rest run inline, whichever wins — the
  // outputs cannot tell.
  constexpr size_t kLen = BatchRunner::kParallelMinQueries + 5000;
  constexpr int kThreads = 3;
  VariantSpec spec = MakeSpec(VariantId::kAlg2, 1.0, 1.0, 1 << 20);
  std::vector<double> answers(kLen);
  Rng gen(31);
  for (double& a : answers) {
    a = -(4.0 + 2.0 * gen.NextDouble()) * spec.nu_scale;
  }
  std::vector<std::vector<Response>> got(kThreads);
  std::vector<Rng::State> nu_state(kThreads);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      Rng rng(100 + k);
      SparseVector mech(spec, &rng);
      for (int call = 0; call < 4; ++call) {
        mech.RunAppend(answers, 0.0, &got[static_cast<size_t>(k)]);
      }
      nu_state[static_cast<size_t>(k)] = mech.nu_stream_state();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int k = 0; k < kThreads; ++k) {
    Rng rng(100 + k);
    SparseVector stream(spec, &rng);
    std::vector<Response> want;
    for (int call = 0; call < 4; ++call) {
      for (double a : answers) want.push_back(stream.Process(a, 0.0));
    }
    ExpectSameResponses(got[static_cast<size_t>(k)], want,
                        "thread " + std::to_string(k));
    EXPECT_TRUE(SameState(nu_state[static_cast<size_t>(k)],
                          stream.nu_stream_state()))
        << "thread " << k;
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
  const std::vector<double> answers(3, 0.0), two_bars(2, 0.0);
  const BoundPrefilter wrong_size =
      BoundPrefilter::Build(std::vector<double>(5, 0.0));
  std::vector<Response> out;
  EXPECT_DEATH(mech->RunAppend(answers, two_bars, &out), "size mismatch");
  EXPECT_DEATH(mech->RunAppend(answers, 0.0, &wrong_size, &out),
               "does not match");
}

}  // namespace
}  // namespace svt
