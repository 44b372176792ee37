// BoundPipeline / BoundPrefilter conservativeness and equivalence.
//
// The quantized prefilter level is licensed by two claims (proofs in
// data/bound_prefilter.h and core/bound_pipeline.h):
//   1. per element, the dequantized code bounds the value from the
//      pessimistic side (scores from above, bars from below) — so the
//      quantized level can never prune a span the full-precision bound
//      keeps, and
//   2. codes are bound-only — so engine output is bit-identical with the
//      prefilter attached, absent, or disabled, at every dispatch level,
//      in both kernel modes, for both noise kinds.
// This file attacks both with adversarial value sets: subnormals,
// near-threshold ties, max-magnitude deltas, infinities, and (at the
// prefilter unit level, where no NaN-unaware vector reduction is in the
// loop) NaN.

#include "core/bound_pipeline.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vecmath.h"
#include "core/batch_runner.h"
#include "core/response.h"
#include "core/svt.h"
#include "data/bound_prefilter.h"
#include "data/score_vector.h"
#include "dispatch_test_util.h"

namespace svt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Adversarial value pools. `Boundary` values are spliced into otherwise
// random vectors so every span mixes regimes.
std::vector<double> BoundaryValues(double center) {
  return {
      center,                                  // exact tie
      std::nextafter(center, -kInf),           // one ulp under
      std::nextafter(center, kInf),            // one ulp over
      center - 1e-300,                         // tiny delta
      5e-324,                                  // smallest subnormal
      -5e-324,
      1e-308,                                  // near DBL_MIN
      0.0,
      -0.0,
      std::numeric_limits<double>::max(),      // max-magnitude deltas
      -std::numeric_limits<double>::max(),
      1e15,                                    // big integers (u8/u16 edges)
      -1e15,
  };
}

std::vector<double> AdversarialVector(size_t n, double center, double spread,
                                      uint64_t seed, bool with_inf,
                                      bool with_nan) {
  std::vector<double> v(n);
  Rng gen(seed);
  for (double& x : v) x = center + (gen.NextDouble() - 0.5) * spread;
  const std::vector<double> boundary = BoundaryValues(center);
  for (size_t i = 0; i < n; i += 37) {
    v[i] = boundary[(i / 37) % boundary.size()];
  }
  if (with_inf && n >= 200) {
    v[n / 2] = kInf;
    v[n / 2 + 1] = -kInf;
  }
  if (with_nan && n >= 100) v[n / 3] = kNaN;
  return v;
}

// Exact span extrema computed scalar-style, skipping NaN — the reference
// the quantized reductions must dominate.
double ExactMaxSkipNaN(std::span<const double> v) {
  double m = -kInf;
  for (double x : v) {
    if (!std::isnan(x)) m = std::max(m, x);
  }
  return m;
}

double ExactMinSkipNaN(std::span<const double> v) {
  double m = kInf;
  for (double x : v) {
    if (!std::isnan(x)) m = std::min(m, x);
  }
  return m;
}

TEST(BoundPrefilterTest, ScoreUpperDominatesEveryElement) {
  // Per-element and per-span: the dequantized bound must sit at or above
  // every non-NaN element, over randomized + boundary vectors at several
  // centers/spreads — including NaN in the array (the prefilter's own
  // reductions are NaN-aware by construction: NaN scores get code 0).
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (double spread : {1.0, 1e-12, 1e8, 1e300}) {
      const std::vector<double> a =
          AdversarialVector(1000, -3.0, spread, seed, /*with_inf=*/true,
                            /*with_nan=*/true);
      const BoundPrefilter pf = BoundPrefilter::Build(a);
      for (size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i])) continue;
        ASSERT_GE(pf.ScoreUpper(i, 1), a[i])
            << "seed=" << seed << " spread=" << spread << " i=" << i;
      }
      for (size_t s = 0; s < a.size(); s += 128) {
        const size_t m = std::min<size_t>(128, a.size() - s);
        ASSERT_GE(pf.ScoreUpper(s, m),
                  ExactMaxSkipNaN({a.data() + s, m}))
            << "span at " << s;
      }
    }
  }
}

TEST(BoundPrefilterTest, BarLowerDominatedByEveryElement) {
  for (uint64_t seed : {4u, 5u, 6u}) {
    for (double spread : {1.0, 1e-12, 1e8, 1e300}) {
      const std::vector<double> a =
          AdversarialVector(1000, -3.0, spread, seed, true, true);
      const std::vector<double> t =
          AdversarialVector(1000, 0.25, spread, seed + 100, true, true);
      const BoundPrefilter pf = BoundPrefilter::Build(a, t);
      for (size_t i = 0; i < t.size(); ++i) {
        if (std::isnan(t[i])) continue;
        ASSERT_LE(pf.BarLower(i, 1), t[i])
            << "seed=" << seed << " spread=" << spread << " i=" << i;
      }
      for (size_t s = 0; s < t.size(); s += 128) {
        const size_t m = std::min<size_t>(128, t.size() - s);
        ASSERT_LE(pf.BarLower(s, m), ExactMinSkipNaN({t.data() + s, m}))
            << "span at " << s;
      }
    }
  }
}

TEST(BoundPrefilterTest, QuantizedNeverPrunesWhatExactKeeps) {
  // The engine prunes a span iff fl(up + NB) < bar; correctly-rounded add
  // is monotone in `up`, so quantized-prunes ⊆ exact-prunes follows from
  // up_quant >= up_exact per span (and dually dn_quant <= dn_exact). This
  // asserts exactly that dominance on adversarial spans — the direct
  // prerequisite of "the quantized level never prunes a span the
  // full-precision bound keeps", with no noise realization needed.
  for (uint64_t seed : {7u, 8u}) {
    const std::vector<double> a =
        AdversarialVector(4096, -6.0, 2.0, seed, true, false);
    const std::vector<double> t =
        AdversarialVector(4096, 0.0, 2.0, seed + 1, true, false);
    const BoundPrefilter pf = BoundPrefilter::Build(a, t);
    for (size_t s = 0; s < a.size(); s += 128) {
      const size_t m = std::min<size_t>(128, a.size() - s);
      ASSERT_GE(pf.ScoreUpper(s, m), vec::MaxBlock({a.data() + s, m}));
      ASSERT_LE(pf.BarLower(s, m), vec::MinBlock({t.data() + s, m}));
    }
  }
}

TEST(BoundPrefilterTest, SentinelsAndWidthSelection) {
  // +inf scores land on the sentinel and poison only their own span.
  {
    std::vector<double> a(256, 1.0);
    a[7] = kInf;
    const BoundPrefilter pf = BoundPrefilter::Build(a);
    EXPECT_EQ(pf.ScoreUpper(0, 128), kInf);
    EXPECT_LT(pf.ScoreUpper(128, 128), kInf);
  }
  // -inf bars land on the bar sentinel; NaN bars never deflate a span.
  {
    const std::vector<double> a(256, 1.0);
    std::vector<double> t(256, 5.0);
    t[3] = -kInf;
    t[200] = kNaN;
    const BoundPrefilter pf = BoundPrefilter::Build(a, t);
    EXPECT_EQ(pf.BarLower(0, 128), -kInf);
    const double dn = pf.BarLower(128, 128);
    EXPECT_GT(dn, -kInf);
    EXPECT_LE(dn, 5.0);
  }
  // Small-range integer vectors embed exactly in uint8 (1 byte/element);
  // fractional or wide ranges take uint16.
  {
    std::vector<double> small(300);
    for (size_t i = 0; i < small.size(); ++i) {
      small[i] = static_cast<double>(i % 200);
    }
    EXPECT_EQ(BoundPrefilter::Build(small).score_bytes_per_element(), 1u);
    std::vector<double> frac = small;
    frac[5] = 0.5;
    EXPECT_EQ(BoundPrefilter::Build(frac).score_bytes_per_element(), 2u);
    // u8 exactness: the dequantized per-element bound is the value itself.
    const BoundPrefilter pf = BoundPrefilter::Build(small);
    for (size_t i = 0; i < small.size(); ++i) {
      EXPECT_EQ(pf.ScoreUpper(i, 1), small[i]) << i;
    }
  }
}

// --- engine equivalence ----------------------------------------------------

void ExpectSameResponses(const std::vector<Response>& got,
                         const std::vector<Response>& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].outcome, want[i].outcome) << context << " i=" << i;
    if (got[i].outcome == Outcome::kAboveValue) {
      ASSERT_EQ(got[i].value, want[i].value) << context << " i=" << i;
    }
  }
}

std::vector<double> NearThresholdAnswers(size_t n, double nu_scale,
                                         uint64_t seed) {
  std::vector<double> answers(n);
  Rng gen(seed);
  for (double& a : answers) {
    a = (-6.0 + (gen.NextDouble() - 0.5)) * nu_scale;
  }
  // Boundary splices: exact bar ties and one-ulp deltas at 0.0.
  for (size_t i = 50; i < n; i += 511) {
    answers[i] = 0.0;
    if (i + 1 < n) answers[i + 1] = std::nextafter(0.0, -1.0);
  }
  return answers;
}

SvtOptions NearThresholdOptions(NoiseKind nu_kind) {
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 1 << 20;
  o.monotonic = true;
  o.nu_kind = nu_kind;
  if (nu_kind == NoiseKind::kExponential) o.rho_kind = nu_kind;
  return o;
}

struct EngineRun {
  std::vector<Response> responses;
  BatchRunStats stats;
};

EngineRun RunCommon(const SvtOptions& o, const std::vector<double>& answers,
                    const BoundPrefilter* pf, uint64_t seed) {
  Rng rng(seed);
  auto mech = SparseVector::Create(o, &rng).value();
  EngineRun r;
  mech->RunAppend(answers, 0.0, pf, &r.responses);
  r.stats = mech->batch_stats();
  return r;
}

EngineRun RunPerQuery(const SvtOptions& o, const std::vector<double>& answers,
                      const std::vector<double>& thresholds,
                      const BoundPrefilter* pf, uint64_t seed) {
  Rng rng(seed);
  auto mech = SparseVector::Create(o, &rng).value();
  EngineRun r;
  mech->RunAppend(answers, thresholds, pf, &r.responses);
  r.stats = mech->batch_stats();
  return r;
}

void ExpectSameTierCounters(const BatchRunStats& a, const BatchRunStats& b,
                            const std::string& context) {
  EXPECT_EQ(a.tier1_chunks_skipped, b.tier1_chunks_skipped) << context;
  EXPECT_EQ(a.tier2_chunks_scanned, b.tier2_chunks_scanned) << context;
  EXPECT_EQ(a.tier2_spans_skipped, b.tier2_spans_skipped) << context;
  EXPECT_EQ(a.tier2_fused_segments, b.tier2_fused_segments) << context;
  EXPECT_EQ(a.tier2_fused_subblocks, b.tier2_fused_subblocks) << context;
  EXPECT_EQ(a.bound_spans_pruned_q, b.bound_spans_pruned_q) << context;
  EXPECT_EQ(a.bound_bytes_touched, b.bound_bytes_touched) << context;
}

TEST(BoundPipelineEngineTest, CommonThresholdPrefilterIsOutputNeutral) {
  // Prefilter attached vs absent vs gate-disabled: bit-identical output at
  // every dispatch level, in both kernel modes, for both noise kinds. And
  // within each prefilter setting, all seven counters are dispatch- and
  // mode-independent.
  ScopedDispatchLevel restore_level;
  ScopedPrefilterGate restore_gate;
  const size_t n = 3 * BatchRunner::kChunkSize + 321;

  for (NoiseKind nu_kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
    const SvtOptions o = NearThresholdOptions(nu_kind);
    Rng probe(21);
    const double nu_scale =
        SparseVector::Create(o, &probe).value()->query_noise_scale();
    const std::vector<double> answers = NearThresholdAnswers(n, nu_scale, 99);
    const BoundPrefilter pf = BoundPrefilter::Build(answers);

    EngineRun reference;      // plain run, scalar megakernel
    EngineRun quant_baseline; // prefiltered run, scalar megakernel
    bool have_reference = false;
    for (BatchKernelMode mode :
         {BatchKernelMode::kMegakernel, BatchKernelMode::kComposition}) {
      SetBatchKernelMode(mode);
      for (vec::DispatchLevel level :
           {vec::DispatchLevel::kScalar, vec::DispatchLevel::kAvx2,
            vec::DispatchLevel::kAvx512}) {
        if (!vec::SetDispatchLevel(level)) continue;
        const std::string ctx =
            std::string(nu_kind == NoiseKind::kLaplace ? "lap" : "exp") +
            " mode=" + (mode == BatchKernelMode::kMegakernel ? "mega" : "comp") +
            " level=" + vec::DispatchLevelName(level);

        SetBoundPrefilterEnabled(true);
        const EngineRun plain = RunCommon(o, answers, nullptr, 21);
        const EngineRun quant = RunCommon(o, answers, &pf, 21);
        SetBoundPrefilterEnabled(false);
        const EngineRun gated = RunCommon(o, answers, &pf, 21);
        SetBoundPrefilterEnabled(true);

        ExpectSameResponses(quant.responses, plain.responses, ctx + " quant");
        ExpectSameResponses(gated.responses, plain.responses, ctx + " gated");
        // The disabled gate is full precision end to end.
        ExpectSameTierCounters(gated.stats, plain.stats, ctx + " gated");

        if (!have_reference) {
          reference = plain;
          quant_baseline = quant;
          have_reference = true;
        } else {
          ExpectSameResponses(plain.responses, reference.responses,
                              ctx + " cross");
          ExpectSameTierCounters(plain.stats, reference.stats, ctx + " plain");
          ExpectSameTierCounters(quant.stats, quant_baseline.stats,
                                 ctx + " quant");
        }
        // Prefilter engaged: quantized prunes happen and are flagged; the
        // plain run flags none.
        EXPECT_GT(quant.stats.bound_spans_pruned_q, 0) << ctx;
        EXPECT_EQ(plain.stats.bound_spans_pruned_q, 0) << ctx;
        EXPECT_GT(quant.stats.tier2_spans_skipped, 0) << ctx;
        // The quantized bound pass reads 1-2 bytes/element instead of 8.
        EXPECT_GE(plain.stats.bound_bytes_touched,
                  4 * quant.stats.bound_bytes_touched)
            << ctx;
      }
    }
  }
}

TEST(BoundPipelineEngineTest, PerQueryPrefilterIsOutputNeutral) {
  // The per-query path's new span bound: responses must stay bit-identical
  // to streaming semantics with the prefilter attached, absent, or gated
  // off, across dispatch levels, modes, and noise kinds — and the bound
  // must actually prune (tier2_spans_skipped > 0) on a workload with
  // far-below stretches.
  ScopedDispatchLevel restore_level;
  ScopedPrefilterGate restore_gate;
  const size_t n = 2 * BatchRunner::kChunkSize + 57;

  for (NoiseKind nu_kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
    const SvtOptions o = NearThresholdOptions(nu_kind);
    Rng probe(55);
    const double nu_scale =
        SparseVector::Create(o, &probe).value()->query_noise_scale();
    std::vector<double> answers = NearThresholdAnswers(n, nu_scale, 31);
    std::vector<double> thresholds(n);
    Rng gen(77);
    for (size_t i = 0; i < n; ++i) {
      thresholds[i] = (gen.NextDouble() - 0.5) * nu_scale;
    }
    // Far-below stretches: spans the per-query bound should discharge.
    for (size_t i = BatchRunner::kChunkSize / 2;
         i < BatchRunner::kChunkSize; ++i) {
      answers[i] = -50.0 * nu_scale;
    }
    // Exact tie at a chunk boundary.
    thresholds[BatchRunner::kChunkSize] = answers[BatchRunner::kChunkSize];
    const BoundPrefilter pf = BoundPrefilter::Build(answers, thresholds);

    EngineRun reference, quant_baseline;
    bool have_reference = false;
    for (BatchKernelMode mode :
         {BatchKernelMode::kMegakernel, BatchKernelMode::kComposition}) {
      SetBatchKernelMode(mode);
      for (vec::DispatchLevel level :
           {vec::DispatchLevel::kScalar, vec::DispatchLevel::kAvx2,
            vec::DispatchLevel::kAvx512}) {
        if (!vec::SetDispatchLevel(level)) continue;
        const std::string ctx =
            std::string(nu_kind == NoiseKind::kLaplace ? "lap" : "exp") +
            " mode=" + (mode == BatchKernelMode::kMegakernel ? "mega" : "comp") +
            " level=" + vec::DispatchLevelName(level) + " per-query";

        SetBoundPrefilterEnabled(true);
        const EngineRun plain = RunPerQuery(o, answers, thresholds, nullptr, 4);
        const EngineRun quant = RunPerQuery(o, answers, thresholds, &pf, 4);
        SetBoundPrefilterEnabled(false);
        const EngineRun gated = RunPerQuery(o, answers, thresholds, &pf, 4);
        SetBoundPrefilterEnabled(true);

        ExpectSameResponses(quant.responses, plain.responses, ctx + " quant");
        ExpectSameResponses(gated.responses, plain.responses, ctx + " gated");
        ExpectSameTierCounters(gated.stats, plain.stats, ctx + " gated");

        if (!have_reference) {
          reference = plain;
          quant_baseline = quant;
          have_reference = true;
        } else {
          ExpectSameResponses(plain.responses, reference.responses,
                              ctx + " cross");
          ExpectSameTierCounters(plain.stats, reference.stats, ctx + " plain");
          ExpectSameTierCounters(quant.stats, quant_baseline.stats,
                                 ctx + " quant");
        }
        // The satellite: per-query spans are actually bounded now.
        EXPECT_GT(plain.stats.tier2_spans_skipped, 0) << ctx;
        EXPECT_GT(quant.stats.bound_spans_pruned_q, 0) << ctx;
        EXPECT_GE(plain.stats.bound_bytes_touched,
                  4 * quant.stats.bound_bytes_touched)
            << ctx;
      }
    }
  }
}

TEST(BoundPipelineEngineTest, ScoreVectorCachesItsPrefilter) {
  std::vector<double> scores(500);
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<double>(i % 100);
  }
  const ScoreVector sv(scores);
  const BoundPrefilter* pf = sv.bound_prefilter();
  ASSERT_NE(pf, nullptr);
  EXPECT_EQ(pf, sv.bound_prefilter());  // cached, built once
  EXPECT_EQ(pf->size(), sv.size());
  EXPECT_EQ(pf->score_bytes_per_element(), 1u);  // small-integer embedding
  // The companion is usable directly against the engine.
  SvtOptions o;
  o.epsilon = 1.0;
  o.cutoff = 1000;
  Rng rng_a(3), rng_b(3);
  auto with = SparseVector::Create(o, &rng_a).value();
  auto without = SparseVector::Create(o, &rng_b).value();
  std::vector<Response> out_with, out_without;
  with->RunAppend(sv.scores(), 50.0, pf, &out_with);
  without->RunAppend(sv.scores(), 50.0, &out_without);
  ExpectSameResponses(out_with, out_without, "score-vector prefilter");
}

}  // namespace
}  // namespace svt
