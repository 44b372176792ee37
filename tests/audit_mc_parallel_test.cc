// Determinism and correctness of the parallel Monte-Carlo estimator:
// fixed (seed, num_workers) must reproduce identical hit counts regardless
// of scheduling, num_workers = 1 must match the legacy serial loop draw for
// draw, and the parallel estimate must agree statistically with the serial
// one (it uses different streams, so only the distribution matches).

#include "audit/monte_carlo.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "audit/counterexamples.h"
#include "common/rng.h"
#include "core/svt_variants.h"
#include "core/variant_spec.h"

namespace svt {
namespace {

McOptions Opts(int64_t trials, int workers) {
  McOptions o;
  o.trials = trials;
  o.confidence = 0.999;
  o.num_workers = workers;
  return o;
}

// Replicates the legacy serial estimator loop against the public API with
// num_workers = 1: every trial must draw from the caller's rng directly.
TEST(McParallelTest, OneWorkerMatchesLegacySerialPath) {
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 2);
  const std::vector<double> answers = {0.5, -0.5, 0.2};
  const std::string pattern = "_T_";
  const int64_t trials = 20000;

  Rng rng_api(42);
  const McEstimate est = EstimateOutputProbability(spec, answers, 0.0,
                                                   pattern, rng_api,
                                                   Opts(trials, 1));

  Rng rng_legacy(42);
  CustomSvt mech(spec, &rng_legacy);
  int64_t hits = 0;
  for (int64_t t = 0; t < trials; ++t) {
    mech.Reset();
    bool match = true;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (mech.exhausted()) {
        match = false;
        break;
      }
      const Response r = mech.Process(answers[i], 0.0);
      if (r.is_positive() != (pattern[i] == 'T')) {
        match = false;
        break;
      }
    }
    if (match) ++hits;
  }
  EXPECT_EQ(est.hits, hits);
  // And the two rngs must land in the same state.
  EXPECT_EQ(rng_api.NextUint64(), rng_legacy.NextUint64());
}

TEST(McParallelTest, FixedSeedAndWorkersReproduceIdenticalHits) {
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 2);
  const std::vector<double> answers = {0.5, -0.5, 0.2, 0.9};
  for (int workers : {2, 3, 4, 8}) {
    Rng rng_a(7), rng_b(7);
    const McEstimate a = EstimateOutputProbability(spec, answers, 0.0, "_T_T",
                                                   rng_a, Opts(30000, workers));
    const McEstimate b = EstimateOutputProbability(spec, answers, 0.0, "_T_T",
                                                   rng_b, Opts(30000, workers));
    EXPECT_EQ(a.hits, b.hits) << "workers=" << workers;
    EXPECT_EQ(a.p_hat, b.p_hat) << "workers=" << workers;
    EXPECT_EQ(a.lower, b.lower) << "workers=" << workers;
    EXPECT_EQ(a.upper, b.upper) << "workers=" << workers;
    // The caller-visible rng state advances identically too (one Fork per
    // worker).
    EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64());
  }
}

TEST(McParallelTest, ParallelAgreesWithSerialStatistically) {
  // Different worker counts use different streams, so only the estimates —
  // not the draws — must agree, within joint Wilson bounds.
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> answers = {0.0};
  Rng rng_serial(11), rng_par(11);
  const McEstimate serial = EstimateOutputProbability(
      spec, answers, 0.0, "T", rng_serial, Opts(60000, 1));
  const McEstimate par = EstimateOutputProbability(spec, answers, 0.0, "T",
                                                   rng_par, Opts(60000, 4));
  // True p is 0.5; both intervals must cover each other's point estimate.
  EXPECT_LE(serial.lower, par.p_hat);
  EXPECT_GE(serial.upper, par.p_hat);
  EXPECT_LE(par.lower, serial.p_hat);
  EXPECT_GE(par.upper, serial.p_hat);
  EXPECT_NEAR(par.p_hat, 0.5, 0.02);
}

TEST(McParallelTest, WorkerCountClampedToTrials) {
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> answers = {0.0};
  Rng rng(13);
  // 8 workers, 3 trials: must not deadlock or divide by zero, and trial
  // count must be exact.
  const McEstimate est =
      EstimateOutputProbability(spec, answers, 0.0, "T", rng, Opts(3, 8));
  EXPECT_EQ(est.trials, 3);
  EXPECT_GE(est.hits, 0);
  EXPECT_LE(est.hits, 3);
}

TEST(McParallelTest, HardwareWorkerAutoSelection) {
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> answers = {0.0};
  Rng rng(17);
  const McEstimate est =
      EstimateOutputProbability(spec, answers, 0.0, "T", rng, Opts(10000, 0));
  EXPECT_EQ(est.trials, 10000);
  EXPECT_NEAR(est.p_hat, 0.5, 0.05);
}

std::string IndicatorPattern(const NeighborInstance& instance) {
  std::string p;
  for (const OutputEvent& e : instance.pattern) {
    p += e.is_positive() ? 'T' : '_';
  }
  return p;
}

TEST(McParallelTest, Fig2InstancesReproduceGoldenHits) {
  // Pinned hit counts for every Fig. 2 instance the benchmark audits, on D
  // and D', at 1 and 4 workers. The Alg. 3 and GPTT rows were recorded
  // when every trial ran through the batch engine, the rest when trials
  // streamed one by one; trials are now batched across runs (Alg. 2 keeps
  // the per-trial loop, Alg. 5 has no ν), and the draw-order contract says
  // none of that may move a single hit.
  struct Case {
    const char* name;
    VariantSpec spec;
    NeighborInstance instance;
    int64_t hits[2][2];  // [side][1 worker, 4 workers]
  };
  const NeighborInstance shift = ShiftInstance(4, "_T__");
  const Case cases[] = {
      {"alg3", MakeAlg3Spec(1.0, 1.0, 1), Alg3Counterexample(4),
       {{1024, 1070}, {284, 251}}},
      {"gptt", MakeGpttSpec(0.5, 0.5, 1.0), GpttCounterexample(2),
       {{1316, 1359}, {275, 273}}},
      {"alg5", MakeAlg5Spec(1.0, 1.0), Alg5Counterexample(),
       {{3970, 3926}, {0, 0}}},
      {"alg6", MakeAlg6Spec(1.0, 1.0), Alg6Counterexample(2),
       {{639, 665}, {116, 111}}},
      {"alg4", MakeAlg4Spec(1.0, 1.0, 2), Alg4StressInstance(2, 4, 2.0),
       {{2, 4}, {0, 0}}},
      {"alg1", MakeSpec(VariantId::kAlg1, 1.0, 1.0, 2), shift,
       {{1247, 1233}, {1032, 1001}}},
      {"alg2", MakeSpec(VariantId::kAlg2, 1.0, 1.0, 2), shift,
       {{1212, 1199}, {1053, 1087}}},
      {"standard", MakeSpec(VariantId::kStandard, 1.0, 1.0, 2), shift,
       {{1247, 1233}, {1032, 1001}}},
  };
  for (const Case& c : cases) {
    const std::string pattern = IndicatorPattern(c.instance);
    for (int side = 0; side < 2; ++side) {
      const std::vector<double>& answers =
          side == 0 ? c.instance.answers_d : c.instance.answers_dprime;
      for (int w = 0; w < 2; ++w) {
        const int workers = w == 0 ? 1 : 4;
        Rng rng(2017);
        const McEstimate est =
            EstimateOutputProbability(c.spec, answers, c.instance.threshold,
                                      pattern, rng, Opts(20000, workers));
        EXPECT_EQ(est.hits, c.hits[side][w])
            << c.name << " side=" << side << " workers=" << workers;
      }
    }
  }
}

TEST(McParallelTest, StringViewPatternBinding) {
  // The pattern parameter is a string_view: literals, strings and
  // substrings bind without copies.
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> answers = {0.0, 0.0};
  const std::string long_pattern = "_T__";
  Rng rng(19);
  const McEstimate est = EstimateOutputProbability(
      spec, answers, 0.0, std::string_view(long_pattern).substr(0, 2), rng,
      Opts(5000, 2));
  EXPECT_EQ(est.trials, 5000);
}

}  // namespace
}  // namespace svt
