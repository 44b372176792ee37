// Determinism and correctness of the parallel Monte-Carlo estimator: the
// hits are a function of (caller's rng state, trials) alone — identical at
// every worker count and schedule — the caller's rng advances exactly one
// draw, and the hits are those the trial-group contract
// (core/trial_walk.h) defines through the streaming oracle.

#include "audit/monte_carlo.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "audit/counterexamples.h"
#include "common/rng.h"
#include "core/response.h"
#include "core/svt_variants.h"
#include "core/trial_walk.h"
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

TEST(McParallelTest, CallerRngAdvancesExactlyOneDraw) {
  const VariantSpec spec = MakeAlg2Spec(1.0, 1.0, 2);
  const std::vector<double> answers = {0.5, -0.5, 0.2};
  for (int64_t trials : {1, 255, 256, 257, 5000}) {
    for (int workers : {1, 2, 3, 4, 0}) {
      Rng rng(42), ref(42);
      EstimateOutputProbability(spec, answers, 0.0, "_T_", rng,
                                Opts(trials, workers));
      ref.NextUint64();
      EXPECT_EQ(rng.NextUint64(), ref.NextUint64())
          << "trials=" << trials << " workers=" << workers;
    }
  }
}

TEST(McParallelTest, HitsFollowTheTrialGroupContract) {
  // The estimator's hits against the contract spelled out with the
  // streaming oracle: the key is the caller's next draw, and trial t of
  // group g runs on lane t mod 8 of the group, Reset() + RunAppend on its
  // stream.
  constexpr int64_t kTrials = 3 * TrialWalker::kGroupTrials + 5;
  const std::vector<double> answers = {0.5, -0.5, 0.2, 0.9};
  const std::string pattern = "_T_T";
  for (const VariantSpec& spec :
       {MakeAlg1Spec(1.0, 1.0, 2), MakeAlg2Spec(1.0, 1.0, 2)}) {
    Rng rng(42);
    const McEstimate est = EstimateOutputProbability(
        spec, answers, 0.0, pattern, rng, Opts(kTrials, 3));

    const uint64_t key = Rng(42).NextUint64();
    int64_t hits = 0;
    std::vector<Response> out;
    for (int64_t g = 0; g * TrialWalker::kGroupTrials < kTrials; ++g) {
      for (size_t lane = 0; lane < TrialWalker::kLanes; ++lane) {
        Rng lane_rng(TrialWalker::LaneSeed(
            key, TrialWalker::kLanes * static_cast<uint64_t>(g) + lane));
        SparseVector mech(spec, &lane_rng);
        for (int64_t t = g * TrialWalker::kGroupTrials +
                         static_cast<int64_t>(lane);
             t < std::min(kTrials, (g + 1) * TrialWalker::kGroupTrials);
             t += static_cast<int64_t>(TrialWalker::kLanes)) {
          mech.Reset();
          out.clear();
          bool match = mech.RunAppend(answers, 0.0, &out) == pattern.size();
          for (size_t i = 0; match && i < pattern.size(); ++i) {
            match = out[i].is_positive() == (pattern[i] == 'T');
          }
          hits += match;
        }
      }
    }
    EXPECT_EQ(est.hits, hits) << spec.name;
    EXPECT_GT(hits, 0) << spec.name;
  }
}

TEST(McParallelTest, LockstepClaimsGiveTheSameHitsAtEveryWorkerCount) {
  // The lockstep walk's workers claim four groups at a time. Trial counts
  // that end the last claim on a partial group, on a lone run past whole
  // claims and on a whole group give the same hits at 1-4 workers.
  VariantSpec eps3 = MakeSpec(VariantId::kStandard, 1.0, 1.0, 2);
  eps3.numeric_scale = 2.0;
  const std::vector<double> answers = {0.5, -0.5, 0.2, 0.9};
  constexpr int64_t kGroup = TrialWalker::kGroupTrials;
  for (const VariantSpec& spec : {MakeAlg2Spec(1.0, 1.0, 2), eps3}) {
    ASSERT_EQ(TrialWalker::GroupsPerWalk(spec, answers.size()),
              TrialWalker::kMaxWalkGroups)
        << spec.name;
    for (int64_t trials : {3 * kGroup + 19, 4 * kGroup + 1, 5 * kGroup}) {
      Rng serial_rng(23);
      const McEstimate serial = EstimateOutputProbability(
          spec, answers, 0.0, "_T_T", serial_rng, Opts(trials, 1));
      EXPECT_GT(serial.hits, 0) << spec.name << " trials=" << trials;
      for (int workers : {2, 3, 4}) {
        Rng rng(23);
        const McEstimate par = EstimateOutputProbability(
            spec, answers, 0.0, "_T_T", rng, Opts(trials, workers));
        EXPECT_EQ(par.hits, serial.hits)
            << spec.name << " trials=" << trials << " workers=" << workers;
      }
    }
  }
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
    // The caller-visible rng state advances identically too (one draw).
    EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64());
  }
}

TEST(McParallelTest, ParallelEqualsSerialExactly) {
  // Every worker count walks the same trial groups, so the estimates are
  // identical, not merely close.
  const VariantSpec spec = MakeAlg1Spec(1.0, 1.0, 1);
  const std::vector<double> answers = {0.0};
  Rng rng_serial(11);
  const McEstimate serial = EstimateOutputProbability(
      spec, answers, 0.0, "T", rng_serial, Opts(60000, 1));
  for (int workers : {2, 3, 4, 0}) {
    Rng rng_par(11);
    const McEstimate par = EstimateOutputProbability(
        spec, answers, 0.0, "T", rng_par, Opts(60000, workers));
    EXPECT_EQ(par.hits, serial.hits) << "workers=" << workers;
    EXPECT_EQ(par.lower, serial.lower) << "workers=" << workers;
    EXPECT_EQ(par.upper, serial.upper) << "workers=" << workers;
  }
  // True p is 0.5.
  EXPECT_NEAR(serial.p_hat, 0.5, 0.02);
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
  // and D', 20000 trials from seed 2017. Recorded once when trials moved
  // onto key-split trial groups (core/trial_walk.h); one golden per
  // (instance, side) now holds at every worker count.
  struct Case {
    const char* name;
    VariantSpec spec;
    NeighborInstance instance;
    int64_t hits[2];  // [side]
  };
  const NeighborInstance shift = ShiftInstance(4, "_T__");
  const Case cases[] = {
      {"alg3", MakeAlg3Spec(1.0, 1.0, 1), Alg3Counterexample(4), {1093, 256}},
      {"gptt", MakeGpttSpec(0.5, 0.5, 1.0), GpttCounterexample(2), {1355, 293}},
      {"alg5", MakeAlg5Spec(1.0, 1.0), Alg5Counterexample(), {3847, 0}},
      {"alg6", MakeAlg6Spec(1.0, 1.0), Alg6Counterexample(2), {661, 118}},
      {"alg4", MakeAlg4Spec(1.0, 1.0, 2), Alg4StressInstance(2, 4, 2.0),
       {3, 0}},
      {"alg1", MakeSpec(VariantId::kAlg1, 1.0, 1.0, 2), shift, {1260, 1042}},
      {"alg2", MakeSpec(VariantId::kAlg2, 1.0, 1.0, 2), shift, {1323, 1094}},
      {"standard", MakeSpec(VariantId::kStandard, 1.0, 1.0, 2), shift,
       {1260, 1042}},
  };
  for (const Case& c : cases) {
    const std::string pattern = IndicatorPattern(c.instance);
    for (int side = 0; side < 2; ++side) {
      const std::vector<double>& answers =
          side == 0 ? c.instance.answers_d : c.instance.answers_dprime;
      for (int workers : {1, 2, 3, 4, 0}) {
        Rng rng(2017);
        const McEstimate est =
            EstimateOutputProbability(c.spec, answers, c.instance.threshold,
                                      pattern, rng, Opts(20000, workers));
        EXPECT_EQ(est.hits, c.hits[side])
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
