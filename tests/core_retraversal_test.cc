#include "core/svt_retraversal.h"

#include <cmath>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace svt {
namespace {

RetraversalOptions BasicOptions(int c, double boost_devs) {
  RetraversalOptions o;
  o.svt.epsilon = 1.0;
  o.svt.sensitivity = 1.0;
  o.svt.cutoff = c;
  o.svt.monotonic = true;
  o.svt.allocation = BudgetAllocation::Optimal(c, /*monotonic=*/true);
  o.threshold_boost_devs = boost_devs;
  return o;
}

TEST(RetraversalOptionsTest, Validation) {
  RetraversalOptions o = BasicOptions(3, 1.0);
  EXPECT_TRUE(o.Validate().ok());
  o.threshold_boost_devs = -1.0;
  EXPECT_FALSE(o.Validate().ok());
  o = BasicOptions(3, 1.0);
  o.max_passes = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = BasicOptions(3, 1.0);
  o.svt.epsilon = 0.0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(RetraversalTest, SelectsAtMostC) {
  Rng rng(1);
  const std::vector<double> scores(100, 1000.0);
  const auto result =
      SelectWithRetraversal(scores, 0.0, BasicOptions(7, 0.0), rng).value();
  EXPECT_EQ(result.selected.size(), 7u);
}

TEST(RetraversalTest, SelectionsAreDistinctIndices) {
  Rng rng(2);
  std::vector<double> scores(50);
  for (int i = 0; i < 50; ++i) scores[i] = 100.0 - i;
  const auto result =
      SelectWithRetraversal(scores, 50.0, BasicOptions(10, 1.0), rng).value();
  std::set<size_t> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), result.selected.size());
}

TEST(RetraversalTest, RetraversesWhenFirstPassFindsTooFew) {
  Rng rng(3);
  // All scores just below a highly-boosted threshold: the first pass will
  // select almost nothing, but subsequent passes with fresh noise
  // eventually find c (noise is unbounded).
  const std::vector<double> scores(40, 10.0);
  RetraversalOptions o = BasicOptions(5, 0.0);
  o.svt.epsilon = 5.0;  // moderate noise
  o.max_passes = 10000;
  const auto result = SelectWithRetraversal(scores, 11.0, o, rng).value();
  EXPECT_EQ(result.selected.size(), 5u);
  EXPECT_GE(result.passes_used, 1);
}

TEST(RetraversalTest, BoostRaisesEffectiveThreshold) {
  Rng rng(4);
  const std::vector<double> scores(10, 0.0);
  const auto r0 =
      SelectWithRetraversal(scores, 5.0, BasicOptions(2, 0.0), rng).value();
  const auto r5 =
      SelectWithRetraversal(scores, 5.0, BasicOptions(2, 5.0), rng).value();
  EXPECT_DOUBLE_EQ(r0.boosted_threshold, 5.0);
  EXPECT_GT(r5.boosted_threshold, 5.0);
}

TEST(RetraversalTest, MaxPassesCapsWork) {
  Rng rng(5);
  // Scores absurdly below threshold: selection nearly impossible, so the
  // cap must kick in rather than looping forever.
  const std::vector<double> scores(20, -1e7);
  RetraversalOptions o = BasicOptions(3, 0.0);
  o.max_passes = 4;
  const auto result = SelectWithRetraversal(scores, 0.0, o, rng).value();
  EXPECT_LE(result.passes_used, 4);
  EXPECT_TRUE(result.selected.empty());
}

TEST(RetraversalTest, ComparisonsAccounted) {
  Rng rng(6);
  const std::vector<double> scores(30, 1e9);
  const auto result =
      SelectWithRetraversal(scores, 0.0, BasicOptions(3, 0.0), rng).value();
  // Selecting 3 from overwhelming scores takes exactly 3 comparisons.
  EXPECT_EQ(result.comparisons, 3);
  EXPECT_EQ(result.passes_used, 1);
}

TEST(RetraversalTest, DeterministicGivenSeed) {
  const std::vector<double> scores = {10.0, 9.0, 8.0, 7.0, 6.0,
                                      5.0,  4.0, 3.0, 2.0, 1.0};
  Rng rng1(7), rng2(7);
  const auto r1 =
      SelectWithRetraversal(scores, 6.5, BasicOptions(3, 1.0), rng1).value();
  const auto r2 =
      SelectWithRetraversal(scores, 6.5, BasicOptions(3, 1.0), rng2).value();
  EXPECT_EQ(r1.selected, r2.selected);
  EXPECT_EQ(r1.passes_used, r2.passes_used);
}

TEST(RetraversalTest, PrefersHighScores) {
  // 5 high scores, 45 much lower ones; with a tight budget the high scores
  // should dominate the selection across repetitions.
  std::vector<double> scores(50, 10.0);
  for (int i = 0; i < 5; ++i) scores[i] = 1000.0;
  Rng rng(8);
  int high_hits = 0, total = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const auto result =
        SelectWithRetraversal(scores, 500.0, BasicOptions(5, 1.0), rng)
            .value();
    for (size_t idx : result.selected) {
      ++total;
      if (idx < 5) ++high_hits;
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(high_hits / static_cast<double>(total), 0.9);
}

// The streaming oracle: SVT-ReTr written as a Process() loop, one query at
// a time, with the candidates past a cutoff abort left unselected.
RetraversalResult StreamRetraversal(std::span<const double> scores,
                                    double base_threshold,
                                    const RetraversalOptions& options,
                                    Rng& rng) {
  auto mech = SparseVector::Create(options.svt, &rng).value();
  RetraversalResult result;
  result.boosted_threshold = base_threshold + options.threshold_boost_devs *
                                                  std::sqrt(2.0) *
                                                  mech->query_noise_scale();
  std::vector<size_t> candidates(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) candidates[i] = i;
  const size_t want = static_cast<size_t>(options.svt.cutoff);
  while (result.selected.size() < want &&
         result.passes_used < options.max_passes && !candidates.empty()) {
    ++result.passes_used;
    std::vector<size_t> rest;
    for (size_t idx : candidates) {
      if (!mech->exhausted()) {
        ++result.comparisons;
        if (mech->Process(scores[idx], result.boosted_threshold)
                .is_positive()) {
          result.selected.push_back(idx);
          continue;
        }
      }
      rest.push_back(idx);
    }
    candidates.swap(rest);
    if (mech->exhausted()) break;
  }
  return result;
}

TEST(RetraversalTest, MatchesProcessLoop) {
  // Pass lengths on both sides of BatchRunner::kStreamingCutover and past
  // one engine chunk; scores that exhaust the cutoff mid-pass (high), need
  // several passes (near the bar) or hit the max_passes cap (far below).
  struct Shape {
    const char* name;
    double center, spread;  // in units of the threshold's distance
  };
  const Shape shapes[] = {{"high", 50.0, 10.0},
                          {"near", -1.0, 4.0},
                          {"far", -1e6, 0.0}};
  int mid_pass_cutoffs = 0, multi_pass = 0, capped = 0;
  for (size_t n : {3, 9, 17, 100, 2500}) {
    for (const Shape& shape : shapes) {
      for (int c : {1, 3, 10}) {
        for (double boost : {0.0, 1.0}) {
          for (int max_passes : {1, 4, 256}) {
            const uint64_t seed = n * 131 + static_cast<uint64_t>(c);
            Rng gen(seed);
            std::vector<double> scores(n);
            for (double& x : scores) {
              x = shape.center + (gen.NextDouble() - 0.5) * shape.spread;
            }
            RetraversalOptions o = BasicOptions(c, boost);
            o.max_passes = max_passes;
            Rng rng_a(seed), rng_b(seed);
            const RetraversalResult got =
                SelectWithRetraversal(scores, 0.0, o, rng_a).value();
            const RetraversalResult want =
                StreamRetraversal(scores, 0.0, o, rng_b);
            const std::string context =
                std::string(shape.name) + " n=" + std::to_string(n) +
                " c=" + std::to_string(c) + " boost=" +
                std::to_string(boost) +
                " max_passes=" + std::to_string(max_passes);
            EXPECT_EQ(got.selected, want.selected) << context;
            EXPECT_EQ(got.passes_used, want.passes_used) << context;
            EXPECT_EQ(got.comparisons, want.comparisons) << context;
            EXPECT_EQ(got.boosted_threshold, want.boosted_threshold)
                << context;
            EXPECT_EQ(rng_a.state().words, rng_b.state().words) << context;
            EXPECT_EQ(rng_a.state().phase, rng_b.state().phase) << context;
            const bool full = want.selected.size() == static_cast<size_t>(c);
            if (full && want.comparisons < static_cast<int64_t>(n)) {
              ++mid_pass_cutoffs;
            }
            if (want.passes_used > 1) ++multi_pass;
            if (!full && want.passes_used == max_passes) ++capped;
          }
        }
      }
    }
  }
  EXPECT_GT(mid_pass_cutoffs, 0);
  EXPECT_GT(multi_pass, 0);
  EXPECT_GT(capped, 0);
}

class BoostSweep : public ::testing::TestWithParam<double> {};

TEST_P(BoostSweep, AlwaysTerminatesWithinCap) {
  Rng rng(42 + static_cast<uint64_t>(GetParam()));
  std::vector<double> scores(200);
  for (int i = 0; i < 200; ++i) scores[i] = 200.0 - i;
  RetraversalOptions o = BasicOptions(20, GetParam());
  o.max_passes = 64;
  const auto result = SelectWithRetraversal(scores, 180.0, o, rng).value();
  EXPECT_LE(result.passes_used, 64);
  EXPECT_LE(result.selected.size(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Boosts, BoostSweep,
                         ::testing::Values(0.0, 1.0, 2.0, 3.0, 4.0, 5.0));

}  // namespace
}  // namespace svt
