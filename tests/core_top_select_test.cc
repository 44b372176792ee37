#include "core/top_select.h"

#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/batch_runner.h"
#include "core/svt_variants.h"

namespace svt {
namespace {

TEST(TrueTopCTest, FindsLargest) {
  const std::vector<double> scores = {1.0, 9.0, 3.0, 7.0, 5.0};
  const auto top2 = TrueTopC(scores, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], 1u);
  EXPECT_EQ(top2[1], 3u);
}

TEST(TrueTopCTest, TieBreaksByIndex) {
  const std::vector<double> scores = {5.0, 5.0, 5.0};
  const auto top2 = TrueTopC(scores, 2);
  EXPECT_EQ(top2[0], 0u);
  EXPECT_EQ(top2[1], 1u);
}

TEST(TrueTopCTest, ZeroAndFullC) {
  const std::vector<double> scores = {2.0, 1.0};
  EXPECT_TRUE(TrueTopC(scores, 0).empty());
  EXPECT_EQ(TrueTopC(scores, 2).size(), 2u);
}

TEST(PaperThresholdTest, AveragesBoundaryScores) {
  const std::vector<double> scores = {10.0, 8.0, 6.0, 4.0, 2.0};
  // c = 2: avg of 2nd (8) and 3rd (6) largest = 7.
  EXPECT_DOUBLE_EQ(PaperThreshold(scores, 2), 7.0);
  // c = 1: avg of 10 and 8 = 9.
  EXPECT_DOUBLE_EQ(PaperThreshold(scores, 1), 9.0);
}

TEST(PaperThresholdTest, UnsortedInput) {
  const std::vector<double> scores = {4.0, 10.0, 2.0, 8.0, 6.0};
  EXPECT_DOUBLE_EQ(PaperThreshold(scores, 2), 7.0);
}

TEST(PaperThresholdTest, WithTies) {
  const std::vector<double> scores = {5.0, 5.0, 5.0, 1.0};
  EXPECT_DOUBLE_EQ(PaperThreshold(scores, 2), 5.0);
  EXPECT_DOUBLE_EQ(PaperThreshold(scores, 3), 3.0);
}

TEST(CollectPositivesTest, MapsPositiveIndices) {
  Rng rng(1);
  SvtOptions o;
  o.epsilon = 1e6;  // negligible noise: deterministic comparisons
  o.cutoff = 10;
  auto mech = SparseVector::Create(o, &rng).value();
  const std::vector<double> scores = {10.0, -10.0, 10.0, -10.0, 10.0};
  const auto selected = CollectPositives(*mech, scores, 0.0);
  EXPECT_EQ(selected, (std::vector<size_t>{0, 2, 4}));
}

TEST(CollectPositivesTest, StopsAtCutoff) {
  Rng rng(2);
  SvtOptions o;
  o.epsilon = 1e6;
  o.cutoff = 2;
  auto mech = SparseVector::Create(o, &rng).value();
  const std::vector<double> scores(10, 100.0);
  const auto selected = CollectPositives(*mech, scores, 0.0);
  EXPECT_EQ(selected, (std::vector<size_t>{0, 1}));
}

// The streaming oracle: the indices a Process() loop over `scores` fires
// on, up to the cutoff.
std::vector<size_t> StreamPositives(SparseVector& mech,
                                    std::span<const double> scores,
                                    double threshold) {
  std::vector<size_t> selected;
  for (size_t i = 0; i < scores.size() && !mech.exhausted(); ++i) {
    if (mech.Process(scores[i], threshold).is_positive()) selected.push_back(i);
  }
  return selected;
}

bool SameState(const Rng::State& a, const Rng::State& b) {
  return a.words == b.words && a.phase == b.phase;
}

TEST(CollectPositivesTest, MatchesProcessLoop) {
  // Lengths 1-17 straddle BatchRunner::kStreamingCutover. A lead of 1-3
  // Process() calls makes the call enter the ν stream mid-lane, so a call
  // of 8 or more streams an alignment head (up to 3 queries) before the
  // engine; the all-fire scores put cutoffs 1-3 inside that head.
  int head_exhausts = 0;
  for (NoiseKind kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
    for (int cutoff : {1, 2, 3, 1 << 20}) {
      VariantSpec spec = MakeAlg1Spec(1.0, 1.0, cutoff);
      spec.rho_kind = kind;
      spec.nu_kind = kind;
      for (bool all_fire : {false, true}) {
        for (size_t lead = 0; lead < 4; ++lead) {
          for (size_t n = 1; n <= 17; ++n) {
            const uint64_t seed = 1000 * lead + n;
            Rng gen(seed), rng_a(seed), rng_b(seed);
            std::vector<double> scores(n);
            for (double& x : scores) {
              x = all_fire ? 1e9 : (gen.NextDouble() - 0.5) * spec.nu_scale;
            }
            SparseVector a(spec, &rng_a), b(spec, &rng_b);
            for (size_t i = 0; i < lead && !a.exhausted(); ++i) {
              a.Process(-1e9, 0.0);
              b.Process(-1e9, 0.0);
            }
            const std::string context =
                std::string(NoiseKindToString(kind)) +
                " cutoff=" + std::to_string(cutoff) +
                " all_fire=" + std::to_string(all_fire) +
                " lead=" + std::to_string(lead) + " n=" + std::to_string(n);
            EXPECT_EQ(CollectPositives(a, scores, 0.0),
                      StreamPositives(b, scores, 0.0))
                << context;
            EXPECT_EQ(a.queries_processed(), b.queries_processed()) << context;
            EXPECT_EQ(a.exhausted(), b.exhausted()) << context;
            EXPECT_TRUE(SameState(rng_a.state(), rng_b.state())) << context;
            if (!a.exhausted()) {
              EXPECT_TRUE(SameState(a.nu_stream_state(), b.nu_stream_state()))
                  << context;
            }
            if (n >= BatchRunner::kStreamingCutover && a.exhausted() &&
                a.queries_processed() <=
                    static_cast<int64_t>(lead) +
                        a.batch_stats().streamed_queries) {
              ++head_exhausts;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(head_exhausts, 0);
}

TEST(SelectTopCWithSvtTest, EndToEnd) {
  Rng rng(3);
  SvtOptions o;
  o.epsilon = 1e5;
  o.cutoff = 3;
  o.monotonic = true;
  std::vector<double> scores(100);
  for (int i = 0; i < 100; ++i) scores[i] = i;
  const double threshold = PaperThreshold(scores, 3);  // between 97 and 96
  const auto selected =
      SelectTopCWithSvt(scores, threshold, o, rng).value();
  // Near-zero noise: the three largest (97, 98, 99) are selected.
  EXPECT_EQ(selected, (std::vector<size_t>{97, 98, 99}));
}

TEST(SelectTopCWithEmTest, EndToEnd) {
  Rng rng(4);
  EmOptions o;
  o.epsilon = 1e5;
  o.num_selections = 3;
  std::vector<double> scores(50);
  for (int i = 0; i < 50; ++i) scores[i] = i;
  const auto selected = SelectTopCWithEm(scores, o, rng).value();
  std::set<size_t> s(selected.begin(), selected.end());
  EXPECT_TRUE(s.count(47) && s.count(48) && s.count(49));
}

TEST(SelectTopCWithSvtTest, PropagatesInvalidOptions) {
  Rng rng(5);
  SvtOptions o;
  o.epsilon = -1.0;
  const std::vector<double> scores = {1.0, 2.0};
  EXPECT_FALSE(SelectTopCWithSvt(scores, 0.0, o, rng).ok());
}

}  // namespace
}  // namespace svt
