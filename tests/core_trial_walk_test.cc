// The trial walker against its oracle (core/trial_walk.h): every lane of
// every group must produce, run for run, the masks and processed counts of
// `SparseVector mech(spec, &lane_rng)` followed by Reset() + RunAppend per
// run on the lane's stream — for every variant, both ν kinds, with and
// without a cutoff, windows on both sides of the short-call cutover,
// non-finite answers and thresholds, and every dispatch level.

#include "core/trial_walk.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vecmath.h"
#include "core/batch_runner.h"
#include "core/response.h"
#include "core/svt_variants.h"
#include "core/variant_spec.h"
#include "dispatch_test_util.h"

namespace svt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr int64_t kGroup = TrialWalker::kGroupTrials;

// The non-finite contract (core/svt.h): when the answer or the threshold
// is not finite, whether the query fires is fixed — never if either is
// NaN, else exactly when the answer is +inf or the threshold is -inf.
std::optional<bool> NonFiniteOutcome(double answer, double threshold) {
  if (std::isfinite(answer) && std::isfinite(threshold)) return std::nullopt;
  if (std::isnan(answer) || std::isnan(threshold)) return false;
  return answer == kInf || threshold == -kInf;
}

struct Walked {
  std::vector<uint64_t> masks;
  std::vector<size_t> processed;
};

// Every group of `trials` trials under `key`, walked in group order,
// `claim` groups per WalkGroups call (0: TrialWalker::GroupsPerWalk).
Walked WalkTrials(const VariantSpec& spec, const std::vector<double>& window,
                  double threshold, uint64_t key, int64_t trials,
                  size_t claim = 0) {
  const size_t mask_words = TrialWalker::MaskWords(window.size());
  if (claim == 0) claim = TrialWalker::GroupsPerWalk(spec, window.size());
  TrialWalker walker(spec, window, threshold);
  Walked out;
  out.masks.resize(static_cast<size_t>(trials) * mask_words);
  out.processed.resize(static_cast<size_t>(trials));
  const int64_t step = static_cast<int64_t>(claim);
  for (int64_t g = 0; g * kGroup < trials; g += step) {
    const size_t runs =
        static_cast<size_t>(std::min(step * kGroup, trials - g * kGroup));
    const size_t first = static_cast<size_t>(g * kGroup);
    walker.WalkGroups(key, g, runs,
                      {out.masks.data() + first * mask_words,
                       runs * mask_words},
                      {out.processed.data() + first, runs});
  }
  return out;
}

// The oracle: each lane's runs through Reset() + RunAppend on its stream.
Walked OracleTrials(const VariantSpec& spec, const std::vector<double>& window,
                    double threshold, uint64_t key, int64_t trials) {
  const size_t mask_words = TrialWalker::MaskWords(window.size());
  Walked out;
  out.masks.assign(static_cast<size_t>(trials) * mask_words, 0);
  out.processed.resize(static_cast<size_t>(trials));
  std::vector<Response> responses;
  for (int64_t g = 0; g * kGroup < trials; ++g) {
    for (size_t lane = 0; lane < TrialWalker::kLanes; ++lane) {
      Rng lane_rng(TrialWalker::LaneSeed(
          key, TrialWalker::kLanes * static_cast<uint64_t>(g) + lane));
      SparseVector mech(spec, &lane_rng);
      for (int64_t t = g * kGroup + static_cast<int64_t>(lane);
           t < std::min(trials, (g + 1) * kGroup);
           t += static_cast<int64_t>(TrialWalker::kLanes)) {
        mech.Reset();
        responses.clear();
        const size_t count = mech.RunAppend(window, threshold, &responses);
        out.processed[t] = count;
        for (size_t i = 0; i < count; ++i) {
          if (responses[i].is_positive()) {
            out.masks[t * mask_words + i / 64] |= uint64_t{1} << i % 64;
          }
        }
      }
    }
  }
  return out;
}

TEST(TrialWalkerTest, LaneSeedsAreTheKeysSplitMixSequence) {
  // Contract step 3: stream s's seed is output s of SplitMix64 from key.
  for (uint64_t key : {uint64_t{0}, uint64_t{2017}, ~uint64_t{0}}) {
    uint64_t state = key;
    for (uint64_t s = 0; s < 40; ++s) {
      EXPECT_EQ(TrialWalker::LaneSeed(key, s), SplitMix64Next(state))
          << "key=" << key << " stream=" << s;
    }
  }
}

TEST(TrialWalkerTest, MaskWordsCoverTheWindow) {
  EXPECT_EQ(TrialWalker::MaskWords(0), 1u);
  EXPECT_EQ(TrialWalker::MaskWords(7), 1u);
  EXPECT_EQ(TrialWalker::MaskWords(64), 1u);
  EXPECT_EQ(TrialWalker::MaskWords(65), 2u);
}

TEST(TrialWalkerTest, MatchesResetRunAppendOnEveryLane) {
  // The ten variants plus three answering positives with ε₃ (Alg. 7; Alg.
  // 2, which draws its resample and then the answer at a positive; Alg. 3,
  // whose q + ν output means it draws no answer), both ν kinds, cutoffs of
  // 1 and 3 and none, windows 0-10 (fixed-stride, lockstep and loop runs
  // all appear, and the cutoff truncates some), with +inf, -inf and NaN
  // answers and thresholds, at every dispatch level. Trial counts leave
  // empty lanes (1, 7), fill a group (256), end on a partial group
  // (2 * 256 + 19), and give the lockstep walk's four-group claims a
  // partial last group (3 * 256 + 19) and more than one claim, with a lone
  // run (4 * 256 + 1) or a whole group (5 * 256) past the first. The other
  // paths walk a group at a time, so only lockstep windows take those.
  std::vector<std::pair<std::string, VariantSpec>> specs;
  for (VariantId id :
       {VariantId::kAlg1, VariantId::kAlg2, VariantId::kAlg3,
        VariantId::kAlg4, VariantId::kAlg5, VariantId::kAlg6,
        VariantId::kGptt, VariantId::kStandard, VariantId::kExpNoise,
        VariantId::kRevisited}) {
    specs.emplace_back(VariantIdToString(id), MakeSpec(id, 1.0, 1.0, 2));
  }
  for (VariantId id :
       {VariantId::kStandard, VariantId::kAlg2, VariantId::kAlg3}) {
    VariantSpec spec = MakeSpec(id, 1.0, 1.0, 2);
    spec.numeric_scale = 2.0;
    specs.emplace_back(std::string(VariantIdToString(id)) + "+eps3", spec);
  }
  const double thresholds[] = {0.0, kInf, -kInf, kNaN};
  const int64_t trial_counts[] = {1,
                                  7,
                                  kGroup,
                                  2 * kGroup + 19,
                                  3 * kGroup + 19,
                                  4 * kGroup + 1,
                                  5 * kGroup};
  const int64_t kMultiClaim = 3 * kGroup;
  ScopedDispatchLevel restore;
  int fixed_stride = 0, lockstep = 0, loop = 0, truncated = 0;
  int non_finite_checked = 0;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (size_t v = 0; v < specs.size(); ++v) {
      for (NoiseKind nu_kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
        for (const std::optional<int> cutoff :
             {std::optional<int>(1), std::optional<int>(3),
              std::optional<int>()}) {
          VariantSpec spec = specs[v].second;
          spec.nu_kind = nu_kind;
          spec.cutoff = cutoff;
          const bool draws_at_positive =
              spec.resample_rho_after_positive ||
              (!spec.output_query_value_on_positive &&
               spec.numeric_scale > 0.0);
          for (size_t n = 0; n <= BatchRunner::kStreamingCutover + 2; ++n) {
            // Answers around the bar, with NaN, +inf and -inf at fixed
            // positions.
            const double scale = std::max(spec.nu_scale, spec.rho_scale);
            std::vector<double> window(n);
            Rng gen(n * 7 + v);
            for (size_t i = 0; i < n; ++i) {
              window[i] = (gen.NextDouble() - 0.6) * 3.0 * scale;
            }
            if (n > 2) window[2] = kNaN;
            if (n > 4) window[4] = kInf;
            if (n > 5) window[5] = -kInf;
            const bool lockstep_window =
                draws_at_positive && n < BatchRunner::kStreamingCutover;
            for (double threshold : thresholds) {
              for (int64_t trials : trial_counts) {
                if (trials > kMultiClaim && !lockstep_window) continue;
                const uint64_t key = 1000 + v * 31 + n * 7 +
                                     static_cast<uint64_t>(trials);
                const Walked got =
                    WalkTrials(spec, window, threshold, key, trials);
                const Walked want =
                    OracleTrials(spec, window, threshold, key, trials);
                const std::string ctx =
                    specs[v].first +
                    (nu_kind == NoiseKind::kLaplace ? " lap" : " exp") +
                    (cutoff ? " cutoff=" + std::to_string(*cutoff)
                            : std::string(" no-cutoff")) +
                    " n=" + std::to_string(n) +
                    " T=" + std::to_string(threshold) +
                    " trials=" + std::to_string(trials) + " " +
                    vec::DispatchLevelName(level);
                ASSERT_EQ(got.processed, want.processed) << ctx;
                ASSERT_EQ(got.masks, want.masks) << ctx;
                for (int64_t t = 0; t < trials; ++t) {
                  if (got.processed[t] < n) ++truncated;
                  for (size_t i = 0; i < got.processed[t]; ++i) {
                    const std::optional<bool> fires =
                        NonFiniteOutcome(window[i], threshold);
                    if (!fires.has_value()) continue;
                    ++non_finite_checked;
                    ASSERT_EQ((got.masks[t] >> i & 1) != 0, *fires)
                        << ctx << " answer=" << window[i];
                  }
                }
              }
              if (n >= BatchRunner::kStreamingCutover) {
                ++loop;
              } else if (lockstep_window) {
                ++lockstep;
              } else {
                ++fixed_stride;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(fixed_stride, 0);
  EXPECT_GT(lockstep, 0);
  EXPECT_GT(loop, 0);
  EXPECT_GT(truncated, 0);
  EXPECT_GT(non_finite_checked, 0);
}

TEST(TrialWalkerTest, AnyGroupsPerWalkGivesTheSameMasks) {
  // A walk's masks depend on the trials alone, not on how many groups each
  // WalkGroups call takes: the lockstep path (Alg. 2, and Alg. 7 with ε₃)
  // steps all of a call's groups together, the others walk them in turn.
  VariantSpec eps3 = MakeSpec(VariantId::kStandard, 1.0, 1.0, 2);
  eps3.numeric_scale = 2.0;
  const std::vector<double> window = {0.5, -0.5, 0.2, 0.9};
  ScopedDispatchLevel restore;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (const VariantSpec& spec :
         {MakeSpec(VariantId::kAlg2, 1.0, 1.0, 2), eps3,
          MakeSpec(VariantId::kAlg1, 1.0, 1.0, 2)}) {
      const int64_t trials = 5 * kGroup + 3;
      const Walked want = OracleTrials(spec, window, 0.0, 9, trials);
      for (size_t claim = 1; claim <= TrialWalker::kMaxWalkGroups; ++claim) {
        const Walked got = WalkTrials(spec, window, 0.0, 9, trials, claim);
        EXPECT_EQ(got.processed, want.processed)
            << spec.name << " claim=" << claim << " "
            << vec::DispatchLevelName(level);
        EXPECT_EQ(got.masks, want.masks)
            << spec.name << " claim=" << claim << " "
            << vec::DispatchLevelName(level);
      }
    }
  }
  EXPECT_EQ(TrialWalker::GroupsPerWalk(eps3, window.size()),
            TrialWalker::kMaxWalkGroups);
  EXPECT_EQ(TrialWalker::GroupsPerWalk(MakeSpec(VariantId::kAlg1, 1.0, 1.0, 2),
                                       window.size()),
            1u);
}

TEST(TrialWalkerTest, MultiWordMasksMatchTheOracle) {
  // Windows past 64 queries take more than one mask word.
  const VariantSpec spec = MakeSpec(VariantId::kAlg2, 1.0, 1.0, 3);
  std::vector<double> window(70);
  Rng gen(3);
  for (double& a : window) a = (gen.NextDouble() - 0.9) * 20.0;
  window[66] = kInf;
  const Walked got = WalkTrials(spec, window, 0.0, 77, kGroup + 3);
  const Walked want = OracleTrials(spec, window, 0.0, 77, kGroup + 3);
  EXPECT_EQ(got.processed, want.processed);
  EXPECT_EQ(got.masks, want.masks);
  EXPECT_TRUE(std::any_of(got.processed.begin(), got.processed.end(),
                          [](size_t p) { return p > 64; }));
}

}  // namespace
}  // namespace svt
