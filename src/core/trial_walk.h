// Monte-Carlo trial walker: many fresh runs of one short window, each
// reduced to a positive mask and a processed count.
//
// The Monte-Carlo auditor (audit/monte_carlo.h) estimates the probability
// of an indicator pattern by running a mechanism over the pattern's window
// a great many times. It only asks of each run which queries fired and how
// many ran before the cutoff, so the walker answers with a bitmask and a
// count, and below the short-call cutover it never builds a Response.
//
// Trial-group contract (pinned; core_trial_walk_test diffs it against the
// streaming oracle and audit_mc_parallel_test pins the auditor's hits):
//   1. Trials come in groups of kGroupTrials: group g covers trials
//      [kGroupTrials * g, kGroupTrials * (g + 1)).
//   2. A group runs on kLanes lanes, and trial t of the group runs on lane
//      t mod kLanes, after the lane's earlier trials in trial order.
//   3. Lane L of group g under `key` is the stream Rng(LaneSeed(key,
//      kLanes * g + L)): LaneSeed(key, s) is output s (counting from 0) of
//      a SplitMix64 sequence started at `key`, a pure function.
//   4. A lane's runs are bit for bit those of `SparseVector mech(spec,
//      &lane_rng)` followed by `mech.Reset(); mech.RunAppend(window,
//      threshold, &out)` per run. Bit i of a run's mask is set exactly when
//      query i of that run was positive, and its processed count is the
//      number of Responses RunAppend appended.
// So a trial's outcome depends on (key, trial index, spec, window,
// threshold) alone: which thread walks a group, and how many do, cannot
// move a hit.
//
// The walker takes one of three paths, all held to (4). The two
// short-window paths draw a group's base words up front: one
// vec::FillLaneStreams call seeds the group's eight lane streams in
// registers and stores their words row by row, word k of every lane in
// row k, so the words one run of each lane draws sit side by side.
//   * Fixed stride (windows shorter than BatchRunner::kStreamingCutover,
//     specs that draw nothing from the base stream at a positive): every
//     run consumes the same base words, its ρ variate then its ν seed word
//     (draw-order contract step 1, core/svt.h), so the group's runs read
//     whole rows: lane L's run i reads lane L's column of the rows after
//     the oracle's constructor draw and its i earlier runs. One ρ transform
//     over the group's runs gives each run its bar, threshold + ρ. Then one
//     vec::SeededFireMasks call gives every run a SIMD element: it seeds
//     the run's ν substream, draws and transforms its variates and
//     compares them against the bar in registers, and emits the run's fire
//     mask.
//   * Lockstep (short windows of specs that resample ρ or answer positives
//     with ε₃ noise: Alg. 2, RevSVT, ε₃ answers): a run's base words depend
//     on how often it fired, so the lanes step one run at a time, each
//     from a cursor into its own column. A step takes up to kMaxWalkGroups
//     groups' lanes at once, so one kernel call covers their 32 runs. A
//     run's words are its ρ and seed, then a fixed number per positive (the
//     resample, then the ε₃ answer, which no mask depends on), so the
//     resample after its k-th positive sits at a fixed offset from its
//     start, and a lane's columns are filled for every run at its most
//     positives. A step gathers every lane's ρ, seed and reachable
//     resamples for one ρ transform and one resample transform, then makes
//     one SeededFireMasks call with one bar per reachable resample: bar k
//     is threshold + the resample after positive k (bar 0 threshold + ρ).
//     It then moves each lane's cursor past the words its positives drew.
//   * Loop (windows of kStreamingCutover queries or more): the lane runs
//     the oracle of (4) itself, Reset() + RunAppend on its stream.
// Both short-window paths reduce the fire masks to Process()'s positives
// with bit operations run across all runs at once: a run's next positive
// is the lowest query after its last one that fires against the bar in
// force, and its processed count is the exhausting positive's index + 1.
// Every variate goes through the dispatched vecmath kernels, which equal
// the scalar draws bit for bit at every dispatch level (contract step 4),
// so neither the path nor the dispatch level moves a mask.

#ifndef SPARSEVEC_CORE_TRIAL_WALK_H_
#define SPARSEVEC_CORE_TRIAL_WALK_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/response.h"
#include "core/variant_spec.h"

namespace svt {

class TrialWalker {
 public:
  /// Lanes per trial group (contract step 2): one vec::FillLaneStreams
  /// call's streams.
  static constexpr size_t kLanes = 8;

  /// Trials per group (contract step 1).
  static constexpr int64_t kGroupTrials = 256;

  /// Groups one WalkGroups call can take. The lockstep path steps all
  /// their lanes at once: 32 runs, four AVX-512 vectors, per kernel call.
  static constexpr size_t kMaxWalkGroups = 4;

  /// Groups a WalkGroups call on `spec` over a window of `window` queries
  /// should take: kMaxWalkGroups on the lockstep path, 1 on the paths that
  /// walk a group at a time. Any count gives the same masks.
  static size_t GroupsPerWalk(const VariantSpec& spec, size_t window);

  /// Seed of lane stream `stream` = kLanes * group + lane under `key`
  /// (contract step 3).
  static uint64_t LaneSeed(uint64_t key, uint64_t stream);

  /// 64-bit words in one run's mask over a window of `window` queries:
  /// ⌈window / 64⌉, at least 1. Query i is bit i % 64 of word i / 64.
  static size_t MaskWords(size_t window);

  /// A walker for `spec` over `window` against a common `threshold`. The
  /// spec and the window must outlive it. Aborts unless spec.Validate()
  /// passes, as the SparseVector constructor does, whichever path the
  /// window takes. Holds its scratch, so one walker per thread.
  TrialWalker(const VariantSpec& spec, std::span<const double> window,
              double threshold);

  /// Walks trials [kGroupTrials * first_group, kGroupTrials * first_group
  /// + runs) of the trial sequence under `key`: the groups from
  /// first_group on, every one whole but the last, 0 < runs <=
  /// kMaxWalkGroups * kGroupTrials. Run r's mask goes to
  /// masks[r * MaskWords(window) ...] and its processed count to
  /// processed[r]; masks holds runs * MaskWords(window) words and processed
  /// holds runs counts.
  void WalkGroups(uint64_t key, int64_t first_group, size_t runs,
                  std::span<uint64_t> masks, std::span<size_t> processed);

 private:
  enum class Path { kFixedStride, kLockstep, kLoop };

  /// The path a window of n queries takes, and the base words a positive
  /// of `spec` draws.
  static Path PathFor(const VariantSpec& spec, size_t n);
  static size_t PositiveWords(const VariantSpec& spec);

  // One group of `runs` runs from masks and processed on (the fixed-stride
  // and loop paths), or up to kMaxWalkGroups groups (lockstep).
  void WalkFixedStride(uint64_t key, uint64_t group, size_t runs,
                       uint64_t* masks, size_t* processed);
  void WalkLockstep(uint64_t key, uint64_t first_group, size_t runs,
                    uint64_t* masks, size_t* processed);
  void WalkLoop(uint64_t key, uint64_t group, size_t runs, uint64_t* masks,
                size_t* processed);

  /// The first `words` words of each of group `group`'s lane streams, at
  /// `at` in FillLaneStreams' rows.
  void FillGroup(uint64_t key, uint64_t group, size_t words, uint64_t* at);

  const VariantSpec& spec_;
  std::span<const double> window_;
  double threshold_;
  Path path_;
  size_t rho_words_;    ///< words per ρ variate
  size_t stride_;       ///< words every run draws first: ρ, then ν seed
  size_t nu_wpv_;       ///< words per ν variate (0 without ν)
  size_t reach_ = 0;    ///< positives a run can reach
  uint64_t exhaust_ = 0;  ///< all ones when the reach-th positive exhausts
  size_t positive_words_ = 0;  ///< base words a positive draws
  size_t resamples_ = 0;  ///< resamples a lockstep run can compare against

  // The lane streams' words in FillLaneStreams' rows, one block of
  // lane_rows_ rows per group a call walks at once. A lockstep lane reads
  // its column from a cursor, in words.
  std::vector<uint64_t> lane_words_;
  size_t lane_rows_ = 0;
  std::array<size_t, kMaxWalkGroups * kLanes> cursor_{};

  // Per-run scratch for one kernel call: ρ and resample words, ν seeds,
  // and one row of bars and fire masks per bar a run compares against.
  std::vector<uint64_t> rho_w_;
  std::vector<uint64_t> seeds_;
  std::vector<uint64_t> resample_w_;
  std::vector<double> bars_;
  std::vector<uint64_t> fires_;
  // A lockstep step's masks and processed counts, lane by lane.
  std::array<uint64_t, kMaxWalkGroups * kLanes> step_masks_{};
  std::array<size_t, kMaxWalkGroups * kLanes> step_processed_{};
  std::vector<Response> responses_;
};

}  // namespace svt

#endif  // SPARSEVEC_CORE_TRIAL_WALK_H_
