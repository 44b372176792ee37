#include "core/trial_walk.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/check.h"
#include "common/rng.h"
#include "common/vecmath.h"
#include "core/batch_runner.h"
#include "core/svt.h"

namespace svt {

namespace {

constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;
constexpr size_t kLanes = TrialWalker::kLanes;
constexpr size_t kLaneRuns = TrialWalker::kGroupTrials / kLanes;
static_assert(kLanes == vec::kLaneStreams);

// Copies one variate's words (one or two) from a lane's column, whose
// words lie kLanes apart: a runtime-length copy would call memmove for
// every run.
void CopyVariate(const uint64_t* from, size_t words, uint64_t* to) {
  to[0] = from[0];
  if (words == 2) to[1] = from[kLanes];
}

// Positives in a short window's mask: a byte's SWAR bit count. The
// library targets baseline x86-64, where std::popcount is a libgcc call.
size_t Positives(uint64_t mask) {
  static_assert(BatchRunner::kStreamingCutover <= 8);
  mask -= (mask >> 1) & 0x55;
  mask = (mask & 0x33) + ((mask >> 2) & 0x33);
  return static_cast<size_t>((mask + (mask >> 4)) & 0x0F);
}

// Positives the run can reach: one per query, and the cutoff-th ends it
// (Process() exhausts at the first positive for a cutoff below 1).
size_t Reach(std::optional<int> cutoff, size_t n) {
  return cutoff.has_value()
             ? std::min(n, static_cast<size_t>(std::max(*cutoff, 1)))
             : n;
}

// Process() over `runs` runs of a window of n < 64 queries, from their fire
// masks: fires[k * runs + r] is run r's mask against the bar in force after
// its k-th positive, for k < rows (row rows - 1 stays in force after that).
// A run's next positive is the lowest query after its last one that fires
// against the bar then in force, and the reach-th positive exhausts it
// when `exhaust` is all ones. Run r's mask goes to masks[r] and its
// processed count to processed[r]. Whether a query fires is a coin flip no
// branch predictor can learn, so the walk is bit operations on the masks,
// with a trip count fixed by the spec and the window, and each step runs
// across all runs at once, which the compiler vectorizes.
void ReduceRuns(const uint64_t* fires, size_t rows, size_t runs, size_t reach,
                uint64_t exhaust, size_t n, uint64_t* masks,
                size_t* processed) {
  // Until the last step, processed[r] holds the mask of run r's queries
  // after its last positive.
  static_assert(sizeof(size_t) == sizeof(uint64_t));
  size_t* later = processed;
  std::fill_n(masks, runs, 0);
  std::fill_n(later, runs, ~size_t{0});
  for (size_t k = 0; k < reach; ++k) {
    const uint64_t* row = fires + std::min(k, rows - 1) * runs;
    for (size_t r = 0; r < runs; ++r) {
      uint64_t last = row[r] & later[r];
      last &= 0 - last;  // the lowest such query, or 0: no more positives
      masks[r] |= last;
      later[r] = 0 - (last << 1);
    }
  }
  // Once a run finds no positive, its `later` stays 0; a run that found its
  // reach-th positive at query i has `later` lowest bit i + 1, which is
  // its processed count if that positive exhausted it. Bit n keeps the
  // count at n otherwise.
  for (size_t r = 0; r < runs; ++r) {
    processed[r] = static_cast<size_t>(
        std::countr_zero((later[r] & exhaust) | uint64_t{1} << n));
  }
}

}  // namespace

size_t TrialWalker::PositiveWords(const VariantSpec& spec) {
  // Contract step 3: a resampled ρ, then an ε₃ answer, which is always
  // Laplace.
  const bool eps3 =
      !spec.output_query_value_on_positive && spec.numeric_scale > 0.0;
  return (spec.resample_rho_after_positive ? WordsPerVariate(spec.rho_kind)
                                           : 0) +
         (eps3 ? 2 : 0);
}

TrialWalker::Path TrialWalker::PathFor(const VariantSpec& spec, size_t n) {
  if (n >= BatchRunner::kStreamingCutover) return Path::kLoop;
  return PositiveWords(spec) > 0 ? Path::kLockstep : Path::kFixedStride;
}

size_t TrialWalker::GroupsPerWalk(const VariantSpec& spec, size_t window) {
  return PathFor(spec, window) == Path::kLockstep ? kMaxWalkGroups : 1;
}

uint64_t TrialWalker::LaneSeed(uint64_t key, uint64_t stream) {
  uint64_t state = key + stream * kSplitMixGamma;
  return SplitMix64Next(state);
}

size_t TrialWalker::MaskWords(size_t window) {
  return std::max<size_t>(1, (window + 63) / 64);
}

TrialWalker::TrialWalker(const VariantSpec& spec,
                         std::span<const double> window, double threshold)
    : spec_(spec),
      window_(window),
      threshold_(threshold),
      path_(PathFor(spec, window.size())),
      rho_words_(WordsPerVariate(spec.rho_kind)),
      stride_(rho_words_ + 1),
      nu_wpv_(spec.nu_scale > 0.0 ? WordsPerVariate(spec.nu_kind) : 0),
      positive_words_(PositiveWords(spec)) {
  const Status valid = spec.Validate();
  SVT_CHECK(valid.ok()) << spec.name << ": " << valid.message();
  const size_t n = window.size();
  reach_ = Reach(spec.cutoff, n);
  // The reach-th positive exhausts a run when the cutoff fits the window.
  if (spec.cutoff.has_value() &&
      static_cast<size_t>(std::max(*spec.cutoff, 1)) <= n) {
    exhaust_ = ~uint64_t{0};
  }
  size_t runs_per_pass = 0;  // runs one kernel call covers
  if (path_ == Path::kLockstep) {
    // The oracle's constructor draw, then every run of a lane at its most
    // positives.
    lane_rows_ = stride_ + kLaneRuns * (stride_ + reach_ * positive_words_);
    lane_words_.resize(kMaxWalkGroups * kLanes * lane_rows_);
    runs_per_pass = kMaxWalkGroups * kLanes;
    // A run compares against the resample after each of its positives
    // but the last it can reach.
    if (spec.resample_rho_after_positive) {
      resamples_ = std::max<size_t>(reach_, 1) - 1;
    }
  } else if (path_ == Path::kFixedStride) {
    // The oracle's constructor draw, then every run of the lane.
    lane_rows_ = (kLaneRuns + 1) * stride_;
    lane_words_.resize(kLanes * lane_rows_);
    runs_per_pass = kGroupTrials;
  }
  rho_w_.resize(runs_per_pass * rho_words_);
  seeds_.resize(runs_per_pass);
  resample_w_.resize(runs_per_pass * resamples_ * rho_words_);
  bars_.resize(runs_per_pass * (resamples_ + 1));
  fires_.resize(bars_.size());
}

void TrialWalker::WalkGroups(uint64_t key, int64_t first_group, size_t runs,
                             std::span<uint64_t> masks,
                             std::span<size_t> processed) {
  constexpr size_t kMaxRuns = kMaxWalkGroups * kGroupTrials;
  SVT_CHECK(first_group >= 0 && runs > 0 && runs <= kMaxRuns)
      << "WalkGroups needs first_group >= 0 and 0 < runs <= " << kMaxRuns
      << ", got first_group " << first_group << ", runs " << runs;
  const size_t mask_words = MaskWords(window_.size());
  SVT_CHECK(masks.size() == runs * mask_words && processed.size() == runs)
      << "WalkGroups output sized " << masks.size() << " masks, "
      << processed.size() << " counts for " << runs << " runs";
  const uint64_t first = static_cast<uint64_t>(first_group);
  if (path_ == Path::kLockstep) {
    WalkLockstep(key, first, runs, masks.data(), processed.data());
    return;
  }
  for (size_t done = 0; done < runs; done += kGroupTrials) {
    const uint64_t group = first + done / kGroupTrials;
    const size_t group_runs =
        std::min(runs - done, static_cast<size_t>(kGroupTrials));
    if (path_ == Path::kFixedStride) {
      WalkFixedStride(key, group, group_runs,
                      masks.data() + done * mask_words,
                      processed.data() + done);
    } else {
      WalkLoop(key, group, group_runs, masks.data() + done * mask_words,
               processed.data() + done);
    }
  }
}

void TrialWalker::FillGroup(uint64_t key, uint64_t group, size_t words,
                            uint64_t* at) {
  std::array<uint64_t, kLanes> seeds;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    seeds[lane] = LaneSeed(key, kLanes * group + lane);
  }
  vec::FillLaneStreams(seeds, words, {at, kLanes * words});
}

void TrialWalker::WalkFixedStride(uint64_t key, uint64_t group, size_t runs,
                                  uint64_t* masks, size_t* processed) {
  // Lane L's run i is run kLanes * i + L, and reads row (i + 1) * stride_
  // on: the oracle's constructor draw and the lane's earlier runs precede
  // it. So the kLanes runs of step i read whole rows.
  const size_t steps = (runs + kLanes - 1) / kLanes;
  FillGroup(key, group, (steps + 1) * stride_, lane_words_.data());
  for (size_t i = 0; i < steps; ++i) {
    const uint64_t* row = lane_words_.data() + (i + 1) * stride_ * kLanes;
    uint64_t* rho = rho_w_.data() + i * kLanes * rho_words_;
    if (rho_words_ == 2) {
      for (size_t lane = 0; lane < kLanes; ++lane) {
        rho[2 * lane] = row[lane];
        rho[2 * lane + 1] = row[kLanes + lane];
      }
    } else {
      std::copy_n(row, kLanes, rho);
    }
    std::copy_n(row + rho_words_ * kLanes, kLanes,
                seeds_.data() + i * kLanes);
  }
  // Each run's bar is threshold + ρ.
  TransformNoise(spec_.rho_kind, spec_.rho_scale,
                 {rho_w_.data(), runs * rho_words_}, {bars_.data(), runs});
  for (size_t t = 0; t < runs; ++t) bars_[t] = threshold_ + bars_[t];
  vec::SeededFireMasks({seeds_.data(), nu_wpv_ > 0 ? runs : 0}, nu_wpv_,
                       spec_.nu_scale, window_, 1, {bars_.data(), runs},
                       {fires_.data(), runs});
  ReduceRuns(fires_.data(), 1, runs, reach_, exhaust_, window_.size(), masks,
             processed);
}

void TrialWalker::WalkLockstep(uint64_t key, uint64_t first_group,
                               size_t runs, uint64_t* masks,
                               size_t* processed) {
  // Lane s is lane s % kLanes of group first_group + s / kLanes; its
  // column starts at column(s) and holds a word every kLanes.
  const size_t groups = (runs + kGroupTrials - 1) / kGroupTrials;
  const size_t last_runs = runs - (groups - 1) * kGroupTrials;
  const size_t group_words = kLanes * lane_rows_;
  const auto column = [&](size_t s) {
    return lane_words_.data() + s / kLanes * group_words + s % kLanes;
  };
  // A group's first lane has the most runs: one per step.
  const size_t steps =
      (std::min(runs, static_cast<size_t>(kGroupTrials)) + kLanes - 1) /
      kLanes;
  const size_t fill_rows =
      stride_ + steps * (stride_ + reach_ * positive_words_);
  for (size_t g = 0; g < groups; ++g) {
    FillGroup(key, first_group + g, fill_rows,
              lane_words_.data() + g * group_words);
  }
  // Skip the oracle's constructor draw.
  std::fill_n(cursor_.begin(), groups * kLanes, stride_);
  const size_t rows = resamples_ + 1;
  for (size_t step = 0; step < steps; ++step) {
    // Every group but the last is whole, so the lanes with a run at this
    // step are a prefix.
    const size_t last_active =
        last_runs > step * kLanes
            ? std::min(kLanes, last_runs - step * kLanes)
            : 0;
    const size_t active = (groups - 1) * kLanes + last_active;
    // Each lane's run starts at its cursor: ρ, the ν seed, then the words
    // of its positives in order, so the resample after its k-th positive
    // sits at a fixed offset whatever queries fire. Resample k of every
    // lane lands in bar row k + 1.
    for (size_t s = 0; s < active; ++s) {
      const uint64_t* w = column(s) + cursor_[s] * kLanes;
      CopyVariate(w, rho_words_, rho_w_.data() + s * rho_words_);
      seeds_[s] = w[rho_words_ * kLanes];
      for (size_t k = 0; k < resamples_; ++k) {
        CopyVariate(w + (stride_ + k * positive_words_) * kLanes, rho_words_,
                    resample_w_.data() + (k * active + s) * rho_words_);
      }
    }
    TransformNoise(spec_.rho_kind, spec_.rho_scale,
                   {rho_w_.data(), active * rho_words_},
                   {bars_.data(), active});
    if (resamples_ > 0) {
      TransformNoise(spec_.rho_kind, spec_.rho_resample_scale,
                     {resample_w_.data(), active * resamples_ * rho_words_},
                     {bars_.data() + active, active * resamples_});
    }
    for (size_t i = 0; i < rows * active; ++i) {
      bars_[i] = threshold_ + bars_[i];
    }
    vec::SeededFireMasks({seeds_.data(), nu_wpv_ > 0 ? active : 0}, nu_wpv_,
                         spec_.nu_scale, window_, rows,
                         {bars_.data(), rows * active},
                         {fires_.data(), rows * active});
    ReduceRuns(fires_.data(), rows, active, reach_, exhaust_, window_.size(),
               step_masks_.data(), step_processed_.data());
    // Lane s's run is trial s / kLanes * kGroupTrials + step * kLanes +
    // s % kLanes of the call, and every positive drew its words, the
    // exhausting one included.
    for (size_t s = 0; s < active; ++s) {
      const size_t t = s / kLanes * kGroupTrials + step * kLanes + s % kLanes;
      masks[t] = step_masks_[s];
      processed[t] = step_processed_[s];
      cursor_[s] += stride_ + Positives(step_masks_[s]) * positive_words_;
    }
  }
}

void TrialWalker::WalkLoop(uint64_t key, uint64_t group, size_t runs,
                           uint64_t* masks, size_t* processed) {
  const size_t mask_words = MaskWords(window_.size());
  std::fill_n(masks, runs * mask_words, 0);
  for (size_t lane = 0; lane < kLanes && lane < runs; ++lane) {
    Rng lane_rng(LaneSeed(key, kLanes * group + lane));
    SparseVector mech(spec_, &lane_rng);
    for (size_t t = lane; t < runs; t += kLanes) {
      mech.Reset();
      responses_.clear();
      const size_t count = mech.RunAppend(window_, threshold_, &responses_);
      uint64_t* mask = masks + t * mask_words;
      for (size_t i = 0; i < count; ++i) {
        if (responses_[i].is_positive()) mask[i / 64] |= uint64_t{1} << i % 64;
      }
      processed[t] = count;
    }
  }
}

}  // namespace svt
