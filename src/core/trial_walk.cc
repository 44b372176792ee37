#include "core/trial_walk.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/check.h"
#include "common/vecmath.h"
#include "core/batch_runner.h"
#include "core/svt.h"

namespace svt {

namespace {

constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

// Words the lockstep path keeps prefetched per lane. A run draws at most a
// ρ variate, a seed word and, at each of its fewer than kStreamingCutover
// positives, a resampled ρ and an ε₃ answer: 3 + 7 * 4 = 31 words.
constexpr size_t kLockstepLaneWords = 256;

// Copies one variate's words (one or two): a runtime-length copy_n would
// call memmove for every run.
void CopyVariate(const uint64_t* from, size_t words, uint64_t* to) {
  to[0] = from[0];
  if (words == 2) to[1] = from[1];
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
      rho_words_(WordsPerVariate(spec.rho_kind)),
      stride_(rho_words_ + 1),
      nu_wpv_(spec.nu_scale > 0.0 ? WordsPerVariate(spec.nu_kind) : 0) {
  const Status valid = spec.Validate();
  SVT_CHECK(valid.ok()) << spec.name << ": " << valid.message();
  const size_t n = window.size();
  reach_ = Reach(spec.cutoff, n);
  // The reach-th positive exhausts a run when the cutoff fits the window.
  if (spec.cutoff.has_value() &&
      static_cast<size_t>(std::max(*spec.cutoff, 1)) <= n) {
    exhaust_ = ~uint64_t{0};
  }
  // Base words a positive draws (contract step 3): a resampled ρ, then an
  // ε₃ answer, which is always Laplace.
  const bool eps3 =
      !spec.output_query_value_on_positive && spec.numeric_scale > 0.0;
  positive_words_ =
      (spec.resample_rho_after_positive ? rho_words_ : 0) + (eps3 ? 2 : 0);
  size_t runs_per_pass = 0;  // runs one kernel call covers
  if (n >= BatchRunner::kStreamingCutover) {
    path_ = Path::kLoop;
  } else if (positive_words_ > 0) {
    path_ = Path::kLockstep;
    lane_capacity_ = kLockstepLaneWords;
    runs_per_pass = kLanes;
    // A run compares against the resample after each of its positives
    // but the last it can reach.
    if (spec.resample_rho_after_positive) {
      resamples_ = std::max<size_t>(reach_, 1) - 1;
    }
  } else {
    path_ = Path::kFixedStride;
    // The oracle's constructor draw, then every run of the lane.
    lane_capacity_ = (kGroupTrials / kLanes + 1) * stride_;
    runs_per_pass = kGroupTrials;
  }
  lane_words_.resize(kLanes * lane_capacity_);
  rho_w_.resize(runs_per_pass * rho_words_);
  seeds_.resize(runs_per_pass);
  resample_w_.resize(runs_per_pass * resamples_ * rho_words_);
  bars_.resize(runs_per_pass * (resamples_ + 1));
  fires_.resize(bars_.size());
}

void TrialWalker::WalkGroup(uint64_t key, int64_t group, size_t runs,
                            std::span<uint64_t> masks,
                            std::span<size_t> processed) {
  SVT_CHECK(group >= 0 && runs > 0 &&
            runs <= static_cast<size_t>(kGroupTrials))
      << "WalkGroup needs group >= 0 and 0 < runs <= " << kGroupTrials
      << ", got group " << group << ", runs " << runs;
  SVT_CHECK(masks.size() == runs * MaskWords(window_.size()) &&
            processed.size() == runs)
      << "WalkGroup output sized " << masks.size() << " masks, "
      << processed.size() << " counts for " << runs << " runs";
  runs_ = runs;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    lane_runs_[lane] = (runs + kLanes - 1 - lane) / kLanes;
    if (lane_runs_[lane] > 0) {
      lane_rng_[lane] =
          Rng(LaneSeed(key, kLanes * static_cast<uint64_t>(group) + lane));
    }
  }
  switch (path_) {
    case Path::kFixedStride:
      WalkFixedStride(masks, processed);
      break;
    case Path::kLockstep:
      WalkLockstep(masks, processed);
      break;
    case Path::kLoop:
      WalkLoop(masks, processed);
      break;
  }
}

void TrialWalker::WalkFixedStride(std::span<uint64_t> masks,
                                  std::span<size_t> processed) {
  for (size_t lane = 0; lane < kLanes && lane_runs_[lane] > 0; ++lane) {
    lane_rng_[lane].FillUint64({lane_words_.data() + lane * lane_capacity_,
                                (lane_runs_[lane] + 1) * stride_});
  }
  // Run t is lane t % kLanes's run t / kLanes, whose words follow the
  // oracle's constructor draw (one stride) and the lane's earlier runs.
  for (size_t t = 0; t < runs_; ++t) {
    const uint64_t* w = lane_words_.data() + (t % kLanes) * lane_capacity_ +
                        (t / kLanes + 1) * stride_;
    CopyVariate(w, rho_words_, rho_w_.data() + t * rho_words_);
    seeds_[t] = w[rho_words_];
  }
  // Each run's bar is threshold + ρ.
  TransformNoise(spec_.rho_kind, spec_.rho_scale,
                 {rho_w_.data(), runs_ * rho_words_}, {bars_.data(), runs_});
  for (size_t t = 0; t < runs_; ++t) bars_[t] = threshold_ + bars_[t];
  vec::SeededFireMasks({seeds_.data(), nu_wpv_ > 0 ? runs_ : 0}, nu_wpv_,
                       spec_.nu_scale, window_, 1, {bars_.data(), runs_},
                       {fires_.data(), runs_});
  ReduceRuns(fires_.data(), 1, runs_, reach_, exhaust_, window_.size(),
             masks.data(), processed.data());
}

void TrialWalker::Refill(size_t lane, size_t need) {
  uint64_t* words = lane_words_.data() + lane * lane_capacity_;
  const size_t left = filled_[lane] - cursor_[lane];
  if (left >= need) return;
  std::copy(words + cursor_[lane], words + filled_[lane], words);
  lane_rng_[lane].FillUint64({words + left, lane_capacity_ - left});
  cursor_[lane] = 0;
  filled_[lane] = lane_capacity_;
}

void TrialWalker::WalkLockstep(std::span<uint64_t> masks,
                               std::span<size_t> processed) {
  const size_t run_words = stride_ + window_.size() * positive_words_;
  const size_t rows = resamples_ + 1;
  for (size_t lane = 0; lane < kLanes && lane_runs_[lane] > 0; ++lane) {
    // Skip the oracle's constructor draw.
    cursor_[lane] = 0;
    filled_[lane] = 0;
    Refill(lane, stride_ + run_words);
    cursor_[lane] = stride_;
  }
  for (size_t step = 0; step < lane_runs_[0]; ++step) {
    const size_t active = std::min(kLanes, runs_ - step * kLanes);
    // Each lane's run starts at its cursor: ρ, the ν seed, then the words
    // of its positives in order, so the resample after its k-th positive
    // sits at a fixed offset whatever queries fire. Resample k of every
    // lane lands in bar row k + 1.
    for (size_t lane = 0; lane < active; ++lane) {
      Refill(lane, run_words);
      const uint64_t* w =
          lane_words_.data() + lane * lane_capacity_ + cursor_[lane];
      CopyVariate(w, rho_words_, rho_w_.data() + lane * rho_words_);
      seeds_[lane] = w[rho_words_];
      for (size_t k = 0; k < resamples_; ++k) {
        CopyVariate(w + stride_ + k * positive_words_, rho_words_,
                    resample_w_.data() + (k * active + lane) * rho_words_);
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
    uint64_t* step_masks = masks.data() + step * kLanes;
    ReduceRuns(fires_.data(), rows, active, reach_, exhaust_, window_.size(),
               step_masks, processed.data() + step * kLanes);
    // Every positive drew its words, the exhausting one included.
    for (size_t lane = 0; lane < active; ++lane) {
      const size_t positives =
          static_cast<size_t>(std::popcount(step_masks[lane]));
      cursor_[lane] += stride_ + positives * positive_words_;
    }
  }
}

void TrialWalker::WalkLoop(std::span<uint64_t> masks,
                           std::span<size_t> processed) {
  const size_t mask_words = MaskWords(window_.size());
  std::fill(masks.begin(), masks.end(), 0);
  for (size_t lane = 0; lane < kLanes && lane_runs_[lane] > 0; ++lane) {
    SparseVector mech(spec_, &lane_rng_[lane]);
    for (size_t t = lane; t < runs_; t += kLanes) {
      mech.Reset();
      responses_.clear();
      const size_t count = mech.RunAppend(window_, threshold_, &responses_);
      uint64_t* mask = masks.data() + t * mask_words;
      for (size_t i = 0; i < count; ++i) {
        if (responses_[i].is_positive()) mask[i / 64] |= uint64_t{1} << i % 64;
      }
      processed[t] = count;
    }
  }
}

}  // namespace svt
