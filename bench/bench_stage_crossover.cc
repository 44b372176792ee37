// Parallel-stage crossover sweep: the cost of one long call through the
// batch engine with its noise stage run ahead on the thread pool, against
// the same call with the stage run inline, at call lengths 2^13-2^20. This
// is the sweep behind BatchRunner::kParallelMinQueries: calls at least
// that long, made outside the pool and outside ParallelFor, run the stage
// ahead.
//
// The rows are the three phases of the repository benchmark's batch_scan
// workload (ε = 0.1, monotonic, no cutoff within the call, Laplace noise):
//   common    one bar 6 ± 0.5 ν scales above the answers, with the score
//             vector's bound prefilter attached: rare positives;
//   perquery  a bar per query, each 6 ± 0.5 ν scales above its answer
//             (answers and bars drawn independently);
//   resample  one bar 4 ± 0.5 ν scales above the answers, ρ redrawn after
//             every positive (Alg. 2 style): a positive every ~100 queries.
// The inline arm makes the identical call from inside a one-slice
// ParallelFor, which keeps the stage on the calling thread. Both arms emit
// the same responses (checked here), so only the time differs. The last
// column is the serial floor the walk keeps: appending n ⊥ responses.
//
// Each cell is the median of kReps calls, the two arms interleaved. The
// sweep's crossover is the shortest length from which running ahead wins
// on the geometric mean of the three rows' ahead/inline ratios at that
// length and every longer one. Informational: always exits 0.
//
//   build/bench_stage_crossover

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/batch_runner.h"
#include "core/svt.h"
#include "data/bound_prefilter.h"

namespace {

constexpr int kMinLog2 = 13;
constexpr int kMaxLog2 = 20;
constexpr int kReps = 15;

struct Row {
  const char* name;
  double center;  ///< answers' mean distance below the bar, in ν scales
  bool per_query;
  bool resample;
  bool prefilter;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Cell {
  double ahead_ns = 0.0;   ///< per query
  double inline_ns = 0.0;  ///< per query
  bool same = true;
};

Cell Measure(const Row& row, size_t n) {
  svt::SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 1 << 30;
  o.monotonic = true;
  o.resample_threshold_noise = row.resample;
  svt::Rng create_rng(1);
  const auto mech = svt::SparseVector::Create(o, &create_rng).value();
  const svt::VariantSpec& spec = mech->spec();
  const double nu = spec.nu_scale;

  svt::Rng gen(11);
  std::vector<double> answers(n), bars(n);
  for (size_t i = 0; i < n; ++i) {
    bars[i] = 8.0 * nu + (row.per_query ? (gen.NextDouble() - 0.5) * nu : 0.0);
    answers[i] = bars[i] + (-row.center + gen.NextDouble() - 0.5) * nu;
  }
  const svt::BoundPrefilter prefilter = svt::BoundPrefilter::Build(answers);

  std::vector<svt::Response> out_ahead, out_inline;
  out_ahead.reserve(n);
  out_inline.reserve(n);
  const auto call = [&](std::vector<svt::Response>* out) {
    svt::SvtRunState state;
    state.rho = 0.25 * nu;
    state.nu_rng = svt::Rng(5);
    svt::Rng base(3);
    out->clear();
    // A threshold of one query puts every call of the sweep through the
    // stage run ahead, unless the caller is inside ParallelFor.
    svt::BatchRunner runner(spec, &base, &state, /*parallel_min_queries=*/1);
    if (row.per_query) {
      runner.Run(answers, bars, out);
    } else {
      runner.Run(answers, 8.0 * nu, row.prefilter ? &prefilter : nullptr,
                 out);
    }
  };
  std::vector<double> ahead, in_line;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    call(&out_ahead);
    ahead.push_back(Seconds(t0));
    t0 = std::chrono::steady_clock::now();
    svt::ParallelFor(1, 1, [&](int64_t, int64_t, int) { call(&out_inline); });
    in_line.push_back(Seconds(t0));
  }
  Cell cell;
  cell.ahead_ns = Median(ahead) * 1e9 / static_cast<double>(n);
  cell.inline_ns = Median(in_line) * 1e9 / static_cast<double>(n);
  cell.same = out_ahead == out_inline;
  return cell;
}

double FillNsPerQuery(size_t n) {
  std::vector<svt::Response> out;
  out.reserve(n);
  std::vector<double> t;
  for (int rep = 0; rep < kReps; ++rep) {
    out.clear();
    const auto t0 = std::chrono::steady_clock::now();
    out.resize(n);
    t.push_back(Seconds(t0));
  }
  return Median(t) * 1e9 / static_cast<double>(n);
}

}  // namespace

int main() {
  const Row rows[] = {
      {"common", 6.0, false, false, true},
      {"perquery", 6.0, true, false, false},
      {"resample", 4.0, false, true, false},
  };
  // Start the pool before timing, so no timed call spawns threads.
  svt::ThreadPool::Global();
  std::printf("ns per query, ahead/inline (median of %d calls); %d pool "
              "threads\n",
              kReps, svt::ThreadPool::Global().size());
  std::printf("%8s", "n");
  for (const Row& row : rows) std::printf(" %16s", row.name);
  std::printf(" %8s %10s\n", "gmean", "fill");
  std::vector<double> gmean;
  bool all_same = true;
  for (int lg = kMinLog2; lg <= kMaxLog2; ++lg) {
    const size_t n = size_t{1} << lg;
    std::printf("%8zu", n);
    double log_ratio = 0.0;
    for (const Row& row : rows) {
      const Cell c = Measure(row, n);
      all_same = all_same && c.same;
      std::printf("      %5.2f/%5.2f", c.ahead_ns, c.inline_ns);
      log_ratio += std::log(c.ahead_ns / c.inline_ns);
    }
    gmean.push_back(std::exp(log_ratio / 3.0));
    std::printf(" %8.2f %10.2f\n", gmean.back(), FillNsPerQuery(n));
  }
  size_t crossover = 0;
  for (int lg = kMaxLog2; lg >= kMinLog2; --lg) {
    if (gmean[static_cast<size_t>(lg - kMinLog2)] >= 1.0) break;
    crossover = size_t{1} << lg;
  }
  if (crossover == 0) {
    std::printf("\nrunning ahead never wins up to 2^%d\n", kMaxLog2);
  } else {
    std::printf("\nsweep crossover %zu; BatchRunner::kParallelMinQueries = "
                "%zu\n",
                crossover, svt::BatchRunner::kParallelMinQueries);
  }
  std::printf("responses %s between the arms\n",
              all_same ? "identical" : "DIFFER");
  return 0;
}
