// Short-call crossover sweep: the cost of Reset + one call through the
// batch engine (BatchRunner) against the streaming reference loop
// (SparseVector::Process per query), at call lengths 1-64. This is the
// sweep behind BatchRunner::kStreamingCutover: SparseVector::RunAppend
// streams every call shorter than that constant.
//
// Every row is Alg. 1's noise at the Monte-Carlo audit's parameters
// (ε = 1, Δ = 1, c = 2) with the cutoff removed, so each call processes
// all n queries, for both ν kinds (ρ drawn from the same kind):
//   bottom    every answer far below the bar: ⊥-heavy, the tier-1 skip;
//   near      answers 6 ± 0.5 ν scales under the bar: rare positives;
//   near-rs   near, with ρ redrawn after every positive (Alg. 2 style);
//   dense-rs  answers 2 ± 0.5 ν scales under, ρ redrawn: a positive every
//             ten-odd queries;
//   at-bar    answers within one ν scale of the bar: about half fire.
// The ⊥-dominated rows (bottom, near, near-rs) set the cutover. The
// hit-dense rows are printed for reference: every positive re-enters the
// engine's scan, which costs more than streaming's per-query draw, so
// there the loop wins at every length swept.
//
// Each cell is the best of kReps passes of kTrials calls, engine and
// streaming passes interleaved. A row's crossover is one past the longest
// call the streaming loop still wins; the sweep's cutover is one past the
// longest call it wins on the geometric mean of the setting rows'
// engine/streaming ratios. Informational: always exits 0.
//
//   build/bench_call_crossover

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/distributions.h"
#include "common/rng.h"
#include "core/batch_runner.h"
#include "core/svt.h"
#include "core/variant_spec.h"

namespace {

using svt::NoiseKind;

constexpr size_t kMaxLen = 64;
constexpr int kTrials = 4000;
constexpr int kReps = 5;

struct Row {
  std::string name;
  NoiseKind kind;
  double center;  ///< answers' mean distance from the bar, in ν scales
  double spread;  ///< width of the uniform around it, in ν scales
  bool resample;
  bool sets_cutover;
};

double Noise(svt::Rng& rng, NoiseKind kind, double scale) {
  return kind == NoiseKind::kLaplace ? svt::SampleLaplace(rng, scale)
                                     : svt::SampleExponential(rng, scale);
}

template <typename F>
double NsPerCall(F&& call) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < kTrials; ++t) call();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / kTrials;
}

// Best ns per call, engine and streaming, for one row at lengths
// 1..kMaxLen (index 0 unused).
void SweepRow(const Row& row, std::vector<double>* engine_ns,
              std::vector<double>* stream_ns) {
  svt::VariantSpec spec = svt::MakeAlg1Spec(1.0, 1.0, 2);
  spec.cutoff.reset();
  spec.rho_kind = row.kind;
  spec.nu_kind = row.kind;
  spec.resample_rho_after_positive = row.resample;
  spec.rho_resample_scale = spec.rho_scale;
  svt::Rng stream_rng(1), engine_rng(1);
  svt::SparseVector mech(spec, &stream_rng);

  std::vector<double> answers(kMaxLen);
  svt::Rng gen(7);
  for (double& a : answers) {
    a = (row.center + (gen.NextDouble() - 0.5) * row.spread) * spec.nu_scale;
  }

  svt::SvtRunState state;
  std::vector<svt::Response> out;
  out.reserve(kMaxLen);
  engine_ns->assign(kMaxLen + 1, 1e300);
  stream_ns->assign(kMaxLen + 1, 1e300);
  for (size_t n = 1; n <= kMaxLen; ++n) {
    const std::span<const double> window(answers.data(), n);
    for (int rep = 0; rep < kReps; ++rep) {
      // The engine arm re-derives its run state the way Reset() does.
      const double e = NsPerCall([&] {
        state.rho = Noise(engine_rng, spec.rho_kind, spec.rho_scale);
        state.nu_rng = svt::Rng(engine_rng.NextUint64());
        state.positives = 0;
        state.processed = 0;
        out.clear();
        svt::BatchRunner(spec, &engine_rng, &state).Run(window, 0.0, &out);
      });
      const double s = NsPerCall([&] {
        mech.Reset();
        out.clear();
        for (size_t i = 0; i < n && !mech.exhausted(); ++i) {
          out.push_back(mech.Process(window[i], 0.0));
        }
      });
      (*engine_ns)[n] = std::min((*engine_ns)[n], e);
      (*stream_ns)[n] = std::min((*stream_ns)[n], s);
    }
  }
}

}  // namespace

int main() {
  const std::vector<Row> rows = {
      {"lap-bottom", NoiseKind::kLaplace, -1e6, 0.0, false, true},
      {"lap-near", NoiseKind::kLaplace, -6.0, 1.0, false, true},
      {"lap-near-rs", NoiseKind::kLaplace, -6.0, 1.0, true, true},
      {"lap-dense-rs", NoiseKind::kLaplace, -2.0, 1.0, true, false},
      {"lap-at-bar", NoiseKind::kLaplace, 0.0, 2.0, false, false},
      {"exp-bottom", NoiseKind::kExponential, -1e6, 0.0, false, true},
      {"exp-near", NoiseKind::kExponential, -6.0, 1.0, false, true},
      {"exp-near-rs", NoiseKind::kExponential, -6.0, 1.0, true, true},
      {"exp-dense-rs", NoiseKind::kExponential, -2.0, 1.0, true, false},
      {"exp-at-bar", NoiseKind::kExponential, 0.0, 2.0, false, false},
  };
  std::vector<std::vector<double>> engine(rows.size()), stream(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    SweepRow(rows[r], &engine[r], &stream[r]);
  }

  std::printf("Reset + one call, ns engine/streaming, best of %d x %d\n",
              kReps, kTrials);
  std::printf("%3s", "n");
  for (const Row& row : rows) std::printf(" %12s", row.name.c_str());
  std::printf("\n");
  for (size_t n = 1; n <= kMaxLen; ++n) {
    std::printf("%3zu", n);
    for (size_t r = 0; r < rows.size(); ++r) {
      std::printf("  %5.0f/%5.0f", engine[r][n], stream[r][n]);
    }
    std::printf("\n");
  }

  std::printf("\ncrossover (streaming wins below it):\n");
  for (size_t r = 0; r < rows.size(); ++r) {
    size_t row_cut = 1;
    for (size_t n = 1; n <= kMaxLen; ++n) {
      if (stream[r][n] < engine[r][n]) row_cut = n + 1;
    }
    std::printf("  %-12s %3zu%s\n", rows[r].name.c_str(), row_cut,
                rows[r].sets_cutover ? "" : "  (reference only)");
  }
  size_t cutover = 1;
  for (size_t n = 1; n <= kMaxLen; ++n) {
    double log_ratio = 0.0;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].sets_cutover) {
        log_ratio += std::log(engine[r][n] / stream[r][n]);
      }
    }
    if (log_ratio > 0.0) cutover = n + 1;
  }
  std::printf("sweep cutover %zu; BatchRunner::kStreamingCutover = %zu\n",
              cutover, svt::BatchRunner::kStreamingCutover);
  return 0;
}
