// Standalone micro-benchmark for the vecmath kernel family: libm baseline
// vs the scalar reference lane vs the dispatched block kernels, at every
// dispatch level this host supports (scalar / AVX2 / AVX-512). Also times
// the fused Laplace and exponential transforms (the batch engine's tier-2
// ν materialization for either noise kind), the lockstep block RNG behind
// every Fill/SampleBlock path, and the per-query-threshold scan.
//
// Informational (always exits 0): the hard acceptance number — tier-2
// batch throughput — lives in bench_micro's BM_SvtRunBatchNearThreshold
// and is recorded in BENCH_micro.json. CI smoke-runs this binary at both
// dispatch levels to keep the kernels and the dispatch plumbing honest.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/distributions.h"
#include "common/rng.h"
#include "common/vecmath.h"

namespace {

using svt::Rng;

template <typename F>
double BestNsPerElem(F&& f, size_t n, int reps = 9) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best / static_cast<double>(n) * 1e9;
}

volatile double g_sink;

}  // namespace

int main() {
  using namespace svt::vec;
  constexpr size_t kN = 1 << 16;

  std::printf("vecmath micro-benchmark (%zu elements/pass, %u hw threads)\n",
              kN, std::thread::hardware_concurrency());
  std::printf("supported levels: scalar%s%s\n",
              DispatchLevelSupported(DispatchLevel::kAvx2) ? " avx2" : "",
              DispatchLevelSupported(DispatchLevel::kAvx512) ? " avx512" : "");
  std::printf("active level at startup: %s\n\n",
              DispatchLevelName(ActiveDispatchLevel()));

  Rng rng(1);
  std::vector<double> u(kN), out(kN);
  std::vector<uint64_t> words(2 * kN);
  rng.FillUint64({words.data(), kN});
  std::transform(words.begin(), words.begin() + kN, u.begin(),
                 Rng::ToUnitDoublePositive);
  rng.FillUint64(words);

  const double libm_log = BestNsPerElem(
      [&] {
        for (size_t i = 0; i < kN; ++i) out[i] = std::log(u[i]);
        g_sink = out[kN / 2];
      },
      kN);
  const double scalar_log = BestNsPerElem(
      [&] {
        for (size_t i = 0; i < kN; ++i) out[i] = Log(u[i]);
        g_sink = out[kN / 2];
      },
      kN);
  std::printf("log:  libm %.2f ns/elem | vec::Log scalar %.2f ns/elem\n",
              libm_log, scalar_log);

  const svt::Laplace lap(0.0, 2.0);
  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    const char* name = DispatchLevelName(level);
    const double log_block = BestNsPerElem(
        [&] {
          LogBlock(u, out);
          g_sink = out[kN / 2];
        },
        kN);
    // The exponential-noise engine's ν transform, one word per variate.
    const double exp_tf = BestNsPerElem(
        [&] {
          ExponentialTransformBlock({words.data(), kN}, 1.75, out);
          g_sink = out[kN / 2];
        },
        kN);
    const double lap_tf = BestNsPerElem(
        [&] {
          lap.TransformBlock(words, out);
          g_sink = out[kN / 2];
        },
        kN);
    const double lap_sample = BestNsPerElem(
        [&] {
          lap.SampleBlock(rng, out);
          g_sink = out[kN / 2];
        },
        kN);
    // Lockstep block RNG (feeds every SampleBlock path).
    std::vector<uint64_t> rng_buf(kN);
    Rng fill_rng(3);
    const double rng_fill = BestNsPerElem(
        [&] {
          fill_rng.FillUint64(rng_buf);
          g_sink = static_cast<double>(rng_buf[kN / 2] >> 12);
        },
        kN);
    // Pairwise per-query-threshold scan over a no-match stream (the
    // ⊥-dominated regime the batch engine scans in).
    std::vector<double> bars(kN, 1e9);
    const double pairwise = BestNsPerElem(
        [&] {
          g_sink = static_cast<double>(
              FindFirstGe({u.data(), kN}, {out.data(), kN},
                          {bars.data(), kN}, 0.0));
        },
        kN);
    std::printf(
        "[%6s] LogBlock %.2f | ExpTransform %.2f | LaplaceTransform %.2f | "
        "SampleBlock %.2f | RngFill %.2f | PairwiseScan %.2f ns/elem "
        "(log speedup vs libm: %.2fx)\n",
        name, log_block, exp_tf, lap_tf, lap_sample, rng_fill, pairwise,
        libm_log / log_block);
  }
  return 0;
}
