// batch_scan: offline RunAppend over pre-generated 1M-query arrays, in
// three fixed phases —
//   common:   one near-threshold bar, with the score vector's quantized
//             bound prefilter attached;
//   perquery: a bar per query, near the answers;
//   resample: one near-threshold bar with ρ redrawn after every positive
//             (Alg. 2 / ThresholdMonitor style), so replay re-derives often.
// It is the only workload that runs the per-query arm, resample replay
// and multi-MiB inputs (8-16 MiB per phase), and it bypasses eval,
// serving, audit and the thread pool.
//
// Every repetition re-creates each phase's mechanism from the same seed,
// so every repetition emits the same responses; after timing they are
// compared bitwise against a streaming Process() loop — the oracle.

#include <algorithm>
#include <bit>
#include <vector>

#include "common/rng.h"
#include "core/batch_runner.h"
#include "core/svt.h"
#include "data/bound_prefilter.h"
#include "data/score_vector.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kQueries = size_t{1} << 20;
constexpr size_t kToyQueries = size_t{1} << 14;

svt::SvtOptions PhaseOptions(bool resample) {
  svt::SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 1 << 20;  // no cutoff abort inside a phase
  o.monotonic = true;
  o.resample_threshold_noise = resample;
  return o;
}

/// The common bar, in ν scales.
constexpr double kBar = 8.0;

struct Phase {
  const char* name;
  const char* span;
  svt::SvtOptions options;
  uint64_t mech_seed = 0;
  svt::ScoreVector answers;
  double bar = 0.0;
  std::vector<double> thresholds;  // empty: the common bar
  const svt::BoundPrefilter* prefilter = nullptr;
  size_t input_bytes_per_query = 0;
};

struct Inputs {
  std::vector<Phase> phases;
  double prefilter_build_ns = 0.0;
};

Inputs Generate(uint64_t seed, bool toy) {
  const size_t n = toy ? kToyQueries : kQueries;
  svt::Rng probe_rng(1);
  const double nu = svt::SparseVector::Create(PhaseOptions(false), &probe_rng)
                        .value()
                        ->query_noise_scale();
  svt::Rng gen(seed * 0x9e3779b97f4a7c15ULL + 11);
  // Centers are in ν scales relative to the bar at kBar ν, which keeps
  // every answer non-negative, as a ScoreVector requires.
  const auto near = [&](double center) {
    std::vector<double> v(n);
    for (double& a : v) a = (kBar + center + (gen.NextDouble() - 0.5)) * nu;
    return v;
  };
  Inputs in;
  in.phases.resize(3);
  Phase& common = in.phases[0];
  common.name = "common";
  common.span = "core.batch.common";
  common.options = PhaseOptions(false);
  common.bar = kBar * nu;
  common.answers = svt::ScoreVector(near(-6.0));  // rare positives
  const int64_t build_start = NowNs();
  common.prefilter = common.answers.bound_prefilter();
  in.prefilter_build_ns = static_cast<double>(NowNs() - build_start);
  common.input_bytes_per_query = sizeof(double);

  Phase& perquery = in.phases[1];
  perquery.name = "perquery";
  perquery.span = "core.batch.perquery";
  perquery.options = PhaseOptions(false);
  perquery.answers = svt::ScoreVector(near(-6.0));
  perquery.thresholds = near(0.0);
  perquery.input_bytes_per_query = 2 * sizeof(double);

  Phase& resample = in.phases[2];
  resample.name = "resample";
  resample.span = "core.batch.resample";
  resample.options = PhaseOptions(true);
  resample.bar = kBar * nu;
  resample.answers = svt::ScoreVector(near(-4.0));  // frequent positives
  resample.input_bytes_per_query = sizeof(double);

  for (size_t p = 0; p < in.phases.size(); ++p) {
    in.phases[p].mech_seed = seed * 0xbf58476d1ce4e5b9ULL + p;
  }
  return in;
}

/// Runs one phase on a fresh mechanism; returns the seconds RunAppend took
/// and leaves the mechanism's counters in *stats.
double RunPhase(const Phase& phase, std::vector<svt::Response>* out,
                svt::BatchRunStats* stats) {
  svt::Rng rng(phase.mech_seed);
  auto mech = svt::SparseVector::Create(phase.options, &rng).value();
  out->clear();
  const int64_t start = NowNs();
  if (phase.thresholds.empty()) {
    mech->RunAppend(phase.answers.scores(), phase.bar, phase.prefilter, out);
  } else {
    mech->RunAppend(phase.answers.scores(), phase.thresholds, out);
  }
  const double seconds = SecondsBetween(start, NowNs());
  *stats = mech->batch_stats();
  return seconds;
}

bool SameResponse(const svt::Response& a, const svt::Response& b) {
  return a.outcome == b.outcome &&
         std::bit_cast<uint64_t>(a.value) == std::bit_cast<uint64_t>(b.value);
}

/// The oracle: the streaming Process() loop with the phase's seed must
/// emit exactly `got`. Returns the number of mismatching positions.
int64_t StreamingMismatches(const Phase& phase,
                            const std::vector<svt::Response>& got) {
  svt::Rng rng(phase.mech_seed);
  auto mech = svt::SparseVector::Create(phase.options, &rng).value();
  const std::span<const double> answers = phase.answers.scores();
  int64_t bad = 0;
  size_t i = 0;
  for (; i < answers.size() && !mech->exhausted(); ++i) {
    const double bar =
        phase.thresholds.empty() ? phase.bar : phase.thresholds[i];
    const svt::Response want = mech->Process(answers[i], bar);
    if (i >= got.size() || !SameResponse(want, got[i])) ++bad;
  }
  if (got.size() != i) ++bad;
  return bad;
}

/// Best-of-three read bandwidth over a buffer of at least 4x the LLC
/// (capped at 512 MiB), in GB/s.
double MemReadGbs(bool toy) {
  const int64_t llc = std::max<int64_t>(LastLevelCacheBytes(), 8 << 20);
  const size_t bytes = toy ? size_t{8} << 20
                           : static_cast<size_t>(std::min<int64_t>(
                                 4 * llc, int64_t{512} << 20));
  std::vector<uint64_t> buffer(bytes / sizeof(uint64_t), 1);
  double best = 0.0;
  uint64_t sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const int64_t start = NowNs();
    uint64_t acc[8] = {};
    for (size_t i = 0; i + 8 <= buffer.size(); i += 8) {
      for (int k = 0; k < 8; ++k) acc[k] += buffer[i + k];
    }
    const double seconds = SecondsBetween(start, NowNs());
    for (uint64_t a : acc) sink += a;
    best = std::max(best, static_cast<double>(bytes) / seconds * 1e-9);
  }
  if (sink != buffer.size() * 3) return 0.0;  // keeps the reads live
  return best;
}

/// Rng::FillUint64 over `words` words in chunk-sized, cache-resident
/// pieces: the RNG stage's floor, ns per word.
double RngFillNsPerWord(size_t words) {
  std::vector<uint64_t> chunk(2 * svt::BatchRunner::kChunkSize);
  svt::Rng rng(3);
  const int64_t start = NowNs();
  for (size_t done = 0; done < words; done += chunk.size()) {
    rng.FillUint64(chunk);
  }
  return static_cast<double>(NowNs() - start) / static_cast<double>(words);
}

}  // namespace

Outcome RunBatchScan(const RunOptions& options) {
  Outcome outcome;
  Inputs in;
  std::vector<double> prefilter_ns;
  outcome.Set("setup_s", MedianSetupSeconds([&] {
                in = Generate(options.seed, options.toy);
                prefilter_ns.push_back(in.prefilter_build_ns);
              }));
  const size_t phases = in.phases.size();
  const size_t n = in.phases[0].answers.size();

  TraceBuffer trace("main");
  std::vector<std::vector<svt::Response>> outs(phases);
  std::vector<svt::BatchRunStats> stats(phases);
  UnitTimes times, traced_times;
  std::vector<double> fill_ns;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  do {
    for (size_t p = 0; p < phases; ++p) {
      times.Add(p, RunPhase(in.phases[p], &outs[p], &stats[p]));
      outcome.Check(outs[p].size() == n, "short scan");
    }
    if (options.trace) {
      for (size_t p = 0; p < phases; ++p) {
        const int64_t start = NowNs();
        {
          SpanScope span(&trace, in.phases[p].span);
          RunPhase(in.phases[p], &outs[p], &stats[p]);
        }
        traced_times.Add(p, SecondsBetween(start, NowNs()));
      }
      SpanScope span(&trace, "common.rng.fill");
      fill_ns.push_back(RngFillNsPerWord(2 * n));
    }
  } while (NowNs() < deadline);

  for (size_t p = 0; p < phases; ++p) {
    outcome.Count(static_cast<int64_t>(n),
                  StreamingMismatches(in.phases[p], outs[p]),
                  std::string(in.phases[p].name) + " differs from streaming");
  }

  if (!options.trace) {
    outcome.Set("job_s", times.SumOfMedians());
    outcome.Set("peak_rss_mib", PeakRssMib());
    return outcome;
  }

  const double mem_gbs = MemReadGbs(options.toy);
  outcome.Set("host.mem_read_gbs", mem_gbs);
  outcome.Set("common.rng.fill_ns_per_word", Median(fill_ns));
  outcome.Set("data.prefilter_build_ns", Median(prefilter_ns));
  const double mq = static_cast<double>(n) * 1e-6;
  const double spans_per_chunk = static_cast<double>(
      svt::BatchRunner::kChunkSize / svt::BatchRunner::kBoundSpan);
  for (size_t p = 0; p < phases; ++p) {
    const Phase& phase = in.phases[p];
    const svt::BatchRunStats& st = stats[p];
    const std::string prefix = std::string("core.batch.") + phase.name + ".";
    const double qps =
        static_cast<double>(n) / times.SumOfMedians(p, p + 1);
    outcome.Set(std::string("scan_") + phase.name + "_qps", qps);
    const double chunks =
        static_cast<double>(st.tier1_chunks_skipped + st.tier2_chunks_scanned);
    outcome.Set(prefix + "tier1_skip_frac",
                static_cast<double>(st.tier1_chunks_skipped) / chunks);
    const double tier2_spans =
        static_cast<double>(st.tier2_chunks_scanned) * spans_per_chunk;
    outcome.Set(prefix + "span_skip_frac",
                tier2_spans > 0.0
                    ? static_cast<double>(st.tier2_spans_skipped) / tier2_spans
                    : 0.0);
    outcome.Set(prefix + "words_skipped_frac",
                static_cast<double>(st.mega_words_skipped_q) /
                    static_cast<double>(n));
    outcome.Set(prefix + "rederivations_per_mq",
                static_cast<double>(st.replay_rederivations) / mq);
    const auto positives = std::count_if(
        outs[p].begin(), outs[p].end(),
        [](const svt::Response& r) { return r.is_positive(); });
    outcome.Set(prefix + "positives_per_mq",
                static_cast<double>(positives) / mq);
    outcome.Set(prefix + "bound_bytes_per_query",
                static_cast<double>(st.bound_bytes_touched) /
                    static_cast<double>(n));
    // Computed, not measured: the input arrays plus the responses written.
    const double bytes_per_query = static_cast<double>(
        phase.input_bytes_per_query + sizeof(svt::Response));
    outcome.Set(prefix + "bytes_per_query", bytes_per_query);
    outcome.Set(prefix + "bw_frac",
                mem_gbs > 0.0 ? bytes_per_query * qps / (mem_gbs * 1e9) : 0.0);
  }
  outcome.Set("trace.job_s.untraced", times.SumOfMedians());
  outcome.Set("trace.job_s.traced", traced_times.SumOfMedians());
  if (!options.trace_path.empty() && !DumpSpans(options.trace_path, {&trace})) {
    outcome.Check(false, "cannot write " + options.trace_path);
  }
  return outcome;
}

int SelfTestBatchScan() {
  const Inputs in = Generate(/*seed=*/7, /*toy=*/true);
  int problems = 0;
  for (const Phase& phase : in.phases) {
    std::vector<svt::Response> out;
    svt::BatchRunStats stats;
    RunPhase(phase, &out, &stats);
    if (StreamingMismatches(phase, out) != 0) ++problems;
    out[out.size() / 2] = out[out.size() / 2].is_positive()
                              ? svt::Response::Below()
                              : svt::Response::Above();  // one flipped response
    if (StreamingMismatches(phase, out) != 1) ++problems;
  }
  return problems;
}

}  // namespace perfbench
