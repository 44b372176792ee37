// paper_sweep: the paper's own evaluation (§6, Figs. 4-5) through
// RunSelectionSweep, at a fixed size: the bench binaries' default scales
// divided by four (AOL additionally at its default 5%), ε = 0.1, the 12
// paper c-values and one randomized order per c. One Figure 4 + Figure 5
// pair then takes about two seconds on a 2 GHz Xeon, so a run measures
// several pairs. The job is split into units — one lineup, one dataset,
// one c, each its own RunSelectionSweep call — and timed per unit (see
// UnitTimes). It never enters serving or audit, and its score vectors (at
// most ~30k items) stay cache-resident.
//
// It is not listed in BENCHMARK.json, so runs are not gated on it; run it
// by name. On a shared 4-vCPU host its single-threaded scalar code runs up
// to ~1.5x slower for tens of seconds at a time as neighbours' load comes
// and goes (SIMD-bound workloads move ~1.25x), so its job_s spread across
// seeds reached 0.15-0.35 of the median, beyond the 0.25 bound. Longer
// runs, lower quantiles and a scalar calibration loop did not remove it.
//
// Traced repetitions rebuild the sweep loop from the public calls it is
// made of (Fork, Shuffled, PaperThreshold, the selection drivers,
// ScoreErrorRate / FalseNegativeRate), time each call, and must reproduce
// RunSelectionSweep's SER/FNR series bit for bit — the oracle.

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/exponential_mechanism.h"
#include "core/svt.h"
#include "core/svt_retraversal.h"
#include "core/svt_variants.h"
#include "core/top_select.h"
#include "data/dataset_spec.h"
#include "data/generators.h"
#include "data/score_vector.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.25;
constexpr double kAolScale = 0.05;
constexpr double kToyScale = 0.05;

using Series = std::vector<svt::MethodSeries>;

struct Inputs {
  std::vector<svt::ScoreVector> datasets;
  svt::SweepConfig sweep;
  /// Figure 4's lineup, then Figure 5's.
  std::vector<std::vector<svt::MethodConfig>> lineups;
};

Inputs Generate(uint64_t seed, bool toy) {
  Inputs in;
  const std::vector<svt::DatasetSpec> specs = svt::AllDatasetSpecs();
  for (size_t d = 0; d < specs.size(); ++d) {
    double fraction = toy ? kToyScale : kScale;
    if (specs[d].name == "AOL") fraction *= kAolScale;
    svt::Rng gen(seed * 0x9e3779b97f4a7c15ULL + d);
    in.datasets.push_back(
        svt::GenerateScores(svt::ScaledSpec(specs[d], fraction), gen));
  }
  in.sweep.epsilon = 0.1;
  in.sweep.runs = 1;
  in.sweep.seed = seed ^ 0x5eedf00dULL;
  in.sweep.monotonic = true;
  if (toy) in.sweep.c_values = {25, 50};
  in.lineups = {svt::Figure4Methods(), svt::Figure5Methods()};
  return in;
}

/// Work counters of one traced repetition.
struct SweepCounters {
  int64_t svt_s_queries = 0;
  int64_t dpbook_queries = 0;
  int64_t retr_comparisons = 0;
  int64_t retr_passes = 0;
  int64_t retr_selected = 0;
  int64_t em_items = 0;
};

svt::BudgetAllocation Allocation(svt::AllocationPolicy policy, int c) {
  switch (policy) {
    case svt::AllocationPolicy::kOneToOne:
      return svt::BudgetAllocation::Halves();
    case svt::AllocationPolicy::kOneToThree:
      return svt::BudgetAllocation::OneToThree();
    case svt::AllocationPolicy::kOneToC:
      return svt::BudgetAllocation::OneToC(c);
    case svt::AllocationPolicy::kOptimal:
      return svt::BudgetAllocation::Optimal(c, /*monotonic=*/true);
  }
  SVT_CHECK(false) << "unknown AllocationPolicy";
  return svt::BudgetAllocation::Halves();
}

/// One method on one shuffled vector, through the public drivers, with a
/// span per layer call.
std::vector<size_t> RunMethod(std::span<const double> scores,
                              double threshold, int c,
                              const svt::SweepConfig& sweep,
                              const svt::MethodConfig& method, svt::Rng& rng,
                              TraceBuffer* trace, SweepCounters* counters) {
  switch (method.kind) {
    case svt::MethodKind::kSvtDpBook: {
      SpanScope span(trace, "core.dpbook");
      auto mech = svt::DworkRothSvt::Create(sweep.epsilon, 1.0, c, &rng)
                      .value();
      std::vector<size_t> selected =
          svt::CollectPositives(*mech, scores, threshold);
      counters->dpbook_queries += mech->queries_processed();
      return selected;
    }
    case svt::MethodKind::kSvtStandard: {
      SpanScope span(trace, "core.svt_s");
      svt::SvtOptions options;
      options.epsilon = sweep.epsilon;
      options.sensitivity = 1.0;
      options.cutoff = c;
      options.monotonic = sweep.monotonic;
      options.allocation = Allocation(method.allocation, c);
      auto mech = svt::SparseVector::Create(options, &rng).value();
      std::vector<size_t> selected =
          svt::CollectPositives(*mech, scores, threshold);
      counters->svt_s_queries += mech->queries_processed();
      return selected;
    }
    case svt::MethodKind::kSvtRetraversal: {
      SpanScope span(trace, "core.retr");
      svt::RetraversalOptions options;
      options.svt.epsilon = sweep.epsilon;
      options.svt.sensitivity = 1.0;
      options.svt.cutoff = c;
      options.svt.monotonic = sweep.monotonic;
      options.svt.allocation = Allocation(method.allocation, c);
      options.threshold_boost_devs = method.boost_devs;
      svt::RetraversalResult result =
          svt::SelectWithRetraversal(scores, threshold, options, rng).value();
      counters->retr_comparisons += result.comparisons;
      counters->retr_passes += result.passes_used;
      counters->retr_selected += static_cast<int64_t>(result.selected.size());
      return std::move(result.selected);
    }
    case svt::MethodKind::kEm: {
      SpanScope span(trace, "core.em");
      svt::EmOptions options;
      options.epsilon = sweep.epsilon;
      options.sensitivity = 1.0;
      options.num_selections = c;
      options.monotonic = sweep.monotonic;
      counters->em_items += static_cast<int64_t>(scores.size());
      return svt::ExponentialMechanism::SelectTopC(scores, options, rng)
          .value();
    }
  }
  SVT_CHECK(false) << "unknown MethodKind";
  return {};
}

/// RunSelectionSweep's loop, rebuilt from public calls.
Series RebuiltSweep(const svt::ScoreVector& scores,
                    const svt::SweepConfig& sweep,
                    const std::vector<svt::MethodConfig>& methods,
                    TraceBuffer* trace, SweepCounters* counters) {
  SpanScope sweep_span(trace, "eval.sweep");
  Series series(methods.size());
  for (size_t m = 0; m < methods.size(); ++m) {
    series[m].config = methods[m];
    series[m].cells.resize(sweep.c_values.size());
  }
  svt::Rng master(sweep.seed);
  for (size_t ci = 0; ci < sweep.c_values.size(); ++ci) {
    const int c = sweep.c_values[ci];
    double threshold = 0.0;
    {
      SpanScope span(trace, "core.threshold");
      threshold = svt::PaperThreshold(scores.scores(), static_cast<size_t>(c));
    }
    for (int run = 0; run < sweep.runs; ++run) {
      svt::Rng run_rng = master.Fork();
      svt::ScoreVector shuffled;
      {
        SpanScope span(trace, "data.shuffle");
        shuffled = scores.Shuffled(run_rng);
      }
      for (size_t m = 0; m < methods.size(); ++m) {
        svt::Rng method_rng = run_rng.Fork();
        const std::vector<size_t> selected =
            RunMethod(shuffled.scores(), threshold, c, sweep, methods[m],
                      method_rng, trace, counters);
        SpanScope span(trace, "eval.metrics");
        series[m].cells[ci].ser.Add(svt::ScoreErrorRate(
            selected, shuffled.scores(), static_cast<size_t>(c)));
        series[m].cells[ci].fnr.Add(svt::FalseNegativeRate(
            selected, shuffled.scores(), static_cast<size_t>(c)));
      }
    }
  }
  return series;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameStats(const svt::RunningStats& a, const svt::RunningStats& b) {
  return a.count() == b.count() && SameBits(a.mean(), b.mean()) &&
         SameBits(a.variance(), b.variance()) && SameBits(a.min(), b.min()) &&
         SameBits(a.max(), b.max());
}

/// The oracle: every (method, c) cell of `got` equals `want` bitwise.
void CompareSeries(const Series& want, const Series& got,
                   const std::string& where, Outcome* outcome) {
  outcome->Check(want.size() == got.size(), where + ": method count");
  for (size_t m = 0; m < want.size() && m < got.size(); ++m) {
    for (size_t ci = 0; ci < want[m].cells.size(); ++ci) {
      const bool ok = ci < got[m].cells.size() &&
                      SameStats(want[m].cells[ci].ser, got[m].cells[ci].ser) &&
                      SameStats(want[m].cells[ci].fnr, got[m].cells[ci].fnr);
      outcome->Check(ok, where + " " + want[m].config.label + " cell " +
                             std::to_string(ci) + " differs");
    }
  }
}

/// One unit of the job: one lineup swept over one dataset at one c, as
/// its own RunSelectionSweep call with its own seed. Units are ordered
/// lineup-major, so each lineup's units are contiguous.
struct Unit {
  size_t lineup;
  size_t dataset;
  svt::SweepConfig sweep;
};

std::vector<Unit> Units(const Inputs& in) {
  std::vector<Unit> units;
  for (size_t l = 0; l < in.lineups.size(); ++l) {
    for (size_t d = 0; d < in.datasets.size(); ++d) {
      for (size_t ci = 0; ci < in.sweep.c_values.size(); ++ci) {
        Unit u{l, d, in.sweep};
        u.sweep.c_values = {in.sweep.c_values[ci]};
        u.sweep.seed = in.sweep.seed + 7919 * (d * 64 + ci);
        units.push_back(u);
      }
    }
  }
  return units;
}

/// One job: every unit once. Untraced it calls RunSelectionSweep; traced
/// it runs the rebuilt loop. Records each unit's seconds in *times.
std::vector<Series> RunJob(const Inputs& in, const std::vector<Unit>& units,
                           UnitTimes* times, TraceBuffer* trace,
                           SweepCounters* counters) {
  std::vector<Series> series;
  for (size_t u = 0; u < units.size(); ++u) {
    const svt::ScoreVector& scores = in.datasets[units[u].dataset];
    const auto& methods = in.lineups[units[u].lineup];
    const int64_t start = NowNs();
    series.push_back(
        trace == nullptr && counters == nullptr
            ? svt::RunSelectionSweep(scores, units[u].sweep, methods).value()
            : RebuiltSweep(scores, units[u].sweep, methods, trace, counters));
    if (times != nullptr) times->Add(u, SecondsBetween(start, NowNs()));
  }
  return series;
}

void CompareJobs(const std::vector<Series>& want,
                 const std::vector<Series>& got, const std::string& where,
                 Outcome* outcome) {
  for (size_t u = 0; u < want.size(); ++u) {
    CompareSeries(want[u], got[u], where + " unit " + std::to_string(u),
                  outcome);
  }
}

}  // namespace

Outcome RunPaperSweep(const RunOptions& options) {
  Outcome outcome;
  Inputs in;
  outcome.Set("setup_s", MedianSetupSeconds([&] {
                in = Generate(options.seed, options.toy);
              }));

  const std::vector<Unit> units = Units(in);
  const size_t fig4_units = in.datasets.size() * in.sweep.c_values.size();
  TraceBuffer trace("main");
  SweepCounters counters;
  UnitTimes times, traced_times;
  std::vector<Series> reference;
  int traced_reps = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  do {
    std::vector<Series> job = RunJob(in, units, &times, nullptr, nullptr);
    if (reference.empty()) {
      reference = std::move(job);
    } else {
      CompareJobs(reference, job, "repeat", &outcome);
    }
    if (options.trace) {
      CompareJobs(reference,
                  RunJob(in, units, &traced_times, &trace, &counters),
                  "traced rebuild", &outcome);
      ++traced_reps;
    }
  } while (NowNs() < deadline);

  if (!options.trace) {
    // Oracle for the untraced run: the rebuilt loop, once, after timing.
    SweepCounters unused;
    CompareJobs(reference, RunJob(in, units, nullptr, nullptr, &unused),
                "rebuild", &outcome);
    outcome.Set("job_s", times.SumOfMedians());
    outcome.Set("peak_rss_mib", PeakRssMib());
    return outcome;
  }

  const double reps = traced_reps;
  const auto totals = Summarize({&trace});
  const auto total_ns = [&](std::string_view name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  const auto self_ns = [&](std::string_view name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  outcome.Set("fig4_s", times.SumOfMedians(0, fig4_units));
  outcome.Set("fig5_s", times.SumOfMedians(fig4_units, units.size()));
  outcome.Set("data.shuffle_ns", total_ns("data.shuffle") / reps);
  outcome.Set("core.threshold_ns", total_ns("core.threshold") / reps);
  outcome.Set("eval.metrics_ns", total_ns("eval.metrics") / reps);
  outcome.Set("eval.sweep.self_ns", self_ns("eval.sweep") / reps);
  outcome.Set("core.svt_s.ns_per_query",
              per(total_ns("core.svt_s"),
                  static_cast<double>(counters.svt_s_queries)));
  outcome.Set("core.svt_s.queries",
              static_cast<double>(counters.svt_s_queries) / reps);
  outcome.Set("core.dpbook.ns_per_query",
              per(total_ns("core.dpbook"),
                  static_cast<double>(counters.dpbook_queries)));
  outcome.Set("core.dpbook.queries",
              static_cast<double>(counters.dpbook_queries) / reps);
  const double comparisons = static_cast<double>(counters.retr_comparisons);
  outcome.Set("core.retr.ns_per_comparison",
              per(total_ns("core.retr"), comparisons));
  outcome.Set("core.retr.comparisons", comparisons / reps);
  outcome.Set("core.retr.passes",
              static_cast<double>(counters.retr_passes) / reps);
  outcome.Set("core.retr.selected_per_comparison",
              per(static_cast<double>(counters.retr_selected), comparisons));
  outcome.Set("core.em.ns_per_item",
              per(total_ns("core.em"), static_cast<double>(counters.em_items)));
  outcome.Set("trace.job_s.untraced", times.SumOfMedians());
  outcome.Set("trace.job_s.traced", traced_times.SumOfMedians());
  if (!options.trace_path.empty() && !DumpSpans(options.trace_path, {&trace})) {
    outcome.Check(false, "cannot write " + options.trace_path);
  }
  return outcome;
}

int SelfTestPaperSweep() {
  const Inputs in = Generate(/*seed=*/7, /*toy=*/true);
  const svt::ScoreVector& scores = in.datasets[0];
  const auto& methods = in.lineups[1];
  const Series want =
      svt::RunSelectionSweep(scores, in.sweep, methods).value();
  SweepCounters counters;
  Series got = RebuiltSweep(scores, in.sweep, methods, nullptr, &counters);
  int problems = 0;
  Outcome clean;
  CompareSeries(want, got, "clean", &clean);
  if (clean.failed != 0) ++problems;
  got[1].cells[0].ser.Add(0.5);  // one perturbed series cell
  Outcome corrupted;
  CompareSeries(want, got, "corrupted", &corrupted);
  if (corrupted.failed != 1) ++problems;
  return problems;
}

}  // namespace perfbench
