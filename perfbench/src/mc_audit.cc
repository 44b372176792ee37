// mc_audit: the Monte-Carlo half of the privacy audit. For each Fig. 2
// instance — the Alg. 3/5/6 and GPTT counterexamples, the Alg. 4 stress
// instance, and shift instances for Algs. 1, 2 and 7 — it estimates the
// witnessing pattern's probability on D and on D' with
// EstimateOutputProbability, once with one worker and once with one
// worker per hardware thread. Pattern windows are a handful of queries,
// so per-call engine overhead (Reset, runner set-up) dominates, and the
// parallel pass is the library's only data-parallel thread-pool use. It
// bypasses eval, serving and any large scan.
//
// Every estimate uses a fixed seed derived from the run seed, so every
// repetition returns the same hits. The oracle: the closed-form
// LogOutputProbability must lie inside each estimate's interval, taken at
// confidence 1 - 1e-9 per side. A run checks 32 intervals, so a correct
// engine fails a run with probability about 6.4e-8, under once in 10^6
// runs.

#include <cmath>
#include <string>
#include <vector>

#include "audit/closed_form.h"
#include "audit/counterexamples.h"
#include "audit/monte_carlo.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/variant_spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kEpsilon = 1.0;
constexpr int kCutoff = 2;
constexpr int64_t kTrials = 20000;
constexpr int64_t kToyTrials = 2000;
constexpr double kConfidence = 1.0 - 1e-9;

struct Case {
  svt::VariantSpec spec;
  svt::NeighborInstance instance;
  std::string pattern;  ///< indicator form: numeric positives read as 'T'
};

struct Inputs {
  std::vector<Case> cases;
  uint64_t seed = 0;
  int64_t trials = 0;
};

Case MakeCase(svt::VariantSpec spec, svt::NeighborInstance instance) {
  Case c{std::move(spec), std::move(instance), ""};
  for (const svt::OutputEvent& e : c.instance.pattern) {
    c.pattern += e.is_positive() ? 'T' : '_';
  }
  return c;
}

Inputs Generate(uint64_t seed, bool toy) {
  Inputs in;
  in.seed = seed;
  in.trials = toy ? kToyTrials : kTrials;
  const double e = kEpsilon;
  in.cases.push_back(
      MakeCase(svt::MakeAlg3Spec(e, 1.0, 1), svt::Alg3Counterexample(4)));
  in.cases.push_back(
      MakeCase(svt::MakeAlg5Spec(e, 1.0), svt::Alg5Counterexample()));
  in.cases.push_back(
      MakeCase(svt::MakeAlg6Spec(e, 1.0), svt::Alg6Counterexample(2)));
  in.cases.push_back(MakeCase(svt::MakeGpttSpec(e / 2.0, e / 2.0, 1.0),
                              svt::GpttCounterexample(2)));
  // Shallow enough that the stress pattern is observable by simulation.
  in.cases.push_back(MakeCase(svt::MakeAlg4Spec(e, 1.0, kCutoff),
                              svt::Alg4StressInstance(kCutoff, 4, 2.0)));
  for (svt::VariantId id : {svt::VariantId::kAlg1, svt::VariantId::kAlg2,
                            svt::VariantId::kStandard}) {
    in.cases.push_back(MakeCase(svt::MakeSpec(id, e, 1.0, kCutoff),
                                svt::ShiftInstance(4, "_T__")));
  }
  return in;
}

/// One estimate per (case, side); side 0 is D, side 1 is D'.
struct Estimates {
  std::vector<svt::McEstimate> values;
};

/// One pass over every (case, side). Each estimate's seconds go to
/// *times as unit `first_unit + k`.
Estimates RunPass(const Inputs& in, int workers, UnitTimes* times,
                  size_t first_unit, TraceBuffer* trace,
                  const char* span_name) {
  Estimates out;
  svt::McOptions options;
  options.trials = in.trials;
  options.confidence = kConfidence;
  options.num_workers = workers;
  for (size_t i = 0; i < in.cases.size(); ++i) {
    const Case& c = in.cases[i];
    for (int side = 0; side < 2; ++side) {
      svt::Rng rng(in.seed * 0x9e3779b97f4a7c15ULL + 4 * i + 2 * side +
                   (workers == 1 ? 0 : 1));
      const std::vector<double>& answers =
          side == 0 ? c.instance.answers_d : c.instance.answers_dprime;
      const int64_t start = NowNs();
      {
        SpanScope span(trace, span_name);
        out.values.push_back(svt::EstimateOutputProbability(
            c.spec, answers, c.instance.threshold, c.pattern, rng, options));
      }
      if (times != nullptr) {
        times->Add(first_unit + out.values.size() - 1,
                   SecondsBetween(start, NowNs()));
      }
    }
  }
  return out;
}

/// Closed-form probability of every (case, side), in RunPass order. The
/// simulation reads a numeric positive as 'T', so the closed form is
/// taken for the same spec with indicator output: the positivity test,
/// and hence the indicator pattern's probability, is unchanged.
std::vector<double> ClosedForm(const Inputs& in) {
  std::vector<double> p;
  for (const Case& c : in.cases) {
    const std::vector<svt::OutputEvent> events =
        svt::PatternFromString(c.pattern);
    svt::VariantSpec indicator = c.spec;
    indicator.output_query_value_on_positive = false;
    indicator.numeric_scale = 0.0;
    for (int side = 0; side < 2; ++side) {
      const std::vector<double>& answers =
          side == 0 ? c.instance.answers_d : c.instance.answers_dprime;
      p.push_back(std::exp(svt::LogOutputProbability(
          indicator, answers, c.instance.threshold, events)));
    }
  }
  return p;
}

/// The oracle: every closed-form probability inside its interval.
void CheckIntervals(const std::vector<double>& exact, const Estimates& est,
                    const std::string& where, Outcome* outcome) {
  for (size_t k = 0; k < exact.size(); ++k) {
    const svt::McEstimate& e = est.values[k];
    outcome->Check(e.lower <= exact[k] && exact[k] <= e.upper,
                   where + " estimate " + std::to_string(k) + ": closed form " +
                       std::to_string(exact[k]) + " outside [" +
                       std::to_string(e.lower) + ", " +
                       std::to_string(e.upper) + "]");
  }
}

bool SameHits(const Estimates& a, const Estimates& b) {
  if (a.values.size() != b.values.size()) return false;
  for (size_t k = 0; k < a.values.size(); ++k) {
    if (a.values[k].hits != b.values[k].hits) return false;
  }
  return true;
}

/// Seconds per trial of an all-⊥ window of `length` queries on Alg. 1,
/// one worker.
double SecondsPerTrial(int length, int64_t trials) {
  const svt::VariantSpec spec = svt::MakeAlg1Spec(kEpsilon, 1.0, kCutoff);
  const std::vector<double> answers(static_cast<size_t>(length), -1e6);
  const std::string pattern(static_cast<size_t>(length), '_');
  svt::McOptions options;
  options.trials = trials;
  svt::Rng rng(17);
  const int64_t start = NowNs();
  const svt::McEstimate e =
      svt::EstimateOutputProbability(spec, answers, 0.0, pattern, rng, options);
  const double seconds = SecondsBetween(start, NowNs());
  return e.hits == trials ? seconds / static_cast<double>(trials) : 0.0;
}

}  // namespace

Outcome RunMcAudit(const RunOptions& options) {
  Outcome outcome;
  Inputs in;
  outcome.Set("setup_s", MedianSetupSeconds([&] {
                in = Generate(options.seed, options.toy);
              }));
  const int workers = svt::ThreadPool::HardwareThreads();
  // Start the global pool before timing, so no timed call spawns threads.
  svt::ParallelFor(workers, workers, [](int64_t, int64_t, int) {});

  TraceBuffer trace("main");
  // Units [0, estimates) are the one-worker pass, the rest the parallel.
  const size_t estimates = 2 * in.cases.size();
  UnitTimes times, traced_times;
  Estimates first_one, first_par;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  do {
    const Estimates one = RunPass(in, 1, &times, 0, nullptr, "");
    const Estimates par = RunPass(in, workers, &times, estimates, nullptr, "");
    if (first_one.values.empty()) {
      first_one = one;
      first_par = par;
    } else {
      outcome.Check(SameHits(first_one, one) && SameHits(first_par, par),
                    "repeated estimates differ");
    }
    if (options.trace) {
      const Estimates traced_one = RunPass(in, 1, &traced_times, 0, &trace,
                                           "audit.mc.estimate.1w");
      const Estimates traced_par =
          RunPass(in, workers, &traced_times, estimates, &trace,
                  "audit.mc.estimate.par");
      outcome.Check(SameHits(first_one, traced_one) &&
                        SameHits(first_par, traced_par),
                    "traced estimates differ");
    }
  } while (NowNs() < deadline);

  const std::vector<double> exact = ClosedForm(in);
  CheckIntervals(exact, first_one, "1 worker", &outcome);
  CheckIntervals(exact, first_par, "parallel", &outcome);

  const double trials_per_pass =
      static_cast<double>(in.trials) * static_cast<double>(exact.size());
  const double one_rate = trials_per_pass / times.SumOfMedians(0, estimates);
  const double par_rate =
      trials_per_pass / times.SumOfMedians(estimates, 2 * estimates);
  outcome.Set("mc_1w_trials_per_s", one_rate);
  outcome.Set("mc_par_trials_per_s", par_rate);
  if (!options.trace) {
    outcome.Set("job_s", times.SumOfMedians());
    outcome.Set("peak_rss_mib", PeakRssMib());
    return outcome;
  }

  // Fixed and per-query cost per trial, fitted from two window lengths.
  constexpr int kShort = 4, kLong = 64;
  const int64_t fit_trials = options.toy ? 2000 : 50000;
  std::vector<double> fixed_ns, per_query_ns;
  for (int i = 0; i < 3; ++i) {
    SpanScope span(&trace, "audit.mc.fit");
    const double short_s = SecondsPerTrial(kShort, fit_trials);
    const double long_s = SecondsPerTrial(kLong, fit_trials);
    const double slope = (long_s - short_s) / (kLong - kShort);
    per_query_ns.push_back(slope * 1e9);
    fixed_ns.push_back((short_s - slope * kShort) * 1e9);
  }
  outcome.Set("audit.mc.ns_per_trial_fixed", Median(fixed_ns));
  outcome.Set("audit.mc.ns_per_query", Median(per_query_ns));
  outcome.Set("audit.mc.scaling_eff", par_rate / (workers * one_rate));
  outcome.Set("audit.mc.workers", workers);
  outcome.Set("trace.job_s.untraced", times.SumOfMedians());
  outcome.Set("trace.job_s.traced", traced_times.SumOfMedians());
  if (!options.trace_path.empty() && !DumpSpans(options.trace_path, {&trace})) {
    outcome.Check(false, "cannot write " + options.trace_path);
  }
  return outcome;
}

int SelfTestMcAudit() {
  const Inputs in = Generate(/*seed=*/7, /*toy=*/true);
  const Estimates est = RunPass(in, 1, nullptr, 0, nullptr, "");
  std::vector<double> exact = ClosedForm(in);
  int problems = 0;
  Outcome clean;
  CheckIntervals(exact, est, "clean", &clean);
  if (clean.failed != 0) ++problems;
  // One perturbed probability: halve the most likely one.
  size_t top = 0;
  for (size_t k = 1; k < exact.size(); ++k) {
    if (exact[k] > exact[top]) top = k;
  }
  exact[top] *= 0.5;
  Outcome corrupted;
  CheckIntervals(exact, est, "corrupted", &corrupted);
  if (corrupted.failed != 1) ++problems;
  return problems;
}

}  // namespace perfbench
