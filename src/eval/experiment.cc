#include "eval/experiment.h"

#include <memory>

#include "common/check.h"
#include "core/exponential_mechanism.h"
#include "core/svt.h"
#include "core/svt_retraversal.h"
#include "core/svt_variants.h"
#include "core/top_select.h"
#include "eval/metrics.h"

namespace svt {

MethodConfig MethodConfig::SvtDpBook() {
  MethodConfig m;
  m.label = "SVT-DPBook";
  m.kind = MethodKind::kSvtDpBook;
  return m;
}

MethodConfig MethodConfig::SvtStandard(AllocationPolicy policy) {
  MethodConfig m;
  m.kind = MethodKind::kSvtStandard;
  m.allocation = policy;
  switch (policy) {
    case AllocationPolicy::kOneToOne:
      m.label = "SVT-S-1:1";
      break;
    case AllocationPolicy::kOneToThree:
      m.label = "SVT-S-1:3";
      break;
    case AllocationPolicy::kOneToC:
      m.label = "SVT-S-1:c";
      break;
    case AllocationPolicy::kOptimal:
      m.label = "SVT-S-1:c^2/3";
      break;
  }
  return m;
}

MethodConfig MethodConfig::SvtRetraversal(double boost_devs) {
  MethodConfig m;
  m.kind = MethodKind::kSvtRetraversal;
  m.allocation = AllocationPolicy::kOptimal;
  m.boost_devs = boost_devs;
  m.label = "SVT-ReTr-1:c^2/3-" + std::to_string(static_cast<int>(boost_devs)) +
            "D";
  return m;
}

MethodConfig MethodConfig::Em() {
  MethodConfig m;
  m.label = "EM";
  m.kind = MethodKind::kEm;
  return m;
}

std::vector<MethodConfig> Figure4Methods() {
  return {MethodConfig::SvtDpBook(),
          MethodConfig::SvtStandard(AllocationPolicy::kOneToOne),
          MethodConfig::SvtStandard(AllocationPolicy::kOneToThree),
          MethodConfig::SvtStandard(AllocationPolicy::kOneToC),
          MethodConfig::SvtStandard(AllocationPolicy::kOptimal)};
}

std::vector<MethodConfig> Figure5Methods() {
  return {MethodConfig::SvtStandard(AllocationPolicy::kOptimal),
          MethodConfig::SvtRetraversal(1.0),
          MethodConfig::SvtRetraversal(2.0),
          MethodConfig::SvtRetraversal(3.0),
          MethodConfig::SvtRetraversal(4.0),
          MethodConfig::SvtRetraversal(5.0),
          MethodConfig::Em()};
}

namespace {

BudgetAllocation ResolveAllocation(AllocationPolicy policy, int c,
                                   bool monotonic) {
  switch (policy) {
    case AllocationPolicy::kOneToOne:
      return BudgetAllocation::Halves();
    case AllocationPolicy::kOneToThree:
      return BudgetAllocation::OneToThree();
    case AllocationPolicy::kOneToC:
      return BudgetAllocation::OneToC(c);
    case AllocationPolicy::kOptimal:
      return BudgetAllocation::Optimal(c, monotonic);
  }
  SVT_CHECK(false) << "unknown AllocationPolicy";
  return BudgetAllocation::Halves();
}

}  // namespace

Result<std::vector<size_t>> RunMethodOnce(std::span<const double> scores,
                                          double threshold, int c,
                                          double epsilon, bool monotonic,
                                          const MethodConfig& method,
                                          Rng& rng) {
  switch (method.kind) {
    case MethodKind::kSvtDpBook: {
      SVT_ASSIGN_OR_RETURN(
          std::unique_ptr<SparseVector> mech,
          DworkRothSvt::Create(epsilon, /*sensitivity=*/1.0, c, &rng));
      return CollectPositives(*mech, scores, threshold);
    }
    case MethodKind::kSvtStandard: {
      SvtOptions options;
      options.epsilon = epsilon;
      options.sensitivity = 1.0;
      options.cutoff = c;
      options.monotonic = monotonic;
      options.allocation = ResolveAllocation(method.allocation, c, monotonic);
      return SelectTopCWithSvt(scores, threshold, options, rng);
    }
    case MethodKind::kSvtRetraversal: {
      RetraversalOptions options;
      options.svt.epsilon = epsilon;
      options.svt.sensitivity = 1.0;
      options.svt.cutoff = c;
      options.svt.monotonic = monotonic;
      options.svt.allocation =
          ResolveAllocation(method.allocation, c, monotonic);
      options.threshold_boost_devs = method.boost_devs;
      SVT_ASSIGN_OR_RETURN(
          RetraversalResult result,
          SelectWithRetraversal(scores, threshold, options, rng));
      return std::move(result.selected);
    }
    case MethodKind::kEm: {
      EmOptions options;
      options.epsilon = epsilon;
      options.sensitivity = 1.0;
      options.num_selections = c;
      options.monotonic = monotonic;
      return ExponentialMechanism::SelectTopC(scores, options, rng);
    }
  }
  return Status::InvalidArgument("unknown MethodKind");
}

Result<std::vector<MethodSeries>> RunSelectionSweep(
    const ScoreVector& scores, const SweepConfig& sweep,
    const std::vector<MethodConfig>& methods) {
  if (scores.size() < 2) {
    return Status::InvalidArgument("need at least 2 scores");
  }
  for (int c : sweep.c_values) {
    if (c < 1 || static_cast<size_t>(c) >= scores.size()) {
      return Status::InvalidArgument(
          "every c must satisfy 1 <= c < scores.size()");
    }
  }
  if (sweep.runs < 1) {
    return Status::InvalidArgument("runs must be >= 1");
  }

  std::vector<MethodSeries> series(methods.size());
  for (size_t m = 0; m < methods.size(); ++m) {
    series[m].config = methods[m];
    series[m].cells.resize(sweep.c_values.size());
  }

  Rng master(sweep.seed);
  for (size_t ci = 0; ci < sweep.c_values.size(); ++ci) {
    const int c = sweep.c_values[ci];
    const double threshold =
        PaperThreshold(scores.scores(), static_cast<size_t>(c));

    for (int run = 0; run < sweep.runs; ++run) {
      // One permutation per run, shared by all methods (paired design, as
      // in the paper: "each time randomizing the order of items").
      Rng run_rng = master.Fork();
      const ScoreVector shuffled = scores.Shuffled(run_rng);

      for (size_t m = 0; m < methods.size(); ++m) {
        Rng method_rng = run_rng.Fork();
        SVT_ASSIGN_OR_RETURN(
            std::vector<size_t> selected,
            RunMethodOnce(shuffled.scores(), threshold, c, sweep.epsilon,
                          sweep.monotonic, methods[m], method_rng));
        series[m].cells[ci].ser.Add(ScoreErrorRate(
            selected, shuffled.scores(), static_cast<size_t>(c)));
        series[m].cells[ci].fnr.Add(FalseNegativeRate(
            selected, shuffled.scores(), static_cast<size_t>(c)));
      }
    }
  }
  return series;
}

}  // namespace svt
