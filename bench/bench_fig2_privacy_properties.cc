// Reproduces Figure 2: the comparison table of the six SVT variants,
// including the "Privacy Property" row — but measured, not asserted.
//
// For each variant the bench prints its noise parameterization and then an
// empirical privacy section: the maximum |log probability ratio| between
// neighboring datasets, computed in closed form
//   * over all output patterns on a worst-case shift instance, and
//   * on the paper's counterexample family with escalating size m,
// so the ε-DP variants show a plateau at ε and the ∞-DP variants show
// unbounded growth (Theorems 3, 6, 7 and §3.3).

#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "audit/counterexamples.h"
#include "audit/privacy_auditor.h"
#include "common/flags.h"
#include "core/variant_spec.h"
#include "eval/reporting.h"

namespace {

std::string Fmt(double v, int precision = 4) {
  if (std::isinf(v)) return "inf";
  return svt::FormatDouble(v, precision);
}

}  // namespace

int main(int argc, char** argv) {
  double epsilon = 1.0;
  int64_t cutoff = 2;
  svt::FlagSet flags;
  flags.AddDouble("epsilon", &epsilon, "privacy budget for every variant");
  flags.AddInt64("cutoff", &cutoff, "c (max positive outcomes)");
  SVT_CHECK_OK(flags.Parse(argc, argv));
  if (!svt::CanSplitEpsilon(epsilon)) {
    std::cerr << "--epsilon " << epsilon
              << " is too small to split between threshold and query noise\n"
              << flags.Usage(argv[0]);
    return 2;
  }
  const int c = static_cast<int>(cutoff);

  using svt::VariantId;
  const std::vector<VariantId> ids = {
      VariantId::kAlg1, VariantId::kAlg2, VariantId::kAlg3,
      VariantId::kAlg4, VariantId::kAlg5, VariantId::kAlg6};

  std::cout << "Figure 2: differences among Algorithms 1-6 (epsilon = "
            << epsilon << ", c = " << c << ")\n\n";

  svt::TablePrinter params({"Algorithm", "eps1", "rho scale", "nu scale",
                            "resample rho", "numeric out", "cutoff",
                            "claimed", "actual (paper)"});
  for (VariantId id : ids) {
    const svt::VariantSpec s = svt::MakeSpec(id, epsilon, 1.0, c);
    params.AddRow(
        {s.name, Fmt(s.budget.epsilon1, 3), Fmt(s.rho_scale, 2),
         Fmt(s.nu_scale, 2), s.resample_rho_after_positive ? "yes" : "no",
         s.output_query_value_on_positive ? "q+nu" : "no",
         s.cutoff.has_value() ? std::to_string(*s.cutoff) : "unbounded",
         "eps-DP",
         s.actual_privacy == svt::PrivacyClass::kPureDp ? "eps-DP"
         : s.actual_privacy == svt::PrivacyClass::kScaledDp
             ? Fmt(s.privacy_scale_factor, 2) + "*eps-DP"
             : "inf-DP"});
  }
  params.Print(std::cout);

  std::cout << "\nMeasured privacy (max |log ratio| between neighbors; "
               "closed-form quadrature):\n\n";

  // (a) ε-DP variants: pattern search over a worst-case shift instance.
  {
    svt::TablePrinter table({"Algorithm", "bound", "measured", "witness"});
    const std::vector<double> qd = {0.0, 0.2, -0.5, 0.8};
    const std::vector<double> up = {1.0, 1.2, 0.5, 1.8};
    const std::vector<double> mixed = {1.0, -0.8, 0.5, 1.8};
    for (VariantId id :
         {VariantId::kAlg1, VariantId::kAlg2, VariantId::kAlg4}) {
      const svt::VariantSpec s = svt::MakeSpec(id, epsilon, 1.0, c);
      double worst = 0.0;
      std::string witness;
      for (const auto& qdp : {up, mixed}) {
        const auto r = svt::MaxAbsLogRatioOverPatterns(s, qd, qdp, 0.1);
        if (r.max_abs_log_ratio > worst) {
          worst = r.max_abs_log_ratio;
          witness = r.argmax_pattern;
        }
      }
      // Alg. 4's stress family gets closer to its (1+6c)/4 bound.
      if (id == VariantId::kAlg4) {
        const auto inst = svt::Alg4StressInstance(c, 12, 80.0);
        const auto rep = svt::AuditInstance(s, inst);
        if (rep.abs_log_ratio() > worst) {
          worst = rep.abs_log_ratio();
          witness = "alg4-stress";
        }
      }
      const double bound = s.actual_privacy == svt::PrivacyClass::kScaledDp
                               ? s.privacy_scale_factor * epsilon
                               : epsilon;
      table.AddRow({s.name, Fmt(bound, 3), Fmt(worst), witness});
    }
    table.Print(std::cout);
  }

  // (b) ∞-DP variants: counterexample families with growing m.
  std::cout << "\nUnbounded families (log-ratio vs. instance size m):\n\n";
  {
    svt::TablePrinter table(
        {"Algorithm", "m=1", "m=2", "m=4", "m=8", "m=12", "theory"});
    const std::vector<int> ms = {1, 2, 4, 8, 12};

    const auto row = [&](const svt::VariantSpec& s, auto make_instance,
                         const std::string& theory) {
      std::vector<std::string> cells = {s.name};
      for (int m : ms) {
        const auto rep = svt::AuditInstance(s, make_instance(m));
        cells.push_back(Fmt(rep.abs_log_ratio(), 3));
      }
      cells.push_back(theory);
      table.AddRow(std::move(cells));
    };

    row(svt::MakeAlg3Spec(epsilon, 1.0, 1),
        [](int m) { return svt::Alg3Counterexample(m); },
        "(m-1)*eps/2");
    row(svt::MakeAlg6Spec(epsilon, 1.0),
        [](int m) { return svt::Alg6Counterexample(m); }, ">= m*eps/2");
    row(svt::MakeGpttSpec(epsilon / 2.0, epsilon / 2.0, 1.0),
        [](int m) { return svt::GpttCounterexample(m); }, "unbounded");
    table.Print(std::cout);
  }

  // (d) Beyond Figure 2: the exponential-noise variants go through the
  // same measured-privacy harness as the ε-DP row.
  std::cout << "\nBeyond Figure 2: exponential-noise variants:\n\n";
  {
    svt::TablePrinter table({"Algorithm", "rho noise", "nu noise", "bound",
                             "measured", "witness"});
    const std::vector<double> qd = {0.0, 0.2, -0.5, 0.8};
    const std::vector<double> up = {1.0, 1.2, 0.5, 1.8};
    const std::vector<double> mixed = {1.0, -0.8, 0.5, 1.8};
    const auto kind_name = [](svt::NoiseKind k) {
      return k == svt::NoiseKind::kExponential ? "Exp" : "Lap";
    };
    for (VariantId id : {VariantId::kExpNoise, VariantId::kRevisited}) {
      const svt::VariantSpec s = svt::MakeSpec(id, epsilon, 1.0, c);
      double worst = 0.0;
      std::string witness;
      for (const auto& qdp : {up, mixed}) {
        const auto r = svt::MaxAbsLogRatioOverPatterns(s, qd, qdp, 0.1);
        if (r.max_abs_log_ratio > worst) {
          worst = r.max_abs_log_ratio;
          witness = r.argmax_pattern;
        }
      }
      table.AddRow({s.name, kind_name(s.rho_kind), kind_name(s.nu_kind),
                    Fmt(epsilon, 3), Fmt(worst), witness});
    }
    table.Print(std::cout);
  }

  // (c) Alg. 5: the ratio is literally infinite on a 2-query instance.
  {
    const svt::VariantSpec s = svt::MakeAlg5Spec(epsilon, 1.0);
    const auto rep = svt::AuditInstance(s, svt::Alg5Counterexample());
    std::cout << "\n" << s.name << " on Theorem 3's instance: Pr[D] = e^"
              << Fmt(rep.log_p_d, 3) << ", Pr[D'] = "
              << (std::isinf(rep.log_p_dprime) ? "0 (exactly)" : "nonzero")
              << "  =>  ratio is "
              << (rep.infinite() ? "INFINITE (not eps'-DP for any eps')"
                                 : "bounded")
              << "\n";
  }

  return 0;
}
