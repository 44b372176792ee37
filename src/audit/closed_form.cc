#include "audit/closed_form.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/distributions.h"
#include "common/math_util.h"

namespace svt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One maximal run of events sharing a single ρ draw. For variants that
// never resample, the whole pattern is one segment; for Alg. 2 a segment
// ends at (and includes) each positive outcome.
struct Segment {
  size_t begin = 0;  // [begin, end) into the pattern
  size_t end = 0;
  double rho_scale = 0.0;
};

// Per-role audit-side distribution, dispatching the density/CDF calls on
// the spec's NoiseKind. Exponential support is one-sided [0, ∞): its
// LogPdf/LogCdf are -inf below 0, and SegmentLogProbability additionally
// clamps the integration window to the support — exact (the excluded
// region carries zero mass) and it keeps the integrator's peak search
// inside the non-degenerate part of the integrand.
class NoiseDist {
 public:
  NoiseDist(NoiseKind kind, double scale)
      : kind_(kind),
        lap_(Laplace::Centered(scale)),
        exp_(Exponential::FromScale(scale)) {}

  double LogPdf(double x) const {
    return kind_ == NoiseKind::kLaplace ? lap_.LogPdf(x) : exp_.LogPdf(x);
  }
  double LogCdf(double x) const {
    return kind_ == NoiseKind::kLaplace ? lap_.LogCdf(x) : exp_.LogCdf(x);
  }
  double LogSf(double x) const {
    return kind_ == NoiseKind::kLaplace ? lap_.LogSf(x) : exp_.LogSf(x);
  }

 private:
  NoiseKind kind_;
  Laplace lap_;
  Exponential exp_;
};

// log Pr[events in segment | its ρ ~ Lap(rho_scale)], integrating over ρ.
double SegmentLogProbability(const VariantSpec& spec, const Segment& seg,
                             std::span<const double> q,
                             std::span<const double> t,
                             std::span<const OutputEvent> pattern,
                             const IntegrationOptions& options) {
  const double nu_scale = spec.nu_scale;
  const NoiseDist rho_dist(spec.rho_kind, seg.rho_scale);
  const NoiseDist nu_dist(spec.nu_kind, nu_scale > 0.0 ? nu_scale : 1.0);

  double z_lo = -kInf;       // hard constraints from indicator factors
  double z_hi = kInf;
  double log_const = 0.0;    // z-independent log factors (numeric densities)
  if (spec.rho_kind == NoiseKind::kExponential) {
    // One-sided ρ: p_ρ(z) = 0 for z < 0, so the support boundary is a hard
    // integration limit, exactly like an indicator constraint.
    z_lo = std::max(z_lo, 0.0);
  }

  // Smooth per-event factors: sign = +1 for a CDF term (⊥), -1 for a
  // survival term (⊤); each kinks at z = q_i − t_i.
  struct SmoothFactor {
    double center;  // q_i − t_i
    bool is_cdf;
  };
  std::vector<SmoothFactor> factors;
  std::vector<double> knots = {0.0};  // ρ density kink

  for (size_t i = seg.begin; i < seg.end; ++i) {
    const OutputEvent& ev = pattern[i];
    const double center = q[i] - t[i];
    switch (ev.kind) {
      case OutputEvent::Kind::kBelow:
        if (nu_scale == 0.0) {
          // q_i < t_i + z  ⇔  z > q_i − t_i.
          z_lo = std::max(z_lo, center);
        } else {
          factors.push_back({center, /*is_cdf=*/true});
          knots.push_back(center);
          if (spec.nu_kind == NoiseKind::kExponential) {
            // ν_i ≥ 0 makes the CDF factor F_ν(z − center) identically 0
            // for z ≤ center — a hard support bound on top of the smooth
            // factor. Clamping is exact (zero mass excluded; the boundary
            // point itself has measure zero).
            z_lo = std::max(z_lo, center);
          }
        }
        break;
      case OutputEvent::Kind::kAbove:
        SVT_CHECK(!spec.emits_numeric() || spec.numeric_scale > 0.0)
            << spec.name << " emits numeric answers; pattern must use "
            << "kAboveValue";
        if (nu_scale == 0.0) {
          // q_i ≥ t_i + z  ⇔  z ≤ q_i − t_i.
          z_hi = std::min(z_hi, center);
        } else {
          factors.push_back({center, /*is_cdf=*/false});
          knots.push_back(center);
        }
        break;
      case OutputEvent::Kind::kAboveValue:
        if (spec.output_query_value_on_positive) {
          // Alg. 3: event {ν_i = a_i − q_i} ∧ {a_i ≥ t_i + z}. The emitted
          // value caps the noisy threshold — the leak of Theorem 6.
          if (nu_scale == 0.0) {
            if (ev.value != q[i]) return -kInf;
            z_hi = std::min(z_hi, center);
          } else {
            // Under exponential ν a value below q_i is outside the noise
            // support: LogPdf is -inf and the pattern is impossible.
            const double log_nu_pdf = nu_dist.LogPdf(ev.value - q[i]);
            if (log_nu_pdf == -kInf) return -kInf;
            log_const += log_nu_pdf;
            z_hi = std::min(z_hi, ev.value - t[i]);
          }
        } else if (spec.numeric_scale > 0.0) {
          // Alg. 7 with ε₃: fresh Laplace answer, independent of z.
          log_const +=
              Laplace::Centered(spec.numeric_scale).LogPdf(ev.value - q[i]);
          if (nu_scale == 0.0) {
            z_hi = std::min(z_hi, center);
          } else {
            factors.push_back({center, /*is_cdf=*/false});
            knots.push_back(center);
          }
        } else {
          // Indicator-only variant cannot emit values.
          return -kInf;
        }
        break;
    }
  }

  if (z_lo >= z_hi) return -kInf;

  // Integration window: beyond ~80 ρ-scales (plus the span of the kinks and
  // a ν-scale margin) every remaining factor is within e-80 of its limit,
  // far below the integrator's tolerance relative to the interior mass.
  double knot_lo = 0.0;
  double knot_hi = 0.0;
  for (double k : knots) {
    knot_lo = std::min(knot_lo, k);
    knot_hi = std::max(knot_hi, k);
  }
  const double spread = 80.0 * seg.rho_scale + 40.0 * nu_scale;
  const double lo = std::max(z_lo, knot_lo - spread);
  const double hi = std::min(z_hi, knot_hi + spread);
  if (lo >= hi) return -kInf;

  const auto log_integrand = [&](double z) {
    double acc = rho_dist.LogPdf(z);
    for (const SmoothFactor& f : factors) {
      // ⊥: Pr[q+ν < t+z] = F_ν(z − center); ⊤: Pr[q+ν ≥ t+z] = Sf strictly,
      // but both noise kinds are atomless so Cdf/Sf at the point coincide
      // a.e. Every term stays concave in z on the (clamped) window —
      // Laplace log-pdf/log-CDF/log-SF are concave, exponential log-pdf and
      // log-SF are linear on the support and its log-CDF is concave — which
      // is what LogIntegratePiecewise's peak search requires.
      acc += f.is_cdf ? nu_dist.LogCdf(z - f.center)
                      : nu_dist.LogSf(z - f.center);
    }
    return acc;
  };

  const double log_integral =
      LogIntegratePiecewise(log_integrand, lo, hi, knots, options);
  return log_const + log_integral;
}

}  // namespace

std::vector<OutputEvent> PatternFromString(const std::string& pattern) {
  std::vector<OutputEvent> out;
  out.reserve(pattern.size());
  for (char c : pattern) {
    switch (c) {
      case '_':
        out.push_back(OutputEvent::Below());
        break;
      case 'T':
        out.push_back(OutputEvent::Above());
        break;
      default:
        SVT_CHECK(false) << "pattern characters must be '_' or 'T', got '"
                         << c << "'";
    }
  }
  return out;
}

double LogOutputProbability(const VariantSpec& spec,
                            std::span<const double> query_answers,
                            std::span<const double> thresholds,
                            std::span<const OutputEvent> pattern,
                            const IntegrationOptions& options) {
  const Status valid = spec.Validate();
  SVT_CHECK(valid.ok()) << spec.name << ": " << valid.message();
  SVT_CHECK(query_answers.size() >= pattern.size())
      << "answers/pattern length mismatch";
  SVT_CHECK(thresholds.size() >= pattern.size())
      << "thresholds/pattern length mismatch";
  if (pattern.empty()) return 0.0;  // probability 1

  // Cutoff validity: after the c-th positive the mechanism aborts, so no
  // further output positions can exist.
  if (spec.cutoff.has_value()) {
    int positives = 0;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (pattern[i].is_positive()) {
        ++positives;
        if (positives == *spec.cutoff && i + 1 != pattern.size()) {
          return -kInf;  // output continued after abort
        }
      }
    }
    if (positives > *spec.cutoff) return -kInf;
  }

  // Split into segments of constant ρ.
  std::vector<Segment> segments;
  if (!spec.resample_rho_after_positive) {
    segments.push_back({0, pattern.size(), spec.rho_scale});
  } else {
    size_t begin = 0;
    double scale = spec.rho_scale;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (pattern[i].is_positive()) {
        segments.push_back({begin, i + 1, scale});
        begin = i + 1;
        scale = spec.rho_resample_scale;
      }
    }
    if (begin < pattern.size()) {
      segments.push_back({begin, pattern.size(), scale});
    }
  }

  double log_prob = 0.0;
  for (const Segment& seg : segments) {
    const double lp = SegmentLogProbability(spec, seg, query_answers,
                                            thresholds, pattern, options);
    if (lp == -kInf) return -kInf;
    log_prob += lp;
  }
  return log_prob;
}

double LogOutputProbability(const VariantSpec& spec,
                            std::span<const double> query_answers,
                            double threshold,
                            std::span<const OutputEvent> pattern,
                            const IntegrationOptions& options) {
  std::vector<double> thresholds(query_answers.size(), threshold);
  return LogOutputProbability(spec, query_answers, thresholds, pattern,
                              options);
}

double OutputProbability(const VariantSpec& spec,
                         std::span<const double> query_answers,
                         double threshold,
                         std::span<const OutputEvent> pattern,
                         const IntegrationOptions& options) {
  return std::exp(
      LogOutputProbability(spec, query_answers, threshold, pattern, options));
}

}  // namespace svt
