#include "core/svt_variants.h"

#include <cmath>
#include <utility>

namespace svt {

namespace {

Status CheckArgs(double epsilon, double sensitivity, Rng* rng) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  if (!(sensitivity > 0.0) || !std::isfinite(sensitivity)) {
    return Status::InvalidArgument("sensitivity must be positive and finite");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("rng must not be null");
  }
  return Status::OK();
}

Status CheckCutoff(int cutoff) {
  if (cutoff < 1) return Status::InvalidArgument("cutoff must be >= 1");
  return Status::OK();
}

Result<std::unique_ptr<SparseVector>> Build(VariantSpec spec, Rng* rng) {
  SVT_RETURN_NOT_OK(spec.Validate());
  return std::make_unique<SparseVector>(std::move(spec), rng);
}

}  // namespace

Result<std::unique_ptr<SparseVector>> DworkRothSvt::Create(
    double epsilon, double sensitivity, int cutoff, Rng* rng) {
  SVT_RETURN_NOT_OK(CheckArgs(epsilon, sensitivity, rng));
  SVT_RETURN_NOT_OK(CheckCutoff(cutoff));
  return Build(MakeAlg2Spec(epsilon, sensitivity, cutoff), rng);
}

Result<std::unique_ptr<SparseVector>> RothNotesSvt::Create(
    double epsilon, double sensitivity, int cutoff, Rng* rng) {
  SVT_RETURN_NOT_OK(CheckArgs(epsilon, sensitivity, rng));
  SVT_RETURN_NOT_OK(CheckCutoff(cutoff));
  return Build(MakeAlg3Spec(epsilon, sensitivity, cutoff), rng);
}

Result<std::unique_ptr<SparseVector>> LeeCliftonSvt::Create(
    double epsilon, double sensitivity, int cutoff, Rng* rng,
    bool monotonic) {
  SVT_RETURN_NOT_OK(CheckArgs(epsilon, sensitivity, rng));
  SVT_RETURN_NOT_OK(CheckCutoff(cutoff));
  return Build(MakeAlg4Spec(epsilon, sensitivity, cutoff, monotonic), rng);
}

Result<std::unique_ptr<SparseVector>> StoddardSvt::Create(double epsilon,
                                                          double sensitivity,
                                                          Rng* rng) {
  SVT_RETURN_NOT_OK(CheckArgs(epsilon, sensitivity, rng));
  return Build(MakeAlg5Spec(epsilon, sensitivity), rng);
}

Result<std::unique_ptr<SparseVector>> ChenSvt::Create(double epsilon,
                                                      double sensitivity,
                                                      Rng* rng) {
  SVT_RETURN_NOT_OK(CheckArgs(epsilon, sensitivity, rng));
  return Build(MakeAlg6Spec(epsilon, sensitivity), rng);
}

Result<std::unique_ptr<SparseVector>> Gptt::Create(double epsilon1,
                                                   double epsilon2,
                                                   double sensitivity,
                                                   Rng* rng) {
  if (!(epsilon1 > 0.0) || !(epsilon2 > 0.0)) {
    return Status::InvalidArgument("epsilon1/epsilon2 must be positive");
  }
  SVT_RETURN_NOT_OK(CheckArgs(epsilon1 + epsilon2, sensitivity, rng));
  return Build(MakeGpttSpec(epsilon1, epsilon2, sensitivity), rng);
}

Result<std::unique_ptr<SparseVector>> ExpNoiseSvt::Create(
    double epsilon, double sensitivity, int cutoff, Rng* rng) {
  SVT_RETURN_NOT_OK(CheckArgs(epsilon, sensitivity, rng));
  SVT_RETURN_NOT_OK(CheckCutoff(cutoff));
  return Build(MakeExpNoiseSpec(epsilon, sensitivity, cutoff), rng);
}

Result<std::unique_ptr<SparseVector>> RevisitedSvt::Create(
    double epsilon, double sensitivity, int cutoff, Rng* rng) {
  SVT_RETURN_NOT_OK(CheckArgs(epsilon, sensitivity, rng));
  SVT_RETURN_NOT_OK(CheckCutoff(cutoff));
  return Build(MakeRevisitedSpec(epsilon, sensitivity, cutoff), rng);
}

Result<std::unique_ptr<SparseVector>> MakeVariantMechanism(
    VariantId id, double epsilon, double sensitivity, int cutoff, Rng* rng) {
  SVT_RETURN_NOT_OK(CheckArgs(epsilon, sensitivity, rng));
  // GPTT and Alg. 7 split ε in halves, and their spec makers abort on a
  // zero half.
  if (!(epsilon / 2.0 > 0.0)) {
    return Status::InvalidArgument("epsilon is too small to split");
  }
  if (id != VariantId::kAlg5 && id != VariantId::kAlg6 &&
      id != VariantId::kGptt) {
    SVT_RETURN_NOT_OK(CheckCutoff(cutoff));
  }
  return Build(MakeSpec(id, epsilon, sensitivity, cutoff), rng);
}

}  // namespace svt
