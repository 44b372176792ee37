#include "core/svt.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/distributions.h"
#include "core/batch_runner.h"

namespace svt {

namespace {

// A call's bar for query i, and the bars of its queries from `head` on:
// one common threshold, or one threshold per query.
double BarAt(double threshold, size_t) { return threshold; }
double BarAt(std::span<const double> thresholds, size_t i) {
  return thresholds[i];
}
double Tail(double threshold, size_t) { return threshold; }
std::span<const double> Tail(std::span<const double> thresholds,
                             size_t head) {
  return thresholds.subspan(head);
}

}  // namespace

SparseVector::SparseVector(VariantSpec spec, Rng* rng)
    : spec_(std::move(spec)), rng_(rng) {
  SVT_CHECK(rng_ != nullptr);
  const Status valid = spec_.Validate();
  SVT_CHECK(valid.ok()) << spec_.name << ": " << valid.message();
  InitRun();
}

void SparseVector::InitRun() {
  // Draw-order contract steps 1: ρ from the base stream, then one base
  // draw seeds the ν substream. The seeding always happens — even for
  // specs without query noise — so the base stream position is a function
  // of Reset() count alone.
  state_.rho = SampleNoise(*rng_, spec_.rho_kind, spec_.rho_scale);
  state_.nu_rng = Rng(rng_->NextUint64());
}

Response SparseVector::Process(double query_answer, double threshold) {
  SVT_CHECK(!state_.exhausted)
      << spec_.name
      << "::Process called after the cutoff exhausted the run; check "
         "exhausted() or call Reset()";
  ++state_.processed;
  const double nu =
      spec_.nu_scale > 0.0
          ? SampleNoise(state_.nu_rng, spec_.nu_kind, spec_.nu_scale)
          : 0.0;
  if (query_answer + nu >= threshold + state_.rho) {
    return TakePositive(spec_, rng_, &state_, query_answer, nu);
  }
  return Response::Below();
}

Response TakePositive(const VariantSpec& spec, Rng* base_rng,
                      SvtRunState* state, double answer, double nu) {
  ++state->positives;
  if (spec.cutoff.has_value() && state->positives >= *spec.cutoff) {
    state->exhausted = true;
  }
  if (spec.resample_rho_after_positive) {
    state->rho = SampleNoise(*base_rng, spec.rho_kind, spec.rho_resample_scale);
  }
  if (spec.output_query_value_on_positive) {
    // Alg. 3: emits the very noise used in the comparison — this is the
    // leak that makes it non-private.
    return Response::AboveValue(answer + nu);
  }
  if (spec.numeric_scale > 0.0) {
    // Alg. 7 line 6: answer the positive with a fresh Laplace draw funded
    // by ε₃ (never the comparison noise ν — that is Alg. 3's mistake).
    return Response::AboveValue(answer +
                                SampleLaplace(*base_rng, spec.numeric_scale));
  }
  return Response::Above();
}

void SparseVector::Reset() {
  InitRun();
  state_.positives = 0;
  state_.processed = 0;
  state_.exhausted = false;
  state_.batch = BatchRunStats{};
}

std::vector<Response> SparseVector::Run(std::span<const double> answers,
                                        std::span<const double> thresholds) {
  std::vector<Response> out;
  RunAppend(answers, thresholds, &out);
  return out;
}

std::vector<Response> SparseVector::Run(std::span<const double> answers,
                                        double threshold) {
  std::vector<Response> out;
  RunAppend(answers, threshold, &out);
  return out;
}

size_t SparseVector::RunAppend(std::span<const double> answers,
                               std::span<const double> thresholds,
                               std::vector<Response>* out) {
  BatchRunner::CheckArgs(answers, thresholds);
  return RunBars(answers, thresholds, out);
}

size_t SparseVector::RunAppend(std::span<const double> answers,
                               double threshold, std::vector<Response>* out) {
  return RunBars(answers, threshold, out);
}

size_t SparseVector::RunAppend(std::span<const double> answers,
                               double threshold,
                               const BoundPrefilter* prefilter,
                               std::vector<Response>* out) {
  BatchRunner::CheckArgs(answers, prefilter);
  // A prefilter's span grid is anchored at the array start, so a
  // prefiltered call the engine takes keeps a misaligned entry rather than
  // stream an alignment head; only a short call streams.
  if (prefilter == nullptr ||
      answers.size() < BatchRunner::kStreamingCutover) {
    return RunBars(answers, threshold, out);
  }
  return BatchRunner(spec_, rng_, &state_)
      .Run(answers, threshold, prefilter, out);
}

size_t SparseVector::StreamedHead(size_t n) const {
  // Short-call rule (core/batch_runner.h): the streaming loop is cheaper
  // here and emits the identical sequence.
  if (n < BatchRunner::kStreamingCutover) return n;
  // Alignment head: a call inherits the ν phase the previous one left, and
  // the fused pass runs its SIMD lanes only from a lane boundary, so the
  // loop draws the few variates up to the next one.
  if (spec_.nu_scale <= 0.0) return 0;
  const size_t wpv = WordsPerVariate(spec_.nu_kind);
  const size_t to_boundary =
      (BlockRng::kLanes - state_.nu_rng.state().phase) % BlockRng::kLanes;
  SVT_DCHECK(to_boundary % wpv == 0);
  return to_boundary / wpv;
}

template <typename Bars>
size_t SparseVector::RunBars(std::span<const double> answers, Bars bars,
                             std::vector<Response>* out) {
  const size_t head = StreamedHead(answers.size());
  if (head == 0) {
    return BatchRunner(spec_, rng_, &state_).Run(answers, bars, out);
  }
  BatchRunner::ReserveAppend(out, answers.size());
  const size_t n = Stream(answers.first(head), bars, out);
  state_.batch.streamed_queries += static_cast<int64_t>(n);
  if (head == answers.size() || state_.exhausted) return n;
  return n + BatchRunner(spec_, rng_, &state_)
                 .Run(answers.subspan(head), Tail(bars, head), out);
}

template <typename Bars>
size_t SparseVector::Stream(std::span<const double> answers, Bars bars,
                            std::vector<Response>* out) {
  size_t i = 0;
  for (; i < answers.size() && !state_.exhausted; ++i) {
    out->push_back(Process(answers[i], BarAt(bars, i)));
  }
  return i;
}

Status SvtOptions::Validate() const {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  if (!(sensitivity > 0.0) || !std::isfinite(sensitivity)) {
    return Status::InvalidArgument("sensitivity must be positive and finite");
  }
  if (cutoff < 1) {
    return Status::InvalidArgument("cutoff must be >= 1, got " +
                                   std::to_string(cutoff));
  }
  if (numeric_output_fraction < 0.0 || numeric_output_fraction >= 1.0) {
    return Status::InvalidArgument(
        "numeric_output_fraction must be in [0, 1)");
  }
  return Status::OK();
}

Result<std::unique_ptr<SparseVector>> SparseVector::Create(
    const SvtOptions& options, Rng* rng) {
  SVT_RETURN_NOT_OK(options.Validate());
  if (rng == nullptr) {
    return Status::InvalidArgument("rng must not be null");
  }
  const BudgetSplit split =
      options.allocation.Split(options.epsilon, options.numeric_output_fraction);
  if (!(split.epsilon1 > 0.0) || !(split.epsilon2 > 0.0)) {
    return Status::InvalidArgument(
        "epsilon is too small to split between threshold and query noise");
  }
  VariantSpec spec = MakeStandardSpec(split, options.sensitivity,
                                      options.cutoff, options.monotonic);
  spec.rho_kind = options.rho_kind;
  spec.nu_kind = options.nu_kind;
  if (options.resample_threshold_noise) {
    spec.resample_rho_after_positive = true;
    spec.rho_resample_scale = spec.rho_scale;
  }
  SVT_RETURN_NOT_OK(spec.Validate());
  return std::make_unique<SparseVector>(std::move(spec), rng);
}

}  // namespace svt
