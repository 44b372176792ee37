#include "interactive/session.h"

#include "common/check.h"

namespace svt {

Status SessionOptions::Validate() const {
  if (!(total_epsilon > 0.0)) {
    return Status::InvalidArgument("total_epsilon must be positive");
  }
  if (!(epsilon_per_round > 0.0)) {
    return Status::InvalidArgument("epsilon_per_round must be positive");
  }
  if (epsilon_per_round > total_epsilon) {
    return Status::InvalidArgument(
        "epsilon_per_round exceeds total_epsilon");
  }
  SvtOptions round_check = round;
  round_check.epsilon = epsilon_per_round;
  return round_check.Validate();
}

Result<std::unique_ptr<AboveThresholdSession>> AboveThresholdSession::Create(
    const SessionOptions& options, Rng* rng) {
  SVT_RETURN_NOT_OK(options.Validate());
  if (rng == nullptr) {
    return Status::InvalidArgument("rng must not be null");
  }
  return std::unique_ptr<AboveThresholdSession>(
      new AboveThresholdSession(options, rng));
}

AboveThresholdSession::AboveThresholdSession(const SessionOptions& options,
                                             Rng* rng)
    : options_(options), rng_(rng), accountant_(options.total_epsilon) {}

Status AboveThresholdSession::EnsureActiveRound() {
  if (current_ != nullptr && !current_->exhausted()) return Status::OK();
  // Fund a fresh round; the whole run costs epsilon_per_round upfront
  // (that is what the SVT privacy proof accounts for).
  SVT_RETURN_NOT_OK(accountant_.Charge(options_.epsilon_per_round));
  SvtOptions round = options_.round;
  round.epsilon = options_.epsilon_per_round;
  SVT_ASSIGN_OR_RETURN(std::unique_ptr<SparseVector> mech,
                       SparseVector::Create(round, rng_));
  current_ = std::move(mech);
  ++rounds_started_;
  return Status::OK();
}

Result<Response> AboveThresholdSession::Process(double query_answer,
                                                double threshold) {
  SVT_RETURN_NOT_OK(EnsureActiveRound());
  const Response r = current_->Process(query_answer, threshold);
  ++queries_processed_;
  if (r.is_positive()) ++positives_emitted_;
  return r;
}

size_t AboveThresholdSession::RunRounds(
    size_t num_queries,
    const std::function<size_t(size_t consumed, std::vector<Response>* out)>&
        run_round,
    std::vector<Response>* out) {
  const size_t start = out->size();
  size_t consumed = 0;
  while (consumed < num_queries) {
    if (!EnsureActiveRound().ok()) break;  // budget cannot fund the round
    const int before = current_->positives_emitted();
    consumed += run_round(consumed, out);
    positives_emitted_ += current_->positives_emitted() - before;
  }
  queries_processed_ += static_cast<int64_t>(out->size() - start);
  return out->size() - start;
}

size_t AboveThresholdSession::RunAppend(std::span<const double> answers,
                                        double threshold,
                                        std::vector<Response>* out) {
  return RunRounds(
      answers.size(),
      [&](size_t consumed, std::vector<Response>* o) {
        return current_->RunAppend(answers.subspan(consumed), threshold, o);
      },
      out);
}

size_t AboveThresholdSession::RunAppend(std::span<const double> answers,
                                        std::span<const double> thresholds,
                                        std::vector<Response>* out) {
  SVT_CHECK(answers.size() == thresholds.size())
      << "answers/thresholds size mismatch: " << answers.size() << " vs "
      << thresholds.size();
  return RunRounds(
      answers.size(),
      [&](size_t consumed, std::vector<Response>* o) {
        return current_->RunAppend(answers.subspan(consumed),
                                   thresholds.subspan(consumed), o);
      },
      out);
}

bool AboveThresholdSession::exhausted() const {
  if (current_ != nullptr && !current_->exhausted()) return false;
  // Next query would need a new round; ask the accountant itself (the old
  // re-derived 1e-12 tolerance could disagree with Charge's 1e-9 slack at
  // the boundary, refusing fundable rounds or promising unfundable ones).
  return !accountant_.CanCharge(options_.epsilon_per_round);
}

}  // namespace svt
