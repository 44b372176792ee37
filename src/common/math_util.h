// Small numeric helpers shared across modules.

#ifndef SPARSEVEC_COMMON_MATH_UTIL_H_
#define SPARSEVEC_COMMON_MATH_UTIL_H_

#include <span>
#include <string>
#include <vector>

namespace svt {

/// Shortest decimal string that parses back to exactly `x` (std::to_chars
/// round-trip form). Error messages about budget boundaries use this:
/// std::to_string's fixed 6 digits can print a genuinely over-budget charge
/// as "1.000000 + 0.100000 > total 1.000000".
std::string FormatDouble(double x);

/// log(exp(a) + exp(b)) without overflow.
double LogAddExp(double a, double b);

/// log(sum_i exp(values[i])) without overflow. Returns -inf for empty input.
double LogSumExp(std::span<const double> values);

/// Kahan compensated summation; keeps long experiment accumulations exact to
/// within a couple of ulps.
class KahanAccumulator {
 public:
  void Add(double value);
  double sum() const { return sum_; }
  void Reset();

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

}  // namespace svt

#endif  // SPARSEVEC_COMMON_MATH_UTIL_H_
