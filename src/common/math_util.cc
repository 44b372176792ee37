#include "common/math_util.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

namespace svt {

std::string FormatDouble(double x) {
  // 32 chars comfortably fits the longest shortest-round-trip double
  // (sign + 17 significand digits + decimal point + "e-308").
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), x);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("?");
}

double LogAddExp(double a, double b) {
  if (std::isinf(a) && a < 0.0) return b;
  if (std::isinf(b) && b < 0.0) return a;
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

double LogSumExp(std::span<const double> values) {
  if (values.empty()) return -std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : values) hi = std::max(hi, v);
  if (std::isinf(hi)) return hi;
  double acc = 0.0;
  for (double v : values) acc += std::exp(v - hi);
  return hi + std::log(acc);
}

void KahanAccumulator::Add(double value) {
  const double y = value - compensation_;
  const double t = sum_ + y;
  compensation_ = (t - sum_) - y;
  sum_ = t;
}

void KahanAccumulator::Reset() {
  sum_ = 0.0;
  compensation_ = 0.0;
}

}  // namespace svt
