#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace cloudgen {

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) {
    return 0.0;
  }
  const double m = Mean(values);
  double acc = 0.0;
  for (double v : values) {
    acc += (v - m) * (v - m);
  }
  return acc / static_cast<double>(values.size() - 1);
}

double StdDev(const std::vector<double>& values) { return std::sqrt(Variance(values)); }

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  CG_CHECK(q >= 0.0 && q <= 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= sorted.size()) {
    return sorted.back();
  }
  return sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac;
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

}  // namespace cloudgen
