// Descriptive statistics used by evaluation code: means, variances and
// quantiles.
#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <vector>

namespace cloudgen {

// Arithmetic mean; returns 0 for empty input.
double Mean(const std::vector<double>& values);

// Unbiased sample variance (n-1 denominator); returns 0 for n < 2.
double Variance(const std::vector<double>& values);

double StdDev(const std::vector<double>& values);

// Linear-interpolation quantile (type 7, as in NumPy default). `q` in [0, 1].
// The input need not be sorted. Returns 0 for empty input.
double Quantile(std::vector<double> values, double q);

// Quantile for data already sorted ascending.
double QuantileSorted(const std::vector<double>& sorted, double q);

}  // namespace cloudgen

#endif  // SRC_UTIL_STATS_H_
