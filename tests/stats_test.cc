// Tests for descriptive statistics.
#include "src/util/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace cloudgen {
namespace {

TEST(Stats, MeanAndVariance) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_NEAR(Variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, EmptyAndSingletonEdgeCases) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0 / 3.0), 20.0);
}

TEST(Stats, QuantileUnsortedInput) {
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

// Quantile must be monotone in q for any data (property sweep).
class QuantileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotoneTest, MonotoneInQ) {
  std::vector<double> v;
  unsigned state = static_cast<unsigned>(GetParam());
  for (int i = 0; i < 50; ++i) {
    state = state * 1664525u + 1013904223u;
    v.push_back(static_cast<double>(state % 1000) / 10.0);
  }
  double prev = Quantile(v, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = Quantile(v, q);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotoneTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace cloudgen
