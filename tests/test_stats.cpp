#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/rng.hpp"

namespace gtrix {
namespace {

TEST(Summary, EmptyState) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, MergeMatchesSequential) {
  Rng rng(1);
  Summary all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a;
  a.add(1.0);
  a.add(2.0);
  Summary b;
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Quantile, MedianOdd) {
  std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Quantile, MedianEvenInterpolates) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Quantile, Extremes) {
  std::vector<double> xs = {4.0, 2.0, 8.0, 6.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 8.0);
}

TEST(Quantile, EmptyIsNaN) {
  std::vector<double> xs;
  EXPECT_TRUE(std::isnan(quantile(xs, 0.5)));
}

TEST(Quantile, ClampsOutOfRangeQ) {
  std::vector<double> xs = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 2.0), 2.0);
}

TEST(LogQuantileSketchTest, EmptyIsNaN) {
  LogQuantileSketch sketch;
  EXPECT_TRUE(std::isnan(sketch.quantile(0.5)));
  EXPECT_TRUE(sketch.empty());
}

TEST(LogQuantileSketchTest, GuaranteedRelativeErrorOnUniformStream) {
  LogQuantileSketch sketch(0.01);
  std::vector<double> all;
  std::uint64_t state = 88172645463325252ULL;
  for (int i = 0; i < 50000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double x = 0.01 + static_cast<double>(state % 1000000ULL) / 1000.0;  // 0.01..1000
    sketch.add(x);
    all.push_back(x);
  }
  for (const double q : {0.01, 0.5, 0.9, 0.99, 0.999}) {
    const double exact = quantile(all, q);
    EXPECT_NEAR(sketch.quantile(q), exact, 0.015 * exact + 1e-6) << "q=" << q;
  }
}

TEST(LogQuantileSketchTest, PointMassMixtureStaysAccurate) {
  // The distribution shape that wedges P-squared markers: a large point
  // mass at a small value plus a sparse far tail (Fig. 5's deviations).
  LogQuantileSketch sketch(0.01);
  std::vector<double> all;
  for (int i = 0; i < 9000; ++i) {
    sketch.add(0.5);
    all.push_back(0.5);
  }
  for (int i = 0; i < 1000; ++i) {
    const double x = 100.0 + static_cast<double>(i % 50);
    sketch.add(x);
    all.push_back(x);
  }
  EXPECT_NEAR(sketch.quantile(0.5), 0.5, 0.02 * 0.5);
  const double exact_p95 = quantile(all, 0.95);
  EXPECT_NEAR(sketch.quantile(0.95), exact_p95, 0.02 * exact_p95);
}

TEST(LogQuantileSketchTest, ZerosAndExtremesAreHandled) {
  LogQuantileSketch sketch;
  for (int i = 0; i < 10; ++i) sketch.add(0.0);
  sketch.add(1e15);  // beyond the top bin: saturates, never lost
  EXPECT_EQ(sketch.count(), 11u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 0.0);
  EXPECT_GT(sketch.quantile(1.0), 1e11);
  EXPECT_GT(sketch.memory_bytes(), 0u);
}

}  // namespace
}  // namespace gtrix
