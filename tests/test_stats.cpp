#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace gtrix {
namespace {

/// Sums [first, last) into a fresh ExactSum in the given order.
ExactSum sum_of(std::vector<double>::const_iterator first,
                std::vector<double>::const_iterator last) {
  ExactSum sum;
  for (; first != last; ++first) sum.add(*first);
  return sum;
}

double exact_sum(const std::vector<double>& xs) { return sum_of(xs.begin(), xs.end()).value(); }

/// Requires the same bits from every permutation of `xs`, and the same
/// words from every split of each permutation across two accumulators that
/// are then merged.
void expect_order_free(std::vector<double> xs, double expected) {
  std::sort(xs.begin(), xs.end());
  do {
    const ExactSum whole = sum_of(xs.begin(), xs.end());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(whole.value()), std::bit_cast<std::uint64_t>(expected))
        << "got " << whole.value() << ", want " << expected;
    for (auto split = xs.cbegin(); split <= xs.cend(); ++split) {
      ExactSum merged = sum_of(xs.cbegin(), split);
      merged.merge(sum_of(split, xs.cend()));
      EXPECT_TRUE(merged == whole) << "split after " << (split - xs.cbegin()) << " values";
    }
  } while (std::next_permutation(xs.begin(), xs.end()));
}

/// Requires that `xs` split across two sketches (alternate values) and
/// merged gives the one-sketch bins exactly.
void expect_split_sketch_merges_exactly(const std::vector<double>& xs) {
  LogQuantileSketch whole(0.01);
  LogQuantileSketch even(0.01);
  LogQuantileSketch odd(0.01);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    whole.add(xs[i]);
    (i % 2 == 0 ? even : odd).add(xs[i]);
  }
  even.merge(odd);
  EXPECT_TRUE(even == whole);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(even.quantile(0.9)),
            std::bit_cast<std::uint64_t>(whole.quantile(0.9)));
}

TEST(ExactSum, EmptyIsZero) {
  const ExactSum sum;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sum.value()), 0u);
}

TEST(ExactSum, SameBitsInEveryOrder) {
  const double big = 0x1p53;
  // Left to right, each 1 is a tie below big's ulp of 2 and rounds away.
  double naive = big;
  naive += 1.0;
  naive += 1.0;
  EXPECT_EQ(naive, big);
  expect_order_free({big, 1.0, 1.0}, big + 2.0);
  expect_order_free({0.1, 0.2, 0.3, 1e-3, 7.0, 1e6}, 1000007.601);
}

TEST(ExactSum, TiesRoundToEven) {
  expect_order_free({0x1p53, 1.0}, 0x1p53);              // 2^53 + 1: down to even
  expect_order_free({0x1p53 + 2.0, 1.0}, 0x1p53 + 4.0);  // 2^53 + 3: up to even
  expect_order_free({0x1p1000, 0x1p947}, 0x1p1000);      // exact half ulp: even
  // The same tie with one subnormal far below: no longer a tie, rounds up.
  expect_order_free({0x1p1000, 0x1p947, 0x1p-1074}, 0x1.0000000000001p+1000);
}

TEST(ExactSum, SubnormalsMixWithValuesNear2To1000) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(exact_sum({tiny, tiny, tiny}), 3 * tiny);
  // Subnormals that carry into the smallest normal exponent stay exact.
  const double min_normal = std::numeric_limits<double>::min();
  expect_order_free({min_normal / 2, min_normal / 2, tiny}, min_normal + tiny);
  expect_order_free({0x1p1000, tiny, 0x1.8p999, 3 * tiny, 0x1p-1060}, 0x1.cp1000);
  // 2^64 - 2^11 units of 2^-1074, plus 2^11 - 1 units, fill word 0 with
  // ones; one more unit carries into word 1, in an add or in a merge.
  const double high_bits = 0x1.fffffffffffffp-1011;
  const double low_bits = 2047 * tiny;
  expect_order_free({high_bits, low_bits, tiny}, 0x1p-1010);
  // The exact sum leaves the double range: +inf, as correct rounding says.
  const double max = std::numeric_limits<double>::max();
  EXPECT_EQ(exact_sum({max, tiny}), max);
  EXPECT_EQ(exact_sum({max, max}), std::numeric_limits<double>::infinity());
}

TEST(ExactSum, AMillionEqualValues) {
  ExactSum sum;
  double naive = 0.0;
  for (int i = 0; i < 1000000; ++i) {
    sum.add(0.1);
    naive += 0.1;
  }
  // 10^6 x the double nearest 0.1, rounded once, is exactly 100000.
  EXPECT_EQ(sum.value(), 100000.0);
  EXPECT_NE(naive, 100000.0);
}

TEST(ExactSum, RejectsNegativeAndNonFiniteValues) {
  ExactSum sum;
  EXPECT_THROW(sum.add(-1.0), std::logic_error);
  EXPECT_THROW(sum.add(std::numeric_limits<double>::quiet_NaN()), std::logic_error);
  EXPECT_THROW(sum.add(std::numeric_limits<double>::infinity()), std::logic_error);
  sum.add(-0.0);
  sum.add(2.5);
  EXPECT_EQ(sum.value(), 2.5);
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
  expect_split_sketch_merges_exactly({});
}

TEST(LogQuantileSketchTest, MergeRequiresTheSameBinning) {
  LogQuantileSketch sketch(0.01);
  EXPECT_THROW(sketch.merge(LogQuantileSketch(0.02)), std::logic_error);
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
  expect_split_sketch_merges_exactly(all);
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
  expect_split_sketch_merges_exactly(all);
}

TEST(LogQuantileSketchTest, ZerosAndExtremesAreHandled) {
  LogQuantileSketch sketch;
  for (int i = 0; i < 10; ++i) sketch.add(0.0);
  sketch.add(1e15);  // beyond the top bin: saturates, never lost
  EXPECT_EQ(sketch.count(), 11u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 0.0);
  EXPECT_GT(sketch.quantile(1.0), 1e11);
  EXPECT_GT(sketch.memory_bytes(), 0u);
  std::vector<double> all(10, 0.0);
  all.push_back(1e15);
  expect_split_sketch_merges_exactly(all);
}

}  // namespace
}  // namespace gtrix
