#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace gtrix {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsProduceDistinctStreams) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 256; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-3.0, 7.5);
    ASSERT_GE(x, -3.0);
    ASSERT_LT(x, 7.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(0.0, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowIsInRange) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.uniform_int(-2, 2);
    ASSERT_GE(x, -2);
    ASSERT_LE(x, 2);
    saw_lo = saw_lo || x == -2;
    saw_hi = saw_hi || x == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitDecorrelates) {
  Rng parent(13);
  Rng a = parent.split("alpha");
  Rng b = parent.split("beta");
  int same = 0;
  for (int i = 0; i < 256; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitSameLabelDifferentDraws) {
  // split() consumes parent state, so two same-label children differ too.
  Rng parent(14);
  Rng a = parent.split("x");
  Rng b = parent.split("x");
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Fnv1a64, StableValues) {
  // Reference values for the 64-bit FNV-1a of known strings.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a64("delays"), fnv1a64("clocks"));
}

TEST(Rng, UniformityChiSquared) {
  // 16 bins, 64k samples: chi-squared should be far below the catastrophic
  // threshold for a working generator.
  Rng rng(16);
  std::vector<int> bins(16, 0);
  const int n = 65536;
  for (int i = 0; i < n; ++i) {
    ++bins[static_cast<std::size_t>(rng.next_double() * 16.0)];
  }
  const double expected = n / 16.0;
  double chi2 = 0;
  for (int c : bins) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 60.0);  // df=15; 60 is far beyond the 0.999 quantile
}

}  // namespace
}  // namespace gtrix
