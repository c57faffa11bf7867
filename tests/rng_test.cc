#include "numeric/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

namespace digest {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextIndexRespectsBound) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    const uint64_t x = rng.NextIndex(7);
    ASSERT_LT(x, 7u);
    ++counts[x];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);  // ~5 sigma of binomial noise.
  }
}

// NextIndex computes its rejection threshold only for a first draw below
// the bound. Replay the threshold-first form (every call divides) on an
// identical stream: each index must match, and both generators must have
// consumed the same raw draws. 2^63 + 1 rejects about half its draws, so
// the redraw loop is exercised too.
TEST(RngTest, NextIndexMatchesThresholdFirstForm) {
  const uint64_t bounds[] = {1,
                             2,
                             3,
                             7,
                             uint64_t{1} << 32,
                             (uint64_t{1} << 32) + 1,
                             uint64_t{1} << 63,
                             (uint64_t{1} << 63) + 1,
                             ~uint64_t{0}};
  for (const uint64_t bound : bounds) {
    Rng fast(bound ^ 0x5eedULL);
    Rng reference = fast;
    const uint64_t threshold = (-bound) % bound;
    for (int i = 0; i < (1 << 21); ++i) {
      uint64_t r = reference.NextU64();
      while (r < threshold) r = reference.NextU64();
      ASSERT_EQ(fast.NextIndex(bound), r % bound)
          << "bound " << bound << ", call " << i;
    }
    EXPECT_EQ(fast.NextU64(), reference.NextU64()) << "bound " << bound;
  }
}

TEST(RngTest, NextIntCoversInclusiveRange) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.NextInt(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParameters) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(37);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const size_t idx = rng.NextWeightedIndex(weights);
    ASSERT_LT(idx, 4u);
    ++counts[idx];
  }
  EXPECT_EQ(counts[2], 0);  // Zero weight never picked.
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.6, 0.01);
}

TEST(RngTest, WeightedIndexAllZeroReturnsSize) {
  Rng rng(41);
  EXPECT_EQ(rng.NextWeightedIndex({0.0, 0.0}), 2u);
  EXPECT_EQ(rng.NextWeightedIndex({}), 0u);
}

TEST(RngTest, ForkedStreamsAreIndependentButDeterministic) {
  Rng a(99);
  Rng fork1 = a.Fork();
  Rng b(99);
  Rng fork2 = b.Fork();
  // Same parent seed -> same fork.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fork1.NextU64(), fork2.NextU64());
  }
  // Fork differs from parent stream.
  Rng c(99);
  Rng fork3 = c.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (c.NextU64() == fork3.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, SplitIsDeterministicAndPure) {
  // Split is a pure function of (parent state, index): same parent
  // state and index give the same substream, and splitting never
  // advances the parent.
  Rng parent(4242);
  Rng witness(4242);  // Never split: the reference output stream.
  Rng s1 = parent.Split(7);
  Rng s2 = parent.Split(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(s1.NextU64(), s2.NextU64());
  }
  (void)parent.Split(123456);  // More splits still do not advance.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(parent.NextU64(), witness.NextU64());
  }
}

TEST(RngTest, SplitDependsOnParentStateAndIndex) {
  Rng a(1);
  Rng b(1);
  (void)b.NextU64();  // Advance b: same seed, different state.
  // Different indices give unrelated streams.
  Rng s0 = a.Split(0);
  Rng s1 = a.Split(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (s0.NextU64() == s1.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
  // Same index from a different parent state also differs.
  Rng sa = a.Split(5);
  Rng sb = b.Split(5);
  equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (sa.NextU64() == sb.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, SplitDiffersFromForkAndParent) {
  // Split(i) must collide with neither the parent stream nor Fork()
  // (which advances the parent), so the parallel sampler can use both
  // on one seed without correlated draws.
  Rng parent(2718);
  Rng split = parent.Split(0);
  Rng parent2(2718);
  Rng fork = parent2.Fork();
  int equal_parent = 0, equal_fork = 0;
  for (int i = 0; i < 64; ++i) {
    const uint64_t s = split.NextU64();
    if (s == parent2.NextU64()) ++equal_parent;
    if (s == fork.NextU64()) ++equal_fork;
  }
  EXPECT_LT(equal_parent, 2);
  EXPECT_LT(equal_fork, 2);
}

TEST(RngTest, TenThousandSplitsHaveNoCollisions) {
  // The parallel executor keys one substream per walk; a collision
  // between substreams would correlate two walks' entire futures. Over
  // 10k splits, the 128-bit (first two outputs) substream fingerprints
  // must all be distinct — and so must the seeds reconstructed from
  // consecutive even/odd indices (the walk/fault split pattern).
  Rng parent(123456789);
  std::set<std::pair<uint64_t, uint64_t>> fingerprints;
  for (uint64_t i = 0; i < 10000; ++i) {
    Rng sub = parent.Split(i);
    const uint64_t first = sub.NextU64();
    const uint64_t second = sub.NextU64();
    EXPECT_TRUE(fingerprints.emplace(first, second).second)
        << "collision at index " << i;
  }
  EXPECT_EQ(fingerprints.size(), 10000u);
}

TEST(RngTest, SplitSubstreamsAreStatisticallyIndependent) {
  // Substream quality: pooled first draws across 10k substreams are
  // uniform (mean, variance), and adjacent substreams (the walk/fault
  // pairs Split(2i)/Split(2i+1)) are uncorrelated.
  Rng parent(31337);
  const int n = 10000;
  double sum = 0.0, sumsq = 0.0, cross = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = parent.Split(2 * i).NextDouble();
    const double y = parent.Split(2 * i + 1).NextDouble();
    sum += x + y;
    sumsq += x * x + y * y;
    cross += (x - 0.5) * (y - 0.5);
  }
  const double mean = sum / (2 * n);
  const double var = sumsq / (2 * n) - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.01);  // Uniform(0,1) variance.
  // Pearson-style cross term: for independent uniforms the correlation
  // is 0 with sd ~ 1/(12*sqrt(n)) — 0.005 is ~6 sigma.
  EXPECT_NEAR(cross / n, 0.0, 0.005);
}

TEST(RngTest, SplitStreamsPassIndexUniformity) {
  // Draws taken *within* one substream are as uniform as the parent's:
  // the walk loop draws neighbors via NextIndex on the substream.
  Rng parent(555);
  Rng sub = parent.Split(42);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    const uint64_t x = sub.NextIndex(7);
    ASSERT_LT(x, 7u);
    ++counts[x];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);
  }
}

// Property sweep: uniformity of NextIndex across several bounds.
class RngIndexUniformity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngIndexUniformity, ChiSquareWithinBounds) {
  const uint64_t bound = GetParam();
  Rng rng(bound * 7919 + 1);
  const int n = 20000 * static_cast<int>(bound);
  std::vector<int> counts(bound, 0);
  for (int i = 0; i < n; ++i) ++counts[rng.NextIndex(bound)];
  const double expected = static_cast<double>(n) / bound;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // Very generous: P(chi2 > 3*df) is negligible for these df.
  EXPECT_LT(chi2, 3.0 * bound + 20.0);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngIndexUniformity,
                         ::testing::Values(2, 3, 5, 10, 17));

}  // namespace
}  // namespace digest
