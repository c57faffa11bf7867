#include "numeric/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
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
// the redraw loop is exercised too. The reciprocal form, which reduces
// without a division, must match alike.
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
    Rng reciprocal_form = fast;
    Rng reference = fast;
    const uint64_t threshold = (-bound) % bound;
    const uint64_t reciprocal = Rng::PickReciprocal(bound);
    for (int i = 0; i < (1 << 21); ++i) {
      uint64_t r = reference.NextU64();
      while (r < threshold) r = reference.NextU64();
      ASSERT_EQ(fast.NextIndex(bound), r % bound)
          << "bound " << bound << ", call " << i;
      ASSERT_EQ(reciprocal_form.NextIndex(bound, reciprocal), r % bound)
          << "bound " << bound << ", call " << i << ", reciprocal form";
    }
    const uint64_t next = reference.NextU64();
    EXPECT_EQ(fast.NextU64(), next) << "bound " << bound;
    EXPECT_EQ(reciprocal_form.NextU64(), next) << "bound " << bound;
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

TEST(RngTest, CoinFlipsExactlyLikeNextBernoulli) {
  // A coin made once must draw as NextBernoulli does on every double:
  // the no-draw tails and heads ends, NaN's one-draw tails, and the
  // threshold at the smallest, a middle and the largest open-interval p.
  const double cases[] = {std::nan(""),
                          -std::numeric_limits<double>::infinity(),
                          -1.0,
                          -0.0,
                          0.0,
                          std::numeric_limits<double>::denorm_min(),
                          0x1.0p-53,
                          0.3,
                          0.5,
                          1.0 - 0x1.0p-53,
                          1.0,
                          1.5,
                          std::numeric_limits<double>::infinity()};
  for (double p : cases) {
    const Rng::Coin coin = Rng::Coin::Of(p);
    for (uint64_t seed = 0; seed < 2000; ++seed) {
      Rng bernoulli(seed);
      Rng flip(seed);
      ASSERT_EQ(flip.Flip(coin), bernoulli.NextBernoulli(p))
          << "p=" << p << " seed=" << seed;
      ASSERT_EQ(flip.NextU64(), bernoulli.NextU64())
          << "p=" << p << " seed=" << seed;
    }
  }
  // Random probabilities in (0, 1), one per stream.
  Rng draw(77);
  for (int i = 0; i < 20000; ++i) {
    const double p = draw.NextDouble();
    Rng bernoulli(1000 + i);
    Rng flip(1000 + i);
    ASSERT_EQ(flip.Flip(Rng::Coin::Of(p)), bernoulli.NextBernoulli(p)) << p;
    ASSERT_EQ(flip.NextU64(), bernoulli.NextU64()) << p;
  }
}

TEST(RngTest, CoinThresholdIsTheCeilingOfPTimesTwoToThe53) {
  // A draw u = NextU64() >> 11 is heads iff u · 2^-53 < p, i.e. iff u is
  // below ceil(p · 2^53): p = k · 2^-53 admits u < k, and the next double
  // above it admits u = k too.
  for (uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{1} << 52,
                     (uint64_t{1} << 53) - 1}) {
    const double p = static_cast<double>(k) * 0x1.0p-53;
    EXPECT_EQ(Rng::Coin::Of(p).threshold, k) << k;
    if (k + 1 < (uint64_t{1} << 53)) {
      EXPECT_EQ(Rng::Coin::Of(std::nextafter(p, 1.0)).threshold, k + 1) << k;
    }
  }
  EXPECT_EQ(Rng::Coin::Of(std::numeric_limits<double>::denorm_min()).threshold,
            1u);
  EXPECT_EQ(Rng::Coin::Of(std::nan("")).threshold, 0u);
  EXPECT_EQ(Rng::Coin::Of(-0.0).threshold, Rng::Coin::kTails);
  EXPECT_EQ(Rng::Coin::Of(1.0).threshold, Rng::Coin::kHeads);
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

TEST(RngTest, SplitterMatchesSplitAndItsRecordedStreams) {
  // The splitter hashes the parent's state words once; each substream
  // must stay bit-identical to Split(i). The expected first draws were
  // recorded from Split before the state hash was hoisted.
  const uint64_t indices[] = {0, 1, uint64_t{1} << 32, uint64_t{1} << 63,
                              UINT64_MAX};
  std::vector<Rng> parents = {Rng(0), Rng(1), Rng(20080407), Rng(7)};
  for (int i = 0; i < 5; ++i) (void)parents[3].NextU64();
  Rng::State extreme;
  extreme.words[0] = UINT64_MAX;
  extreme.words[1] = 1;
  extreme.words[2] = 0;
  extreme.words[3] = uint64_t{1} << 63;
  parents.emplace_back();
  parents.back().RestoreState(extreme);
  const uint64_t recorded[5][5] = {
      {0x3ed981577958de10ULL, 0x52e71b4e198868daULL, 0x80d61542eb588563ULL,
       0x220cbf2a487b6304ULL, 0xf3ba47654d5ddd4fULL},
      {0xf7a6575daa1842d9ULL, 0x33ca1388da9aaafbULL, 0x669a2c265eb7edafULL,
       0x887c5a493fb2c13eULL, 0x7c5d66c7d36936e2ULL},
      {0xdc73bbd444629e98ULL, 0x41c6e6c68367672bULL, 0x57b493d9a104c44eULL,
       0x26d74884b190383bULL, 0xe8774d392faa2f49ULL},
      {0xaa13a87112dbc849ULL, 0x0ce9da7bb3757269ULL, 0xddbf435da5e9598bULL,
       0x98de84485f26642dULL, 0xfd24c56e005c45d9ULL},
      {0x3566cac0ca177da2ULL, 0xecc10cdec0d0fb02ULL, 0xa5d93db63abc1b8dULL,
       0x14a4aaad87864211ULL, 0x51efb1cb60ede1b5ULL},
  };
  for (size_t p = 0; p < parents.size(); ++p) {
    const Rng::State before = parents[p].SaveState();
    const Rng::Splitter splitter(parents[p]);
    for (size_t k = 0; k < 5; ++k) {
      Rng hoisted = splitter(indices[k]);
      Rng direct = parents[p].Split(indices[k]);
      for (int draw = 0; draw < 4; ++draw) {
        const uint64_t value = hoisted.NextU64();
        EXPECT_EQ(value, direct.NextU64()) << "parent " << p << " index " << k;
        if (draw == 0) {
          EXPECT_EQ(value, recorded[p][k]) << "parent " << p << " index " << k;
        }
      }
    }
    // Neither the splitter nor Split advanced the parent.
    EXPECT_EQ(parents[p].SaveState().words[0], before.words[0]);
    EXPECT_EQ(parents[p].SaveState().words[3], before.words[3]);
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
