#include "numeric/stats.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "numeric/rng.h"

namespace digest {
namespace {

// Welford's mean of `xs`, fed in order.
double RunningMean(const std::vector<double>& xs) {
  RunningStats s;
  for (double x : xs) s.Add(x);
  return s.Mean();
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.PopulationVariance(), 0.0);
  EXPECT_EQ(s.SampleVariance(), 0.0);
}

TEST(RunningStatsTest, CheckedMeanFailsWhenEmpty) {
  RunningStats s;
  Result<double> mean = s.CheckedMean();
  ASSERT_FALSE(mean.ok());
  EXPECT_EQ(mean.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RunningStatsTest, CheckedMeanMatchesMeanWhenNonEmpty) {
  RunningStats s;
  s.Add(3.0);
  s.Add(-1.0);
  Result<double> mean = s.CheckedMean();
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(mean.value(), s.Mean());
  EXPECT_DOUBLE_EQ(mean.value(), 1.0);
  // A genuine zero mean is distinguishable from the empty case.
  RunningStats zero;
  zero.Add(2.0);
  zero.Add(-2.0);
  ASSERT_TRUE(zero.CheckedMean().ok());
  EXPECT_DOUBLE_EQ(zero.CheckedMean().value(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.Mean(), 5.0);
  EXPECT_EQ(s.SampleVariance(), 0.0);
}

TEST(RunningStatsTest, MatchesBatchFormulas) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats s;
  for (double x : xs) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Mean(), Mean(xs));
  EXPECT_NEAR(s.SampleVariance(), SampleVariance(xs), 1e-12);
  EXPECT_NEAR(s.PopulationVariance(), PopulationVariance(xs), 1e-12);
  EXPECT_NEAR(s.SampleStdDev(), std::sqrt(SampleVariance(xs)), 1e-12);
}

TEST(RunningStatsTest, KnownVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.PopulationVariance(), 4.0);
}

TEST(RunningStatsTest, MergeEqualsConcatenation) {
  Rng rng(5);
  RunningStats left, right, all;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.NextGaussian(3.0, 2.0);
    left.Add(x);
    all.Add(x);
  }
  for (int i = 0; i < 57; ++i) {
    const double x = rng.NextGaussian(-1.0, 0.5);
    right.Add(x);
    all.Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.Mean(), all.Mean(), 1e-10);
  EXPECT_NEAR(left.SampleVariance(), all.SampleVariance(), 1e-9);
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.Mean(), 2.0);
}

TEST(StatsTest, MeanOfEmptyIsZero) { EXPECT_EQ(Mean({}), 0.0); }

TEST(StatsTest, CovarianceKnownValue) {
  // Perfectly linear y = 2x -> cov = 2*var(x).
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  Result<double> cov = SampleCovariance(xs, ys);
  ASSERT_TRUE(cov.ok());
  EXPECT_NEAR(*cov, 2.0 * SampleVariance(xs), 1e-12);
}

TEST(StatsTest, CovarianceRejectsBadInput) {
  EXPECT_FALSE(SampleCovariance({1.0}, {1.0}).ok());
  EXPECT_FALSE(SampleCovariance({1.0, 2.0}, {1.0}).ok());
}

TEST(StatsTest, CorrelationBounds) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  Result<double> pos = PearsonCorrelation(xs, {2, 4, 6, 8, 10});
  ASSERT_TRUE(pos.ok());
  EXPECT_DOUBLE_EQ(*pos, 1.0);
  Result<double> neg = PearsonCorrelation(xs, {10, 8, 6, 4, 2});
  ASSERT_TRUE(neg.ok());
  EXPECT_DOUBLE_EQ(*neg, -1.0);
}

TEST(StatsTest, CorrelationOfConstantFails) {
  EXPECT_FALSE(PearsonCorrelation({1, 1, 1}, {1, 2, 3}).ok());
}

TEST(StatsTest, CorrelationOfNoisyAr1MatchesCoefficient) {
  // AR(1) with coefficient a has lag-1 autocorrelation a.
  Rng rng(77);
  const double a = 0.7;
  std::vector<double> series;
  double x = 0.0;
  for (int i = 0; i < 60000; ++i) {
    x = a * x + rng.NextGaussian();
    series.push_back(x);
  }
  Result<double> rho = Autocorrelation(series, 1);
  ASSERT_TRUE(rho.ok());
  EXPECT_NEAR(*rho, a, 0.02);
  Result<double> rho2 = Autocorrelation(series, 2);
  ASSERT_TRUE(rho2.ok());
  EXPECT_NEAR(*rho2, a * a, 0.03);
}

TEST(StatsTest, AutocorrelationRejectsShortOrConstant) {
  EXPECT_FALSE(Autocorrelation({1.0, 2.0}, 2).ok());
  EXPECT_FALSE(Autocorrelation({3.0, 3.0, 3.0, 3.0}, 1).ok());
}

TEST(StatsTest, LinearRegressionRecoversLine) {
  const std::vector<double> xs = {0, 1, 2, 3, 4};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.5 - 2.0 * x);
  Result<LinearFit> fit = SimpleLinearRegression(xs, ys);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->intercept, 3.5, 1e-12);
  EXPECT_NEAR(fit->slope, -2.0, 1e-12);
}

TEST(StatsTest, LinearRegressionWithNoiseIsClose) {
  Rng rng(123);
  std::vector<double> xs, ys;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.NextDouble() * 10.0;
    xs.push_back(x);
    ys.push_back(1.0 + 0.5 * x + rng.NextGaussian(0.0, 0.3));
  }
  Result<LinearFit> fit = SimpleLinearRegression(xs, ys);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->intercept, 1.0, 0.05);
  EXPECT_NEAR(fit->slope, 0.5, 0.01);
}

TEST(StatsTest, LinearRegressionRejectsConstantX) {
  EXPECT_FALSE(SimpleLinearRegression({2, 2, 2}, {1, 2, 3}).ok());
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// The fused pass must return exactly what the one-series helpers return
// on the same series, in both orientations, so the estimators that use
// it keep every bit.
void ExpectPairedMomentsMatchHelpers(const std::vector<double>& xs,
                                     const std::vector<double>& ys) {
  Result<PairedMoments> m = ComputePairedMoments(xs, ys);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(Bits(m->mean_x), Bits(Mean(xs)));
  EXPECT_EQ(Bits(m->mean_y), Bits(Mean(ys)));
  EXPECT_EQ(m->x.count(), xs.size());
  EXPECT_EQ(Bits(m->x.SampleVariance()), Bits(SampleVariance(xs)));
  EXPECT_EQ(Bits(m->y.SampleVariance()), Bits(SampleVariance(ys)));
  EXPECT_EQ(Bits(m->x.Mean()), Bits(RunningMean(xs)));
  EXPECT_EQ(Bits(m->y.Mean()), Bits(RunningMean(ys)));
  EXPECT_EQ(Bits(m->sxy / static_cast<double>(xs.size() - 1)),
            Bits(SampleCovariance(xs, ys).value()));

  const LinearFit y_on_x = m->RegressYOnX().value();
  const LinearFit ref_y_on_x = SimpleLinearRegression(xs, ys).value();
  EXPECT_EQ(Bits(y_on_x.slope), Bits(ref_y_on_x.slope));
  EXPECT_EQ(Bits(y_on_x.intercept), Bits(ref_y_on_x.intercept));
  const LinearFit x_on_y = m->RegressXOnY().value();
  const LinearFit ref_x_on_y = SimpleLinearRegression(ys, xs).value();
  EXPECT_EQ(Bits(x_on_y.slope), Bits(ref_x_on_y.slope));
  EXPECT_EQ(Bits(x_on_y.intercept), Bits(ref_x_on_y.intercept));
  EXPECT_EQ(Bits(m->Correlation().value()),
            Bits(PearsonCorrelation(xs, ys).value()));
  EXPECT_EQ(Bits(m->Correlation().value()),
            Bits(PearsonCorrelation(ys, xs).value()));

  // The swapped call is the mirror image of this one.
  Result<PairedMoments> swapped = ComputePairedMoments(ys, xs);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(Bits(swapped->RegressYOnX()->slope), Bits(x_on_y.slope));
  EXPECT_EQ(Bits(swapped->RegressXOnY()->slope), Bits(y_on_x.slope));
  EXPECT_EQ(Bits(swapped->sxy), Bits(m->sxy));
}

TEST(StatsTest, PairedMomentsMatchTheOneSeriesHelpersBitForBit) {
  Rng rng(2008);
  // 240 is about a TEMPERATURE occasion's retained pool.
  for (size_t n : {3, 240, 10000}) {
    SCOPED_TRACE(n);
    std::vector<double> xs, ys;
    for (size_t i = 0; i < n; ++i) {
      // Values near 60 with small spread, like retained temperatures:
      // the centring is where a reordered sum would lose bits.
      const double x = rng.NextGaussian(60.0, 8.0);
      xs.push_back(x);
      ys.push_back(0.9 * x + rng.NextGaussian(6.0, 3.0));
    }
    ExpectPairedMomentsMatchHelpers(xs, ys);
  }
}

TEST(StatsTest, PairedMomentsFailWhereTheHelpersFail) {
  const std::vector<double> varied = {1.0, 4.0, 2.0};
  const std::vector<double> constant = {3.0, 3.0, 3.0};
  // Mismatched sizes and fewer than two points: no moments at all.
  EXPECT_EQ(ComputePairedMoments({1.0, 2.0}, {1.0}).status().code(),
            SimpleLinearRegression({1.0, 2.0}, {1.0}).status().code());
  EXPECT_EQ(ComputePairedMoments({1.0}, {1.0}).status().code(),
            PearsonCorrelation({1.0}, {1.0}).status().code());
  EXPECT_EQ(ComputePairedMoments({}, {}).status().code(),
            StatusCode::kInvalidArgument);
  // Constant x: no regression of y on x, no correlation.
  Result<PairedMoments> cx = ComputePairedMoments(constant, varied);
  ASSERT_TRUE(cx.ok());
  EXPECT_EQ(cx->RegressYOnX().status().code(),
            SimpleLinearRegression(constant, varied).status().code());
  EXPECT_TRUE(cx->RegressXOnY().ok());
  EXPECT_EQ(Bits(cx->RegressXOnY()->slope),
            Bits(SimpleLinearRegression(varied, constant)->slope));
  EXPECT_EQ(cx->Correlation().status().code(),
            PearsonCorrelation(constant, varied).status().code());
  // Constant y: the mirror image.
  Result<PairedMoments> cy = ComputePairedMoments(varied, constant);
  ASSERT_TRUE(cy.ok());
  EXPECT_TRUE(cy->RegressYOnX().ok());
  EXPECT_EQ(cy->RegressXOnY().status().code(),
            SimpleLinearRegression(constant, varied).status().code());
  EXPECT_EQ(cy->Correlation().status().code(),
            PearsonCorrelation(varied, constant).status().code());
  EXPECT_EQ(cy->Correlation().status().code(), StatusCode::kNumericError);
  // Two points are enough for moments, as for the helpers.
  ExpectPairedMomentsMatchHelpers({1.0, 2.5}, {7.0, -1.0});
  // NaN propagates as it does through the helpers.
  const std::vector<double> with_nan = {1.0, std::nan(""), 2.0};
  Result<PairedMoments> nan = ComputePairedMoments(with_nan, varied);
  ASSERT_TRUE(nan.ok());
  EXPECT_EQ(nan->RegressYOnX().ok(),
            SimpleLinearRegression(with_nan, varied).ok());
  EXPECT_TRUE(std::isnan(nan->RegressYOnX()->slope));
  EXPECT_TRUE(std::isnan(nan->Correlation().value()));
  EXPECT_TRUE(std::isnan(PearsonCorrelation(with_nan, varied).value()));
}

// Property: correlation is invariant to affine transforms of both series.
class CorrelationInvariance
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(CorrelationInvariance, AffineTransformPreservesCorrelation) {
  const auto [scale, shift] = GetParam();
  Rng rng(314);
  std::vector<double> xs, ys, xs2, ys2;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextGaussian();
    const double y = 0.6 * x + 0.8 * rng.NextGaussian();
    xs.push_back(x);
    ys.push_back(y);
    xs2.push_back(scale * x + shift);
    ys2.push_back(scale * y - shift);
  }
  Result<double> base = PearsonCorrelation(xs, ys);
  Result<double> transformed = PearsonCorrelation(xs2, ys2);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(transformed.ok());
  EXPECT_NEAR(*base, *transformed, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Transforms, CorrelationInvariance,
    ::testing::Values(std::make_pair(2.0, 0.0), std::make_pair(0.5, 10.0),
                      std::make_pair(100.0, -7.0),
                      std::make_pair(1e-3, 1e3)));

}  // namespace
}  // namespace digest
